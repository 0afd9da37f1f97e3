import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from modeswitch import scheme
from modeswitch.cli import main
from modeswitch.grid import Lattice
from modeswitch.io import load_problem
from modeswitch.model import (
    COMPONENTS,
    MINUS,
    PLUS,
    CoefficientFunction,
    CostSlice,
    Driver,
    DriverTable,
    ProblemError,
    SwitchingProblem,
    Terminal,
    replace,
    row,
    validate_assumptions,
)
from modeswitch.scheme import BalanceSheetSolution, LocalSweepError, SchemeError, solve_system
from modeswitch.strategy import simulate_policy
from modeswitch.verify import ClosedFormFamily, SampledFamily, audit_solution, counterexample_problem

from conftest import (
    assert_certificate_premise, assert_matches_pinned, at, bin_backend, build_problem, det_backend, numpy_pass,
    random_affine_driver, settle_off, whole_block_contacts,
)
from picard_reference import (
    Component, Iterate, ReferenceSolution, _assert_system_constraints, first_iterate, initialize_scheme, iterate_once,
    picard_system,
)


def multi_sweep_problem():
    """Cost staircase: both cost rates are 5 with zero terminals, switching
    cost 0.5, exits blocked. The warm start caps both cost components at the
    switching cost, and each sweep can raise the mutual cap by at most one
    more switching cost, so convergence takes ~T*5/0.5 sweeps.
    """
    drivers = {(MINUS, 1): (5.0, 0.0, 0.0), (MINUS, 2): (5.0, 0.0, 0.0)}
    return build_problem(drivers=drivers, ell=0.5, a=10.0, b=10.0)


class TestInitializeScheme:
    def test_counterexample_stage0_matches_exponential(self):
        problem = counterexample_problem(1.0)
        be = det_backend(512)
        start = initialize_scheme(problem, be)
        exact = np.exp(1.0 - be.times)
        err = max(
            abs(float(at(start.y_plus0[1].y, be, k)[0]) - exact[k]) for k in range(513)
        )
        assert err <= 2.0 * be.dt

    def test_zero_problem_all_zero(self, zero_problem):
        start = initialize_scheme(zero_problem, det_backend(64))
        for mode in (1, 2):
            assert np.max(np.abs(start.y_plus0[mode].y)) == 0.0
        assert np.max(np.abs(start.dot_y)) == 0.0
        assert start.alpha(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_alpha_minimum_on_counterexample(self):
        # at t=0, y=1 the four candidate rates are 1, 1+1, 2, 2+1
        problem = counterexample_problem(1.0)
        start = initialize_scheme(problem, det_backend(64))
        assert start.alpha(0.0, np.zeros(1), 1.0, 0.0) == pytest.approx(1.0)

    def test_warm_start_bounded_by_shifted_profits(self):
        problem = counterexample_problem(1.0)
        be = det_backend(256)
        start = initialize_scheme(problem, be)
        for mode in (1, 2):
            for k in range(257):
                assert np.all(at(start.dot_y, be, k) <= at(start.big_l[mode], be, k) + 1e-10)

    def test_validation_failure_aborts_with_report(self):
        bad = build_problem(ell=0.0)
        with pytest.raises(SchemeError, match="A2"):
            initialize_scheme(bad, det_backend(16))
        try:
            initialize_scheme(bad, det_backend(16))
        except SchemeError as exc:
            assert not exc.report.all_passed
            assert any("A2" in c.name for c in exc.report.failures())


class TestFirstIterate:
    def test_zero_problem_stays_zero(self, zero_problem):
        be = det_backend(64)
        start = initialize_scheme(zero_problem, be)
        it1 = first_iterate(start, zero_problem, be)
        for key in COMPONENTS:
            assert np.max(np.abs(it1.sol[key].y)) == 0.0
            assert np.max(np.abs(it1.sol[key].dk)) == 0.0

    def test_counterexample_orderings(self):
        problem = counterexample_problem(1.0)
        be = det_backend(256)
        start = initialize_scheme(problem, be)
        it1 = first_iterate(start, problem, be)
        for mode in (1, 2):
            for k in range(257):
                assert np.all(
                    at(it1.sol[(PLUS, mode)].y, be, k) >= at(start.y_plus0[mode].y, be, k) - 1e-10
                )
                assert np.all(at(it1.sol[(MINUS, mode)].y, be, k) >= at(start.dot_y, be, k) - 1e-10)


class TestIterateOnce:
    def test_zero_problem_immediate_fixed_point(self, zero_problem):
        be = det_backend(64)
        start = initialize_scheme(zero_problem, be)
        it1 = first_iterate(start, zero_problem, be)
        it2 = iterate_once(it1, zero_problem, be)
        for key in COMPONENTS:
            assert np.max(np.abs(it2.sol[key].y - it1.sol[key].y)) == 0.0

    def test_converged_iterate_is_fixed(self):
        problem = counterexample_problem(1.0)
        be = det_backend(256)
        solution, trace = solve_system(problem, be)
        assert trace.converged
        again = iterate_once(Iterate.of(solution, n=99), problem, be)
        for key in COMPONENTS:
            assert np.max(np.abs(again.sol[key].y - solution.y[row(*key)])) <= 1e-10

    def test_decreasing_sweep_flagged_as_scheme_failure(self):
        # an iterate sitting above the fixed point must come back down, which
        # the monotonicity guard reports as a scheme failure
        problem = counterexample_problem(1.0)
        be = det_backend(128)
        solution, trace = solve_system(problem, be)
        assert trace.converged
        doctored = {}
        for key, comp in Iterate.of(solution, n=1).sol.items():
            lift = 1.0 if key[0] == MINUS else 0.0
            doctored[key] = Component(comp.y + lift, comp.z, comp.dk)
        with pytest.raises(SchemeError, match="cost mode"):
            iterate_once(Iterate(n=1, sol=doctored), problem, be)

    def test_counterexample_delta_trace(self):
        problem = counterexample_problem(1.0)
        be = det_backend(512)
        start = initialize_scheme(problem, be)
        current = first_iterate(start, problem, be)
        deltas = []
        for _ in range(200):
            nxt = iterate_once(current, problem, be)
            deltas.append(
                max(np.max(np.abs(nxt.sol[key].y - current.sol[key].y)) for key in COMPONENTS)
            )
            current = nxt
            if deltas[-1] < 1e-8:
                break
        assert deltas[-1] < 1e-8
        assert len(deltas) <= 200
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))


class TestSolveSystem:
    def test_counterexample_minimal_solution(self):
        problem = counterexample_problem(1.0)
        be = det_backend(2000)
        solution, trace = solve_system(problem, be)
        assert trace.converged
        assert solution.y0(PLUS, 1) <= np.e + 1e-3
        fam1 = ClosedFormFamily(1, 1.0)
        times = be.times
        for side, mode in COMPONENTS:
            exact = fam1.y(side, mode, times)
            for k in range(0, 2001, 100):
                assert float(at(solution.y[row(side, mode)], be, k)[0]) <= exact[k] + 1e-3

    def test_zero_problem_converges_in_two_sweeps(self, zero_problem):
        solution, trace = picard_system(zero_problem, det_backend(64))
        assert trace.converged and trace.iterations <= 2
        for side, mode in COMPONENTS:
            assert solution.y0(side, mode) == 0.0

    def test_terminal_values_exact(self):
        problem = counterexample_problem(1.0)
        be = det_backend(256)
        solution, _ = solve_system(problem, be)
        for side, mode in COMPONENTS:
            assert float(at(solution.y[row(side, mode)], be, 256)[0]) == 1.0

    def test_refinement_order_at_least_one(self):
        problem = counterexample_problem(1.0)
        y0 = {}
        for n in (500, 1000, 2000):
            solution, _ = solve_system(problem, det_backend(n))
            y0[n] = solution.y0(PLUS, 1)
        coarse = abs(y0[500] - y0[1000])
        fine = abs(y0[1000] - y0[2000])
        order = np.log2(coarse / fine)
        assert order >= 0.8
        assert fine <= 2.0 * (1.0 / 1000)

    def test_lattice_refinement_ladder_order_at_least_one_half(self):
        # 1/2 is the proved rate of discretely reflected schemes: a least-squares
        # fit of log |Y0(N) - Y0(N/2)| against log N must fall at least that fast
        # for every component (it read 0.89 on the profit side, 1.00 on the cost side)
        problem = load_problem(Path(__file__).resolve().parents[1] / "bench/problems/switching_lattice.json")
        ladder = (100, 200, 400, 800, 1600)
        y0 = np.array([
            [solution.y0(*key) for key in COMPONENTS]
            for solution, _ in (solve_system(problem, bin_backend(n, problem.horizon)) for n in ladder)
        ])
        slopes = np.polyfit(np.log(ladder[1:]), np.log(np.abs(np.diff(y0, axis=0))), 1)[0]
        assert (-slopes >= 0.5).all(), dict(zip(COMPONENTS, -slopes))

    def test_uniform_bound_stable_under_refinement(self):
        problem = counterexample_problem(1.0)
        sup = {}
        for n in (250, 500):
            solution, _ = solve_system(problem, det_backend(n))
            sup[n] = np.max(np.abs(solution.y))
        assert sup[500] / sup[250] <= 1.5

    def test_reflection_density_bounded(self):
        problem = counterexample_problem(1.0)
        phi0 = np.e + (1 - np.exp(-3)) / 3
        for n in (500, 1000):
            be = det_backend(n)
            solution, _ = solve_system(problem, be)
            dt = 1.0 / n
            density_1 = max(
                float(at(solution.dk[row(MINUS, 1)], be, k)[0]) / dt for k in range(n)
            )
            density_2 = max(
                float(at(solution.dk[row(MINUS, 2)], be, k)[0]) / dt for k in range(n)
            )
            assert np.e / 2 <= density_1 <= 2 * np.e
            assert density_2 == pytest.approx(phi0, rel=0.05)
            # the limit puts all reflection mass on the cost side
            assert np.max(np.abs(solution.dk[0])) == 0.0

    def test_multi_sweep_convergence_and_nonconvergence_report(self):
        problem = multi_sweep_problem()
        be = det_backend(128)
        solution, trace = picard_system(problem, be)
        assert trace.converged
        assert trace.iterations >= 5
        # once converged the mutual caps no longer bind: plain rate-5 integral
        assert solution.y0(MINUS, 1) == pytest.approx(5.0, abs=1e-10)

        short, short_trace = picard_system(problem, be, max_iter=1)
        assert not short_trace.converged
        assert short_trace.iterations == 1
        assert short_trace.deltas[0] >= short_trace.tol

    def test_bad_tolerance_rejected(self, zero_problem):
        with pytest.raises(ValueError):
            picard_system(zero_problem, det_backend(16), tol=-1.0)
        with pytest.raises(ValueError):
            picard_system(zero_problem, det_backend(16), max_iter=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sides, what", [((PLUS, MINUS), "value"), ((MINUS,), "push")])
    def test_overflow_past_the_last_projection_is_named(self, sides, what):
        # the rate 1e308 exp(-10 t) is finite on the grid, and so is its Euler
        # step rate * dt at t = 5; at t = 0 the step overflows, and the
        # projection settles on inf, or on the finite cap of zero profits
        rate = CoefficientFunction.exponential(1e308, -10.0)
        problem = build_problem(horizon=10.0, drivers={key: (rate, 0.0, 0.0) for key in COMPONENTS if key[0] in sides})
        with pytest.raises(ProblemError, match=rf"^{what} not finite at step 0, node 0: \({sides[0]},1\) is inf;"):
            solve_system(problem, det_backend(2, 10.0))

    def test_counterexample_on_lattice_matches_deterministic(self):
        # the fixture problem has no state dependence, so every lattice node
        # carries the single-node value
        problem = counterexample_problem(1.0)
        be = bin_backend(200)
        solution, trace = solve_system(problem, be)
        assert trace.converged
        assert solution.y0(PLUS, 1) == pytest.approx(np.e, abs=2e-2)
        spread = max(
            float(np.ptp(at(solution.y[row(*key)], be, k)))
            for key in COMPONENTS
            for k in range(201)
        )
        assert spread <= 1e-10

    def test_lattice_with_state_and_z_dependence(self):
        from modeswitch.verify import audit_solution

        drivers = {
            (PLUS, 1): Driver(1, PLUS, CoefficientFunction.constant(0.2), c1=0.3, c2=0.2, state_feature="x"),
            (PLUS, 2): Driver(2, PLUS, CoefficientFunction.constant(0.1), c1=0.3, c2=-0.2, state_feature="x"),
            (MINUS, 1): (0.1, 0.2, 0.0),
            (MINUS, 2): (0.1, 0.0, 0.2),
        }
        problem = build_problem(drivers=drivers, ell=2.0, a=2.0, b=2.0, terminals=Terminal(0.0, 1.0))
        be = bin_backend(64)
        solution, trace = solve_system(problem, be)
        assert trace.converged
        report = audit_solution(solution)
        assert report.max_over("max_constraint_violation") <= 1e-10
        assert report.max_over("skorokhod_sum") <= 1e-8
        assert report.max_over("k_sign_violation") == 0.0


def random_admissible_problem(rng):
    """Random affine problem satisfying every admissibility check.

    All four terminals sit within ell(T)/2 of a common level, which is enough
    for the horizon inequalities whatever the exit costs; driver slopes stay
    small enough that the one-step operator is monotone on both backends.
    """
    ell_level = float(rng.uniform(0.5, 1.5))
    ell = CoefficientFunction.constant(ell_level)
    a = CoefficientFunction.constant(float(rng.uniform(0.0, 1.0)))
    b = CoefficientFunction.constant(float(rng.uniform(0.0, 1.0)))
    base = float(rng.uniform(-1.0, 1.0))
    lift = rng.uniform(0.0, ell_level / 2, size=2)
    drop = rng.uniform(0.0, ell_level / 2, size=2)
    terminals = {
        (PLUS, 1): Terminal(base + lift[0]),
        (PLUS, 2): Terminal(base + lift[1]),
        (MINUS, 1): Terminal(base - drop[0]),
        (MINUS, 2): Terminal(base - drop[1]),
    }
    drivers = {
        (side, mode): random_affine_driver(rng, mode=mode, side=side, max_slope=0.5)
        for side, mode in COMPONENTS
    }
    return SwitchingProblem(
        horizon=1.0, drivers=drivers, ell=(ell, ell), a=(a, a), b=(b, b), terminals=terminals
    )


class TestRandomizedMonotoneConvergence:
    """The iteration's structural claims on generic admissible data: every
    sweep is pointwise nondecreasing and the limit satisfies the system."""

    @pytest.mark.parametrize("case", range(10))
    def test_sweeps_increase_and_converge(self, case):
        rng = np.random.default_rng(9000 + case)
        problem = random_admissible_problem(rng)
        backend = bin_backend(24) if case % 2 else det_backend(48)
        assert validate_assumptions(problem, backend).all_passed
        n = backend.n_steps

        start = initialize_scheme(problem, backend)
        current = first_iterate(start, problem, backend)
        for mode in (1, 2):
            for k in range(n + 1):
                assert np.all(
                    at(current.sol[(PLUS, mode)].y, backend, k) >= at(start.y_plus0[mode].y, backend, k) - 1e-10
                )
                assert np.all(at(current.sol[(MINUS, mode)].y, backend, k) >= at(start.dot_y, backend, k) - 1e-10)

        delta = np.inf
        for _ in range(300):
            nxt = iterate_once(current, problem, backend)  # raises on any decrease
            delta = max(np.max(np.abs(nxt.sol[key].y - current.sol[key].y)) for key in COMPONENTS)
            current = nxt
            if delta < 1e-6:
                break
        assert delta < 1e-6

        converged = BalanceSheetSolution(problem, backend, current.stacked("y"))
        obstacles = whole_block_contacts(converged)[0].reshape(4, -1)
        slack = 10 * delta + 1e-10
        for (side, mode), barrier in zip(COMPONENTS, obstacles):
            comp = current.sol[(side, mode)]
            xi = problem.terminal(side, mode)(backend.state(n))
            np.testing.assert_array_equal(at(comp.y, backend, n), np.asarray(xi, dtype=float))
            for k in range(n + 1):
                y, s = at(comp.y, backend, k), at(barrier, backend, k)
                gap = y - s if side == PLUS else s - y
                assert float(np.min(gap)) >= -slack
                assert float(np.min(at(comp.dk, backend, k))) >= 0.0


class TestWidthOneCase:
    """The deterministic backend is the width-1 lattice: on state-free data
    every binomial node carries the deterministic value of its step, bit for
    bit, after the same number of Picard sweeps and of local sweeps."""

    @staticmethod
    def assert_width_one(det, lat):
        for key in COMPONENTS:
            for field in ("y", "z", "dk"):
                width_one, lattice = getattr(det, field)[row(*key)], getattr(lat, field)[row(*key)]
                for k in range(41):
                    expected = np.full(k + 1, at(width_one, det.backend, k)[0])
                    np.testing.assert_array_equal(at(lattice, lat.backend, k), expected)

    @pytest.mark.parametrize("case", range(20))
    def test_state_free_binomial_equals_deterministic(self, case):
        problem = random_admissible_problem(np.random.default_rng(7000 + case))
        det, det_trace = picard_system(problem, det_backend(40), tol=1e-12)
        lat, lat_trace = picard_system(problem, bin_backend(40), tol=1e-12)
        assert lat_trace.deltas == det_trace.deltas
        self.assert_width_one(det, lat)

        det, det_trace = solve_system(problem, det_backend(40))
        lat, lat_trace = solve_system(problem, bin_backend(40))
        np.testing.assert_array_equal(lat_trace.local_sweeps, det_trace.local_sweeps)
        self.assert_width_one(det, lat)


# The pass each lattice kind runs, and a problem on each kind.
PASS_OF = {"deterministic": "_width_one_pass", "binomial": "backward_pass"}
BOTH_KINDS = [
    ("problems/counterexample.json", "deterministic", 200),
    ("bench/problems/switching_lattice.json", "binomial", 100),
]


class TestOnePassAgainstPicard:
    """The one-pass solution is a fixed point of the reference Picard sweep:
    one more sweep from it changes no node."""

    @pytest.mark.parametrize(
        "path, kind, n",
        [
            ("bench/problems/switching_lattice.json", "binomial", 100),
            ("problems/counterexample.json", "deterministic", 2000),
        ],
    )
    def test_one_picard_sweep_changes_nothing(self, path, kind, n):
        problem = load_problem(Path(__file__).resolve().parents[1] / path)
        backend = Lattice(kind, n, problem.horizon)
        solution, trace = solve_system(problem, backend)
        assert trace.converged and trace.local_sweeps.max() <= 2
        again = iterate_once(Iterate.of(solution, n=1), problem, backend)
        for key in COMPONENTS:
            assert np.max(np.abs(again.sol[key].y - solution.y[row(*key)])) == 0.0

    @pytest.mark.parametrize("path, kind, n", BOTH_KINDS)
    def test_solver_refuses_a_solution_that_a_sweep_moves(self, path, kind, n, monkeypatch):
        settle_off(monkeypatch, kind, [((PLUS, 1), 0, 0, np.inf)])
        problem = load_problem(Path(__file__).resolve().parents[1] / path)
        with pytest.raises(SchemeError, match=r"one Picard sweep would move \(plus,1\) at step 0, node 0 by"):
            solve_system(problem, Lattice(kind, n, problem.horizon))

    @pytest.mark.parametrize("path, kind, n", BOTH_KINDS)
    def test_solve_runs_one_backward_pass_and_no_sweep(self, path, kind, n, monkeypatch):
        assert not hasattr(scheme, "iterate_once")
        calls = {f"modeswitch.scheme.{name}": 0 for name in PASS_OF.values()}

        def counted(name):
            real = getattr(scheme, name)

            def count(*args):
                calls[f"modeswitch.scheme.{name}"] += 1
                return real(*args)

            return count

        for name in PASS_OF.values():
            monkeypatch.setattr(scheme, name, counted(name))
        problem = load_problem(Path(__file__).resolve().parents[1] / path)
        solve_system(problem, Lattice(kind, n, problem.horizon))
        assert calls == {
            f"modeswitch.scheme.{name}": int(other == kind) for other, name in PASS_OF.items()
        }

    # N = 400 on both kinds: the binomial pass checks each step's block as it settles it, from the horizon down;
    # the width-1 pass checks its whole block once, where node k is step k
    FAULT_CASES = [
        ("problems/counterexample.json", "deterministic", 0),
        ("bench/problems/switching_lattice.json", "binomial", 3),
    ]

    @staticmethod
    def case400(path, kind):
        problem = load_problem(Path(__file__).resolve().parents[1] / path)
        return problem, Lattice(kind, 400, problem.horizon)

    @pytest.mark.parametrize("path, kind, j", FAULT_CASES)
    @pytest.mark.parametrize("moves, named", [
        ([((PLUS, 1), 390, np.inf), ((PLUS, 1), 100, np.inf), ((MINUS, 2), 5, np.inf)], ((PLUS, 1), 390)),
        ([((MINUS, 2), 5, -np.inf), ((PLUS, 2), 100, np.inf)], ((PLUS, 2), 100)),
        ([((MINUS, 1), 5, -np.inf)], ((MINUS, 1), 5)),
    ], ids=["three", "two", "one"])  # fmt: skip
    def test_the_move_at_the_last_node_is_named(self, path, kind, j, moves, named, monkeypatch):
        problem, backend = self.case400(path, kind)
        settle_off(monkeypatch, kind, [(key, k, j, towards) for key, k, towards in moves])
        (side, mode), k = named
        with pytest.raises(SchemeError, match=rf"^one Picard sweep would move \({side},{mode}\) at step {k}, node {j} by "):
            solve_system(problem, backend)

    @pytest.mark.parametrize("path, kind, j", FAULT_CASES)
    def test_a_push_that_is_not_finite_fails_first_at_its_last_node(self, path, kind, j, monkeypatch):
        # a rate that is not finite at steps 100 and 390, past the validator, and a move at step 390:
        # the cost settles on its finite cap, so the push is named, at the later step, before the move
        problem, backend = self.case400(path, kind)
        array = DriverTable.array

        def tampered(table):
            c0 = (arrays := array(table)).c0.copy()
            c0[row(MINUS, 1)][[100, 390]] = np.inf
            return arrays._replace(c0=c0)

        monkeypatch.setattr(DriverTable, "array", tampered)
        settle_off(monkeypatch, kind, [((PLUS, 1), 390, j, np.inf)])
        node = 390 if kind == "binomial" else 0  # the last node of step 390
        with pytest.raises(ProblemError, match=rf"^push not finite at step 390, node {node}: \(minus,1\) is inf;"):
            solve_system(problem, backend)

    def test_complementarity_failure_names_the_largest_term(self):
        problem = load_problem(Path(__file__).resolve().parents[1] / "bench/problems/switching_lattice.json")
        backend = bin_backend(100, problem.horizon)
        solution, _ = solve_system(problem, backend)
        obstacles = whole_block_contacts(solution)[0]
        k, j = 50, 20  # the profit in mode 1 sits 0.1 above its floor here
        z, dk = solution.z, solution.dk
        dk[0, 0, backend.offsets[k] + j] += 1.0
        with pytest.raises(SchemeError, match=rf"for \(plus,1\); largest term 0.1 at step {k}, node {j}$"):
            _assert_system_constraints(ReferenceSolution(problem, backend, solution.y, z, dk), obstacles)


class TestStepKernelPinned:
    """The backward pass against the written-out loop it replaced (``pinned_pass``)."""

    CASES = [
        ("problems/counterexample.json", "deterministic", 2000),
        ("bench/problems/switching_lattice.json", "binomial", 100),
        ("bench/problems/switching_lattice.json", "binomial", 400),
        ("problems/smoke_lattice.json", "binomial", 100),
    ]

    @staticmethod
    def case(path, kind, n):
        problem = load_problem(Path(__file__).resolve().parents[1] / path)
        return problem, Lattice(kind, n, problem.horizon)

    @pytest.mark.parametrize("path, kind, n", CASES)
    def test_solve_equals_pinned_pass_bit_for_bit(self, path, kind, n):
        assert_matches_pinned(*self.case(path, kind, n))

    @pytest.mark.parametrize("path, kind, n", CASES)
    def test_push_is_the_certificates_euler_gap(self, path, kind, n):
        assert_certificate_premise(*self.case(path, kind, n))

    @pytest.mark.parametrize("path, kind, n", CASES[:2])
    def test_solve_builds_one_driver_table(self, path, kind, n, monkeypatch, tmp_path):
        # the validator, the backward pass and its check, and every reader of the record read one tabulation,
        # in ``solve_system`` and in the whole ``solve`` and ``simulate`` commands
        built, build = [], SwitchingProblem.tabulate
        monkeypatch.setattr(SwitchingProblem, "tabulate", lambda *args: built.append(args) or build(*args))
        solve_system(*self.case(path, kind, n))
        assert len(built) == 1
        problem_file = Path(__file__).resolve().parents[1] / path
        for command in ("solve", "simulate"):
            built.clear()
            args = ["--problem", str(problem_file), "--backend", kind, "--steps", str(n), "--out", str(tmp_path)]
            assert main([command, *args]) == 0
            assert len(built) == 1, command


def creep_problem(b):
    """The creep problem of ``test_cli.py::test_nonconvergence_exits_two``:
    zero profit, cost rate 10, free termination; each projection round lifts
    the cost by about b, so a step takes about 0.1 / b rounds."""
    drivers = {(side, mode): (10.0 if side == MINUS else 0.0, 0.0, 0.0) for side, mode in COMPONENTS}
    return build_problem(drivers=drivers, ell=0.05, a=0.0, b=b)


# Special floats at which a max or min rule can differ from numpy's.
SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324]


class TestWidthOnePass:
    """The width-1 pass in Python floats against the numpy pass."""

    @pytest.mark.parametrize("size", [1, 2, 4, 17])
    @pytest.mark.parametrize("name, ufunc, weak", [
        ("_max", np.maximum, lambda a, b: a if a >= b or a != a else b),
        ("_min", np.minimum, lambda a, b: a if a <= b or a != a else b),
    ])  # fmt: skip
    def test_float_max_and_min_are_numpys_bit_for_bit(self, name, ufunc, weak, size):
        pairs = list(itertools.product(SPECIAL, repeat=2))
        pairs += pairs[: -len(pairs) % size]  # whole arrays of ``size`` pairs
        wanted = b"".join(ufunc(*np.array(pairs[i : i + size]).T).tobytes() for i in range(0, len(pairs), size))
        assert np.array([getattr(scheme, name)(a, b) for a, b in pairs]).tobytes() == wanted
        # the grid tells the rule from its weak form, which keeps ``a`` on a tie
        assert np.array([weak(a, b) for a, b in pairs]).tobytes() != wanted

    def test_rounds_loop_equals_pinned_pass_on_a_multi_round_problem(self):
        problem, backend = creep_problem(1e-3), det_backend(100)
        assert_matches_pinned(problem, backend)
        assert 50 <= solve_system(problem, backend)[1].local_sweeps.max() <= scheme.LOCAL_SWEEP_CAP

    @pytest.mark.parametrize("terminal, n", [(1e308, 1), (-1e308, 1), (-0.0, 4), (5e-324, 4)])
    def test_pass_equals_the_numpy_pass_at_the_edges_of_float64(self, terminal, n, monkeypatch):
        # at 1e308, y + y overflows: E_k[Y_{k+1}] is inf, where Y_{k+1} + c1 Y_{k+1} dt
        # would be 1.25e308 (c1 = 1, as 0 * inf is nan; dt = 0.25); both passes refuse
        # that Y by one message, and without their fixed-point check return the same bits
        drivers = {key: (0.0, 1.0, 0.0) for key in COMPONENTS}
        problem = build_problem(horizon=0.25, drivers=drivers, terminals=terminal)
        backend = det_backend(n, 0.25)

        def width_one():
            rounds, tables = np.zeros(n, dtype=int), (rows.array() for rows in problem.tabulate(backend.float_times))
            with np.errstate(over="ignore", invalid="ignore"):  # as in ``solve_system``
                y = scheme._width_one_pass(*tables, problem.terminal_block(backend.state(n)), backend, rounds)
                derived = BalanceSheetSolution(problem, backend, y)
                return (y, derived.z, derived.dk), rounds

        if abs(terminal) == 1e308:
            with pytest.raises(ProblemError, match=r"^value not finite at step 0, node 0: ") as refused:
                width_one()
            with pytest.raises(ProblemError) as projected:
                numpy_pass(problem, backend)
            assert str(projected.value) == str(refused.value)
            monkeypatch.setattr(scheme, "_require_fixed_point", lambda *args: None)
        (blocks, rounds), (numpy_blocks, numpy_rounds) = width_one(), numpy_pass(problem, backend)
        for field, block, pinned in zip(("y", "z", "dk"), blocks, numpy_blocks):
            assert block.tobytes() == pinned.tobytes(), field
        np.testing.assert_array_equal(rounds, numpy_rounds)

    @pytest.mark.parametrize("problem, n, error, checked", [
        (creep_problem(1e-4), 100, LocalSweepError, None),
        (build_problem(drivers={key: (0.0, 999.0, 0.0) for key in COMPONENTS}, terminals=1.0), 2000, ProblemError,
         "value not finite at step 264, node 0: (plus,1) is inf; the data overflows float64"),
    ], ids=["creep", "overflow"])  # fmt: skip
    def test_a_step_that_does_not_settle_raises_the_projections_error(self, problem, n, error, checked, monkeypatch):
        # the width-1 pass checks its Y once, after its last step, so past an overflow it runs on to the step
        # whose NaN Euler value does not settle, as the numpy pass does without its check; with its check, the
        # numpy pass refuses the first value that is not finite, one step nearer the horizon
        if checked:
            with pytest.raises(ProblemError) as refused:
                numpy_pass(problem, det_backend(n))
            assert str(refused.value) == checked
        with monkeypatch.context() as unchecked:
            unchecked.setattr(scheme, "_require_fixed_point", lambda *args: None)
            with pytest.raises(error) as projected:
                numpy_pass(problem, det_backend(n))
        with pytest.raises(error) as solved:
            solve_system(problem, det_backend(n))
        assert str(solved.value) == str(projected.value)


def half_sweeps(ytilde, costs, cap=500):
    """The projection as alternating Jacobi half sweeps, written out: both
    cost values start at the least of min(y~-, y~+ + b) over the modes, the
    profit values at y~+; then Y- = min(y~-, S-(Y)) and Y+ = max(y~+, S+(Y))
    in turn until two half sweeps in a row change no node. Returns the
    block and the sweep count, or None past ``cap`` sweeps."""
    low = np.minimum(ytilde[1], ytilde[0] + costs.b)
    y = np.stack([ytilde[0], np.broadcast_to(np.minimum(low[0], low[1]), ytilde[1].shape)])
    quiet = 0
    for half in range(2 * cap):
        if half % 2 == 0:
            new = np.minimum(ytilde[1], np.minimum(y[1][::-1] + costs.ell, y[0] + costs.b))
        else:
            new = np.maximum(ytilde[0], np.maximum(y[0][::-1] - costs.ell, y[1] - costs.a))
        changed = new != y[1 - half % 2]
        y[1 - half % 2] = new
        if changed.any():
            quiet = 0
        elif (quiet := quiet + 1) == 2:
            return y, half // 2 + 1
    return None


SPECIAL = (0.0, -0.0, 0.5, -0.5, 1.0)  # ties across entries, and both zeros


def entries(shape, values):
    return st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
        lambda v: np.array(v).reshape(shape)
    )


@st.composite
def projection_steps(draw):
    """A block of Euler values on 1..3 nodes and per-node costs by mode, with
    b below a, equal to it, slightly above it, or well above it."""
    m = draw(st.integers(1, 3))
    values = st.one_of(st.sampled_from(SPECIAL), st.floats(-1.0, 1.0))
    ytilde = draw(entries((2, 2, m), values))
    ell = draw(entries((2, m), st.one_of(st.sampled_from((0.5, 1.0)), st.floats(0.01, 1.0))))
    a = draw(entries((2, m), st.one_of(st.sampled_from((0.0, -0.0, 0.5)), st.floats(0.0, 1.0))))
    above = st.one_of(st.just(0.0), st.floats(-1.0, -1e-3), st.floats(2e-3, 2e-2), st.floats(0.05, 0.5))
    return ytilde, CostSlice(ell, a, a + draw(entries((2, m), above)))


class TestProjection:
    """``_project`` (rounds of exact side closures) against the Jacobi half
    sweeps it replaced: the same block, in no more rounds than sweeps."""

    @given(projection_steps())
    def test_closures_equal_half_sweeps(self, step):
        ytilde, costs = step
        swept = half_sweeps(ytilde, costs)
        assume(swept is not None)
        rounds = np.zeros(1, dtype=int)
        y = scheme._project(ytilde, costs, 0, rounds)
        # Equal values are equal bits, up to the sign of a zero: the sweeps
        # leave that to their path (their last block can hold a cost -0.0
        # next to a profit value built from the +0.0 before it).
        np.testing.assert_array_equal(y, swept[0])
        assert 1 <= rounds[0] <= swept[1]

    def test_fixture_takes_one_round_per_step(self):
        _, trace = solve_system(counterexample_problem(), det_backend(2000))
        assert (trace.local_sweeps == 1).all()

    def test_creep_names_step_node_and_component(self):
        # only node 2 has b > a: its terminate loop lifts both profit values
        # by 1e-6 a round on the way to the cost Euler value 0.1
        ytilde = np.array([[[0.0] * 3] * 2, [[0.1] * 3] * 2])
        b = np.array([[0.0, 0.0, 1e-6]] * 2)
        costs = CostSlice(np.full((2, 3), 0.05), np.zeros((2, 3)), b)
        with pytest.raises(LocalSweepError, match=r"^did not converge at step 7, node 2: \(plus,1\) still moves by 1e-06$"):
            scheme._project(ytilde, costs, 7, np.zeros(8, dtype=int))


# The refusal of a T = 1 problem on a T = 2 lattice.
OTHER_HORIZON = r"^the lattice's horizon 2\.0 is not the problem's horizon 1\.0$"


class TestSolutionRecord:
    @pytest.mark.parametrize("kind", ["deterministic", "binomial"])
    def test_a_solve_on_another_horizon_fails_validation(self, kind):
        # the T = 1 fixture on a T = 2 lattice passes every other check and
        # would solve to root (plus, 1) = 7.352, where its own lattice gives 2.715
        problem, backend = counterexample_problem(1.0), Lattice(kind, 400, 2.0)
        with pytest.raises(SchemeError, match=r"^assumption validation failed: T lattice horizon$") as refused:
            solve_system(problem, backend)
        failures = refused.value.report.failures()
        assert [c.name for c in failures] == ["T lattice horizon"]
        assert failures[0].detail == "lattice horizon 2.0, problem horizon 1.0"

    def test_a_record_on_another_horizon_is_refused(self):
        problem, backend = counterexample_problem(1.0), det_backend(100, 2.0)
        with pytest.raises(ValueError, match=OTHER_HORIZON):
            BalanceSheetSolution(problem, backend, np.zeros((2, 2, backend.size)))
        solution, _ = solve_system(problem, det_backend(100))
        with pytest.raises(ValueError, match=OTHER_HORIZON):
            replace(solution, backend=backend)

    @pytest.mark.parametrize("record, fields", [
        (BalanceSheetSolution, ("y",)),
        (SampledFamily, ("y", "trapezoid")),
        (ReferenceSolution, ("y", "own_z", "own_dk")),
    ], ids=["solution", "sampled-family", "picard-reference"])  # fmt: skip
    def test_blocks_that_do_not_fit_the_lattice_are_refused(self, record, fields):
        # an N = 200 block on an N = 100 lattice would otherwise reach its readers and fail in numpy broadcasting
        problem, backend = counterexample_problem(), det_backend(100)
        for field in fields:
            blocks = {name: np.zeros((2, 2, backend.size)) for name in fields}
            blocks[field] = solve_system(problem, det_backend(200))[0].y
            message = rf"^{field} is shaped \(2, 2, 201\), but its lattice needs \(2, 2, 101\)$"
            with pytest.raises(ValueError, match=message):
                record(problem, backend, **blocks)

    def test_a_solve_peaks_near_its_y_block(self):
        # the pass writes Y into one buffer, keeps no Z or Y~ block, checks each step's block as it settles
        # it and builds the driver rates per step: 1.03x Y, where keeping Z, dK and a node-sized driver
        # table peaked at 9.5x, and reading Y again by step chunks after the pass at 1.8x
        problem = load_problem(Path(__file__).resolve().parents[1] / "bench/problems/switching_lattice.json")
        backend = bin_backend(1000, problem.horizon)
        tracemalloc.start()
        try:
            solution, _ = solve_system(problem, backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * solution.y.nbytes
        assert [name for name, value in vars(solution).items() if isinstance(value, np.ndarray)] == ["y"]

    def test_whole_z_and_dk_are_filled_by_step_chunks(self):
        # one output block, filled chunk by chunk with the bits of one ``increments`` call over the whole
        # range; that call holds E, the Euler value, Z and dK of every node at once and peaked at 6.75x Y
        problem = load_problem(Path(__file__).resolve().parents[1] / "bench/problems/switching_lattice.json")
        backend = bin_backend(1000, problem.horizon)
        solution, _ = solve_system(problem, backend)
        derived = {}
        for name in ("z", "dk"):
            tracemalloc.start()
            try:
                derived[name] = getattr(solution, name)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * solution.y.nbytes, name
        _, _, z, dk = solution.increments(0, backend.n_steps + 1)
        assert derived["z"].tobytes() == z.tobytes() and derived["dk"].tobytes() == dk.tobytes()

    @pytest.mark.parametrize("path, kind, n", [
        ("problems/counterexample.json", "deterministic", 400),
        ("bench/problems/switching_lattice.json", "binomial", 400),
    ])  # fmt: skip
    def test_a_solve_keeps_y_alone(self, path, kind, n):
        # Z and dK are derived on read; the record holds no other lattice-sized array
        problem = load_problem(Path(__file__).resolve().parents[1] / path)
        solution, _ = solve_system(problem, Lattice(kind, n, problem.horizon))
        assert type(solution)._fields == ("problem", "backend", "y")
        assert [name for name, value in vars(solution).items() if isinstance(value, np.ndarray)] == ["y"]

    def test_the_lattice_keeps_no_array_through_solve_replay_and_audit(self):
        # the readers compute the node data of each step chunk from the offsets; Y is the one node-sized array
        problem = load_problem(Path(__file__).resolve().parents[1] / "bench/problems/switching_lattice.json")
        backend = bin_backend(400, problem.horizon)
        solution, _ = solve_system(problem, backend)
        reports = [simulate_policy(solution, mode) for mode in (1, 2)]
        assert any(leg.stop_step > 0 for report in reports for leg in report.legs.values())  # a leg leaves its root
        assert audit_solution(solution).passed
        assert not [name for name, value in vars(backend).items() if isinstance(value, np.ndarray)]
