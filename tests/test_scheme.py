from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from modeswitch import rbsde, scheme
from modeswitch.grid import FieldSurface, TimeGrid, make_backend
from modeswitch.io import load_problem
from modeswitch.model import (
    COMPONENTS,
    MINUS,
    PLUS,
    CoefficientFunction,
    CostSlice,
    Driver,
    ProblemError,
    SwitchingProblem,
    Terminal,
    validate_assumptions,
)
from modeswitch.scheme import LocalSweepError, SchemeError, solve_system, system_obstacles
from modeswitch.verify import closed_form_family, counterexample_problem

from conftest import (
    assert_certificate_premise, assert_matches_pinned, bin_backend, build_problem, det_backend, random_affine_driver,
    surface,
)
from picard_reference import (
    Component, Iterate, _assert_system_constraints, first_iterate, initialize_scheme, iterate_once, picard_system
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
        exact = np.exp(1.0 - be.grid.times)
        err = max(
            abs(float(start.y_plus0[1].y.at(k)[0]) - exact[k]) for k in range(513)
        )
        assert err <= 2.0 * be.grid.dt

    def test_zero_problem_all_zero(self, zero_problem):
        start = initialize_scheme(zero_problem, det_backend(64))
        for mode in (1, 2):
            assert np.max(np.abs(start.y_plus0[mode].y.data)) == 0.0
        assert np.max(np.abs(start.dot_y.data)) == 0.0
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
                assert np.all(start.dot_y.at(k) <= start.big_l[mode].at(k) + 1e-10)

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
            assert np.max(np.abs(it1.sol[key].y.data)) == 0.0
            assert np.max(np.abs(it1.sol[key].dk.data)) == 0.0

    def test_counterexample_orderings(self):
        problem = counterexample_problem(1.0)
        be = det_backend(256)
        start = initialize_scheme(problem, be)
        it1 = first_iterate(start, problem, be)
        for mode in (1, 2):
            for k in range(257):
                assert np.all(
                    it1.sol[(PLUS, mode)].y.at(k) >= start.y_plus0[mode].y.at(k) - 1e-10
                )
                assert np.all(it1.sol[(MINUS, mode)].y.at(k) >= start.dot_y.at(k) - 1e-10)


class TestIterateOnce:
    def test_zero_problem_immediate_fixed_point(self, zero_problem):
        be = det_backend(64)
        start = initialize_scheme(zero_problem, be)
        it1 = first_iterate(start, zero_problem, be)
        it2 = iterate_once(it1, zero_problem, be)
        for key in COMPONENTS:
            assert it2.sol[key].y.sup_diff(it1.sol[key].y) == 0.0

    def test_converged_iterate_is_fixed(self):
        problem = counterexample_problem(1.0)
        be = det_backend(256)
        solution, trace = solve_system(problem, be)
        assert trace.converged
        again = iterate_once(Iterate.of(solution, n=99), problem, be)
        for key in COMPONENTS:
            assert again.sol[key].y.sup_diff(surface(solution, key)) <= 1e-10

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
            doctored[key] = Component(FieldSurface(be, comp.y.data + lift), comp.z, comp.dk)
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
                max(nxt.sol[key].y.sup_diff(current.sol[key].y) for key in COMPONENTS)
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
        fam1 = closed_form_family(1, 1.0)
        times = be.grid.times
        for side, mode in COMPONENTS:
            exact = fam1.y(side, mode, times)
            for k in range(0, 2001, 100):
                assert float(surface(solution, (side, mode)).at(k)[0]) <= exact[k] + 1e-3

    def test_zero_problem_converges_in_two_sweeps(self, zero_problem):
        solution, trace = picard_system(zero_problem, det_backend(64))
        assert trace.converged and trace.iterations <= 2
        for side, mode in COMPONENTS:
            assert solution.y0(side, mode) == 0.0

    def test_terminal_values_exact(self):
        problem = counterexample_problem(1.0)
        solution, _ = solve_system(problem, det_backend(256))
        for side, mode in COMPONENTS:
            assert float(surface(solution, (side, mode)).at(256)[0]) == 1.0

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
            solution, _ = solve_system(problem, det_backend(n))
            dt = 1.0 / n
            density_1 = max(
                float(surface(solution, (MINUS, 1), "dk").at(k)[0]) / dt for k in range(n)
            )
            density_2 = max(
                float(surface(solution, (MINUS, 2), "dk").at(k)[0]) / dt for k in range(n)
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
        solution, trace = solve_system(problem, bin_backend(200))
        assert trace.converged
        assert solution.y0(PLUS, 1) == pytest.approx(np.e, abs=2e-2)
        spread = max(
            float(np.ptp(surface(solution, key).at(k)))
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
        report = audit_solution(solution, problem, be)
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
        n = backend.grid.n_steps

        start = initialize_scheme(problem, backend)
        current = first_iterate(start, problem, backend)
        for mode in (1, 2):
            for k in range(n + 1):
                assert np.all(
                    current.sol[(PLUS, mode)].y.at(k) >= start.y_plus0[mode].y.at(k) - 1e-10
                )
                assert np.all(current.sol[(MINUS, mode)].y.at(k) >= start.dot_y.at(k) - 1e-10)

        delta = np.inf
        for _ in range(300):
            nxt = iterate_once(current, problem, backend)  # raises on any decrease
            delta = max(nxt.sol[key].y.sup_diff(current.sol[key].y) for key in COMPONENTS)
            current = nxt
            if delta < 1e-6:
                break
        assert delta < 1e-6

        obstacles = system_obstacles(problem, current.stacked("y"), backend).reshape(4, -1)
        slack = 10 * delta + 1e-10
        for (side, mode), barrier in zip(COMPONENTS, obstacles):
            comp, barrier = current.sol[(side, mode)], FieldSurface(backend, barrier)
            xi = problem.terminal(side, mode)(backend.state(n))
            np.testing.assert_array_equal(comp.y.at(n), np.asarray(xi, dtype=float))
            for k in range(n + 1):
                gap = comp.y.at(k) - barrier.at(k) if side == PLUS else barrier.at(k) - comp.y.at(k)
                assert float(np.min(gap)) >= -slack
                assert float(np.min(comp.dk.at(k))) >= 0.0


class TestWidthOneCase:
    """The deterministic backend is the width-1 lattice: on state-free data
    every binomial node carries the deterministic value of its step, bit for
    bit, after the same number of Picard sweeps and of local sweeps."""

    @staticmethod
    def assert_width_one(det, lat):
        for key in COMPONENTS:
            for field in ("y", "z", "dk"):
                width_one, lattice = surface(det, key, field), surface(lat, key, field)
                for k in range(41):
                    np.testing.assert_array_equal(lattice.at(k), np.full(k + 1, width_one.at(k)[0]))

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
        backend = make_backend(kind, TimeGrid(n, problem.horizon))
        solution, trace = solve_system(problem, backend)
        assert trace.converged and trace.local_sweeps.max() <= 2
        again = iterate_once(Iterate.of(solution, n=1), problem, backend)
        for key in COMPONENTS:
            assert again.sol[key].y.sup_diff(surface(solution, key)) == 0.0

    def test_solver_refuses_a_solution_that_a_sweep_moves(self, monkeypatch):
        one_pass = scheme.backward_pass

        def nudged(*args):
            sol = one_pass(*args)
            sol.y[0, 0, 0] += 1e-12
            return sol

        monkeypatch.setattr(scheme, "backward_pass", nudged)
        with pytest.raises(SchemeError, match=r"one Picard sweep would move \(plus,1\) at step 0, node 0 by"):
            solve_system(counterexample_problem(), det_backend(200))

    @pytest.mark.parametrize(
        "path, kind, n",
        [
            ("problems/counterexample.json", "deterministic", 200),
            ("bench/problems/switching_lattice.json", "binomial", 100),
        ],
    )
    def test_solve_runs_one_backward_pass_and_no_sweep(self, path, kind, n, monkeypatch):
        assert not hasattr(scheme, "iterate_once")
        calls = {}
        for module, name in ((scheme, "backward_pass"), (rbsde, "backward_pass")):
            label, real = f"{module.__name__}.{name}", getattr(module, name)
            calls[label] = 0

            def counted(*args, _label=label, _real=real):
                calls[_label] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        problem = load_problem(Path(__file__).resolve().parents[1] / path)
        solve_system(problem, make_backend(kind, TimeGrid(n, problem.horizon)))
        assert calls == {
            "modeswitch.scheme.backward_pass": 1,
            "modeswitch.rbsde.backward_pass": 0,
        }

    def test_complementarity_failure_names_the_largest_term(self):
        problem = load_problem(Path(__file__).resolve().parents[1] / "bench/problems/switching_lattice.json")
        backend = bin_backend(100, problem.horizon)
        solution, _ = solve_system(problem, backend)
        obstacles = solution.obstacles()
        k, j = 50, 20  # the profit in mode 1 sits 0.1 above its floor here
        solution.dk[0, 0, backend.offsets[k] + j] += 1.0
        with pytest.raises(SchemeError, match=rf"for \(plus,1\); largest term 0.1 at step {k}, node {j}$"):
            _assert_system_constraints(solution, obstacles)


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
        return problem, make_backend(kind, TimeGrid(n, problem.horizon))

    @pytest.mark.parametrize("path, kind, n", CASES)
    def test_solve_equals_pinned_pass_bit_for_bit(self, path, kind, n):
        assert_matches_pinned(*self.case(path, kind, n))

    @pytest.mark.parametrize("path, kind, n", CASES)
    def test_push_is_the_certificates_euler_gap(self, path, kind, n):
        assert_certificate_premise(*self.case(path, kind, n))


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
