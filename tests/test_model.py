import math
import re
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from modeswitch.grid import Lattice
from modeswitch.io import load_problem
from modeswitch.model import (
    COMPONENTS,
    MINUS,
    MODES,
    PLUS,
    SIDES,
    _PUSH,
    CoefficientFunction,
    CostSlice,
    Driver,
    ProblemError,
    Record,
    Terminal,
    barrier_of,
    branches,
    by_side,
    evaluate_obstacles,
    mode_obstacles,
    replace,
    validate_assumptions,
)
from modeswitch.scheme import solve_system
from modeswitch.strategy import simulate_policy
from modeswitch.verify import ClosedFormFamily, audit_solution, check_nonuniqueness

from conftest import bin_backend, build_problem, det_backend, driver_rate, remark_problem
from picard_reference import derivative, tabulate

ROOT = Path(__file__).resolve().parents[1]


def block(y):
    """The (side, mode, ...) block of a mapping from component to value."""
    return np.array([[y[(side, mode)] for mode in MODES] for side in SIDES])


def keyed(values):
    """A (side, mode, ...) block as a mapping from component to its row."""
    return dict(zip(COMPONENTS, values.reshape(4, *values.shape[2:])))


# Times of the catalog's bit tests: a lattice's, and the points where an exponential overflows.
BIT_TIMES = [*Lattice("deterministic", 997, 7.0).float_times, 0.0, 1e-300, 3.5e2, 7e2, 1e300]


class TestCoefficientFunction:
    """The catalog evaluates a list of times in Python floats, one call per coefficient."""

    def test_constant(self):
        f = CoefficientFunction.constant(2.5)
        assert f([0.0, 1.7]) == [2.5, 2.5] and f([]) == []
        assert derivative(f, 0.3) == 0.0

    def test_exponential(self):
        f = CoefficientFunction.exponential(1.0, -4.0)
        assert f([0.0, 1.0]) == [1.0, pytest.approx(np.exp(-4.0))]
        assert derivative(f, 0.5) == pytest.approx(-4.0 * np.exp(-2.0))

    def test_polynomial(self):
        f = CoefficientFunction.polynomial([1.0, 2.0, 3.0])
        assert f([2.0]) == [1 + 4 + 12]
        assert derivative(f, 2.0) == pytest.approx(2 + 12)

    def test_vectorized_evaluation(self):
        f = CoefficientFunction.exponential(2.0, 1.0)
        t = np.linspace(0, 1, 5)
        np.testing.assert_allclose(f(t.tolist()), 2.0 * np.exp(t))

    @pytest.mark.parametrize("params", [(0.3,), (-1.5, 2.0), (1.0, -2.0, 0.5, 1e-3), (-0.0, 1e308), (1e308, 1e308)])
    def test_polynomial_is_polyvals_bits(self, params):
        values = CoefficientFunction.polynomial(params)(BIT_TIMES)
        assert all(type(v) is float for v in values)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array(values).tobytes() == np.polynomial.polynomial.polyval(BIT_TIMES, params).tobytes()

    @pytest.mark.parametrize("c", [2.5, -0.0, 0.0, -1e308, float("inf"), float("nan")])
    def test_constant_is_c_times_ones_bits(self, c):
        values = CoefficientFunction.constant(c)(BIT_TIMES)
        assert np.array(values).tobytes() == (c * np.ones(len(BIT_TIMES))).tobytes()

    @pytest.mark.parametrize("c, gamma", [(1.0, -4.0), (-2.0, 0.4), (3.0, 800.0), (-3.0, 800.0), (0.0, 800.0)])
    def test_exponential_is_c_times_libm_exp(self, c, gamma):
        values = CoefficientFunction.exponential(c, gamma)(BIT_TIMES)
        for t, value in zip(BIT_TIMES, values):
            if gamma * t > 709.8:  # past float64: inf times c, as numpy reads an overflow
                expected = c * float("inf")
            else:
                expected = c * math.exp(gamma * t)
            assert type(value) is float and np.array(value).tobytes() == np.array(expected).tobytes(), t
        if gamma == 800.0:  # the overflow gives inf of c's sign, and nan for c = 0
            assert values[-1] == c * float("inf") or (c == 0.0 and math.isnan(values[-1]))

    def test_missing_ito_data(self):
        f = CoefficientFunction.constant(1.0, has_ito_data=False)
        assert f([0.0]) == [1.0]
        with pytest.raises(ProblemError):
            derivative(f, 0.0)

    def test_bad_kind_rejected(self):
        with pytest.raises(ProblemError):
            CoefficientFunction("sinusoid", (1.0,))


class TestDriver:
    def test_affine_evaluation(self):
        d = Driver(1, PLUS, CoefficientFunction.constant(0.5), c1=2.0, c2=-1.0)
        assert driver_rate(d, 0.0, 0.0, 3.0, 1.0) == pytest.approx(0.5 + 6.0 - 1.0)
        assert d.lipschitz == 3.0

    def test_state_feature(self):
        d = Driver(1, PLUS, CoefficientFunction.constant(2.0), state_feature="x")
        x = np.array([0.0, 1.5])
        np.testing.assert_allclose(driver_rate(d, 0.0, x, 0.0, 0.0), [0.0, 3.0])

    @pytest.mark.parametrize("n", [100, 400, 2000, 4000])
    @pytest.mark.parametrize(
        "c0",
        [CoefficientFunction.exponential(0.7, -1.3), CoefficientFunction.polynomial((0.2, -1.1, 0.4))],
    )
    def test_tabulated_rate_equals_the_call_bit_for_bit(self, n, c0):
        # the backward pass reads c0 through DriverTable.rate, from one table
        # on the grid times, with the bits of c0 called at each time alone, on
        # one scalar; the state-scaled rows on the binomial lattice at small n
        lattice = Lattice("binomial" if n <= 400 else "deterministic", n, 1.0)
        features, c1, c2 = dict(zip(COMPONENTS, ("x", "one", "x", "one"))), 0.3, -0.2
        drivers = {(side, mode): Driver(mode, side, c0, c1, c2, features[(side, mode)]) for side, mode in COMPONENTS}
        table = build_problem(drivers=drivers).tabulate(lattice.float_times)[0].array()
        y, z = np.random.default_rng(11).normal(size=(2, 2, 2, lattice.size))
        for k, t in enumerate(lattice.times.tolist()):
            here, x = slice(lattice.offsets[k], lattice.offsets[k + 1]), lattice.state(k)
            rate = table.rate(slice(k, k + 1), x, y[..., here], z[..., here])
            for key, index in zip(COMPONENTS, np.ndindex(2, 2)):
                base = c0([t])[0] * x if features[key] == "x" else c0([t])[0]
                expected = base + c1 * y[index][here] + c2 * z[index][here]
                assert rate[index].tobytes() == expected.tobytes(), (k, key)

    @pytest.mark.parametrize("kind", ["deterministic", "binomial"])
    def test_stacked_rate_equals_each_tabulated_rate_bit_for_bit(self, kind):
        # one table for the four drivers: mixed state features, c2 != 0
        c0s = (
            CoefficientFunction.exponential(0.7, -1.3),
            CoefficientFunction.polynomial((0.2, -1.1, 0.4)),
            CoefficientFunction.constant(0.5),
            CoefficientFunction.exponential(-2.0, 0.4),
        )
        features = ("x", "one", "one", "x")
        drivers = {
            (side, mode): Driver(mode, side, c0, c1=0.3 - 0.2 * i, c2=0.25 * (i - 1.5), state_feature=features[i])
            for i, ((side, mode), c0) in enumerate(zip(COMPONENTS, c0s))
        }
        problem = build_problem(drivers=drivers)
        lattice = Lattice(kind, 50, 1.0)
        table = problem.tabulate(lattice.float_times)[0].array()
        y, z = np.random.default_rng(3).normal(size=(2, 2, 2, lattice.size))
        for k in range(51):
            here = slice(lattice.offsets[k], lattice.offsets[k + 1])
            stacked = table.rate(slice(k, k + 1), lattice.state(k), y[..., here], z[..., here])
            for (side, mode), index in zip(COMPONENTS, np.ndindex(2, 2)):
                rate = tabulate(drivers[(side, mode)], lattice.times)
                one = rate(k, lattice.state(k), y[index][here], z[index][here])
                assert stacked[index].tobytes() == one.tobytes(), (k, side, mode)

    def test_bad_mode(self):
        with pytest.raises(ProblemError):
            Driver(3, PLUS, CoefficientFunction.constant(0.0))


class TestEvaluateObstacles:
    def test_direct_evaluation(self):
        y = {(PLUS, 1): 0.0, (PLUS, 2): 3.0, (MINUS, 1): 2.5, (MINUS, 2): 0.0}
        costs = CostSlice(ell=(1.0, 1.0), a=(0.0, 0.0), b=(0.0, 0.0))
        quad = keyed(evaluate_obstacles(block(y), costs)[0])
        assert quad[(PLUS, 1)] == pytest.approx(max(3.0 - 1.0, 2.5))

    def test_symmetric_zero_case(self):
        y = {key: 0.0 for key in COMPONENTS}
        costs = CostSlice(ell=(1.0, 1.0), a=(0.0, 0.0), b=(0.0, 0.0))
        quad = keyed(evaluate_obstacles(block(y), costs)[0])
        assert quad[(PLUS, 1)] == 0.0 and quad[(PLUS, 2)] == 0.0
        assert quad[(MINUS, 1)] == 0.0 and quad[(MINUS, 2)] == 0.0

    def test_fixture_family_geometry_at_zero(self):
        # T = 1 closed-form values at t = 0: the profit barrier of mode 1
        # binds through the termination branch.
        e = np.e
        y_plus_2 = e + (1.0 - np.exp(-3.0)) / 3.0
        y = {(PLUS, 1): e, (PLUS, 2): y_plus_2, (MINUS, 1): e, (MINUS, 2): y_plus_2}
        costs = CostSlice(ell=(1.0, 1.0), a=(0.0, 0.0), b=(0.0, 0.0))
        quad = keyed(evaluate_obstacles(block(y), costs)[0])
        assert y_plus_2 - 1.0 == pytest.approx(2.0350, abs=1e-4)
        assert quad[(PLUS, 1)] == pytest.approx(e)

    def test_monotone_in_inputs(self):
        rng = np.random.default_rng(11)
        costs = CostSlice(ell=(0.5, 0.8), a=(0.2, 0.1), b=(0.3, 0.4))
        for _ in range(200):
            y = {key: float(rng.uniform(-2, 2)) for key in COMPONENTS}
            base = keyed(evaluate_obstacles(block(y), costs)[0])
            bump_key = list(COMPONENTS)[rng.integers(0, 4)]
            bumped = dict(y)
            bumped[bump_key] = bumped[bump_key] + float(rng.uniform(0, 1))
            res = keyed(evaluate_obstacles(block(bumped), costs)[0])
            for side, mode in COMPONENTS:
                assert res[(side, mode)] >= base[(side, mode)] - 1e-15

    def test_array_inputs(self):
        y = {key: np.array([0.0, 1.0]) for key in COMPONENTS}
        # node arrays: the costs' mode axis comes first, the nodes broadcast
        costs = CostSlice(ell=np.ones((2, 1)), a=np.zeros((2, 1)), b=np.zeros((2, 1)))
        quad = keyed(evaluate_obstacles(block(y), costs)[0])
        np.testing.assert_allclose(quad[(PLUS, 1)], [0.0, 1.0])


class TestBarrierAlgebra:
    Y = {(PLUS, 1): 1.0, (PLUS, 2): 3.0, (MINUS, 1): 2.5, (MINUS, 2): 0.5}
    COSTS = CostSlice(ell=(1.0, 0.25), a=(0.5, 0.0), b=(0.125, 2.0))

    def test_branches(self):
        # switch: the other mode's value -/+ ell_i; terminate: own other side -a_i / +b_i;
        # read as (switch, terminate) of each mode, in mode order
        y = block(self.Y)
        by_mode = lambda side: tuple(zip(*branches(y, y[:, ::-1], self.COSTS, side)))  # noqa: E731
        assert by_mode(PLUS) == ((3.0 - 1.0, 2.5 - 0.5), (1.0 - 0.25, 0.5 - 0.0))
        assert by_mode(MINUS) == ((0.5 + 1.0, 1.0 + 0.125), (2.5 + 0.25, 3.0 + 2.0))

    def test_barrier_is_the_better_branch(self):
        plus, minus = evaluate_obstacles(block(self.Y), self.COSTS)[0]
        assert tuple(plus) == (2.0, 0.75)  # a floor: the larger
        assert tuple(minus) == (1.125, 2.75)  # a cap: the smaller
        # the block's rows are the components in COMPONENTS order
        assert list(COMPONENTS) == [(side, mode) for side in SIDES for mode in MODES]
        assert evaluate_obstacles(block(self.Y), self.COSTS)[0].reshape(4).tolist() == [2.0, 0.75, 1.125, 2.75]

    @pytest.mark.parametrize("mode", MODES)
    def test_one_modes_rows_are_the_blocks_rows_bit_for_bit(self, mode):
        # on random node blocks with ties, signed zeros and per-node costs: the
        # replay's rows of one mode against the whole block's
        rng = np.random.default_rng(mode)
        y = rng.choice([0.0, -0.0, 0.5, 1.0, rng.normal()], size=(2, 2, 64))
        costs = CostSlice(*rng.choice([0.0, 0.5, 0.25], size=(3, 2, 64)))
        barrier, switches = evaluate_obstacles(y, costs)
        rows = mode_obstacles(y, costs, mode)
        assert rows[0].tobytes() == barrier[:, mode - 1].tobytes()
        assert rows[1].tobytes() == switches[:, mode - 1].tobytes()

    @pytest.mark.parametrize("kind", ["deterministic", "binomial"])
    def test_side_rows_join_with_the_bits_of_np_stack(self, kind):
        # by_side and the obstacle blocks join their two side rows with np.array, which is faster than np.stack
        # on small rows: the same bits and dtypes, on a solved lattice's blocks with signed zeros and NaN put in
        problem = load_problem(ROOT / "bench/problems/switching_lattice.json")
        solution, _ = solve_system(problem, Lattice(kind, 20, problem.horizon))
        nodes, steps, _, _ = solution.backend.nodes(0, 20)
        y, costs = solution.y[..., nodes].copy(), solution.tables[1].at(steps)
        y.reshape(-1)[::5], y.reshape(-1)[2::7], y.reshape(-1)[3::11] = 0.0, -0.0, np.nan
        other = np.roll(y, 1, axis=-1)
        rows = barrier_of(y, costs)
        switch_rows = [b == branches(y, y[:, ::-1], costs, side)[0] for b, side in zip(rows, SIDES)]
        by_name = {name: [getattr(_PUSH[side], name)(y[s], other[s]) for s, side in enumerate(SIDES)]
                   for name in ("better", "inside")}
        pairs = [*zip(evaluate_obstacles(y, costs), (rows, switch_rows)),
                 *((by_side(name, y, other), joined) for name, joined in by_name.items())]
        for joined, side_rows in pairs:
            stacked = np.stack(side_rows)
            assert (joined.dtype, joined.shape, joined.tobytes()) == (stacked.dtype, stacked.shape, stacked.tobytes())
        assert [joined.dtype for joined, _ in pairs] == [np.float64, np.bool_, np.float64, np.float64]
        better = pairs[2][0]
        assert np.isnan(pairs[0][0]).any() and np.isnan(better).any() and (np.signbit(better) & (better == 0)).any()

    def test_other_mode_is_a_reversed_view(self):
        y = block(self.Y)
        switch, _ = branches(y, y[:, ::-1], CostSlice(ell=np.zeros(2), a=np.zeros(2), b=np.zeros(2)), PLUS)
        assert switch.tolist() == [3.0, 1.0] and np.shares_memory(y[0, ::-1], y)

    @pytest.mark.parametrize("y,barrier", [(1.0, 1.0), (0.0, 0.0), (-0.0, 0.0), (0.1, 0.3), (1e300, -1e300)])
    def test_gap_has_the_bits_of_the_side_difference(self, y, barrier):
        pairs = ((_PUSH[PLUS].inside(y, barrier), y - barrier), (_PUSH[MINUS].inside(y, barrier), barrier - y))
        for gap, expected in pairs:
            assert gap == expected and np.signbit(gap) == np.signbit(expected)

    def test_gap_is_positive_inside(self):
        assert _PUSH[PLUS].inside(2.0, 1.0) > 0 > _PUSH[PLUS].inside(1.0, 2.0)
        assert _PUSH[MINUS].inside(1.0, 2.0) > 0 > _PUSH[MINUS].inside(2.0, 1.0)

    def test_ties_switch(self):
        # a stop switches where the barrier, the better branch, is the switch
        # branch: with zero costs, mode 1 of a side switches to the other mode
        # of its side, or terminates to mode 1 of the other side
        def switch_binds(side, switch, terminate):
            s, switch = SIDES.index(side), np.asarray(switch, dtype=float)
            y = np.zeros((2, 2, *switch.shape))
            y[s, 1], y[1 - s, 0] = switch, terminate
            zero = np.zeros((2, *(1,) * switch.ndim))
            return evaluate_obstacles(y, CostSlice(ell=zero, a=zero, b=zero))[1][s, 0]

        for side in (PLUS, MINUS):
            assert switch_binds(side, 1.0, 1.0)
            assert switch_binds(side, np.array([0.0, 2.0]), np.array([-0.0, 2.0])).all()
        assert switch_binds(PLUS, 2.0, 1.0) and not switch_binds(PLUS, 1.0, 2.0)
        assert switch_binds(MINUS, 1.0, 2.0) and not switch_binds(MINUS, 2.0, 1.0)


class TestValidateAssumptions:
    def test_validation_builds_no_lattice_array(self):
        # O(N) floats on a new lattice: at N = 2000 its node arrays (2 001 000 nodes) would take 76 MiB
        problem = load_problem(ROOT / "bench/problems/switching_lattice.json")
        lattice = Lattice("binomial", 2000, problem.horizon)
        tracemalloc.start()
        try:
            report = validate_assumptions(problem, lattice)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_passed, report.lines()
        assert peak <= 2 * 2**20
        assert not [name for name, value in vars(lattice).items() if isinstance(value, np.ndarray)]

    @pytest.mark.parametrize("horizon", [0.5, 1.0, 2.0])
    def test_feasibility_example_passes(self, horizon):
        problem = remark_problem(horizon)
        report = validate_assumptions(problem, Lattice("deterministic", 64, horizon))
        assert report.all_passed, report.lines()

    def test_broken_terminal_inequality(self):
        problem = build_problem(
            terminals={
                (PLUS, 1): 0.0,
                (PLUS, 2): 10.0,
                (MINUS, 1): 0.0,
                (MINUS, 2): 0.0,
            }
        )
        report = validate_assumptions(problem, Lattice("deterministic", 16, 1.0))
        failed = {c.name for c in report.failures()}
        assert failed == {"BC terminal xi_plus_1"}
        # the binding bound is (10 - 1) v (0 - 0) = 9, far above xi_plus_1 = 0
        bad = report.failures()[0]
        assert bad.value == pytest.approx(0.0 - 9.0)

    def test_zero_switching_cost_fails_everywhere(self):
        problem = build_problem(ell=0.0)
        report = validate_assumptions(problem, Lattice("deterministic", 16, 1.0))
        failed = [c for c in report.failures() if c.name.startswith("A2 switching cost")]
        assert len(failed) == 2
        assert failed[0].at_time == 0.0

    def test_missing_ito_data_for_b(self):
        problem = build_problem(b=(CoefficientFunction.constant(0.0, has_ito_data=False),
                                   CoefficientFunction.constant(0.0)))
        report = validate_assumptions(problem, Lattice("deterministic", 16, 1.0))
        failed = {c.name for c in report.failures()}
        assert failed == {"A4 Ito data for b_1"}

    def test_report_lines_render(self):
        report = validate_assumptions(remark_problem(1.0), Lattice("deterministic", 8, 1.0))
        lines = report.lines()
        assert any("A1" in line for line in lines)
        assert all(line.startswith("[pass]") for line in lines)

    def test_terminal_inequality_names_first_failing_node(self):
        # xi_plus_1 = x clears max(xi_plus_2 - ell, xi_minus_1 - a) = max(-1, -0.5)
        # only for x >= -0.5; the binomial nodes at step 4 (dt = 1/16) sit at
        # x = 1, 0.5, 0, -0.5, -1
        terminals = {(PLUS, 1): Terminal(0.0, 1.0), (PLUS, 2): 0.0, (MINUS, 1): 0.0, (MINUS, 2): 0.0}
        problem = build_problem(horizon=0.25, ell=1.0, a=0.5, b=2.0, terminals=terminals)
        report = validate_assumptions(problem, bin_backend(4, horizon=0.25))
        (bad,) = report.failures()
        assert bad.name == "BC terminal xi_plus_1"
        assert bad.detail == "margin -0.5 at node 4"
        assert bad.value == pytest.approx(-0.5)
        assert validate_assumptions(problem, Lattice("deterministic", 4, 0.25)).all_passed

    def test_comparison_condition(self):
        drivers = {(PLUS, 2): (0.0, -1.0, 2.0)}
        problem = build_problem(drivers=drivers)
        # |c2| sqrt(dt) <= 1 + c1 dt: 2 * 0.5 > 1 - 0.25 at N = 4; 2 / 3 <= 1 - 1 / 9 at N = 9.
        # At N = 4 the step is also too coarse: dt (|c1| + |c2|) = 0.75 >= 1/2.
        failed = {c.name for c in validate_assumptions(problem, bin_backend(4)).failures()}
        assert failed == {"A5 comparison psi_plus_2", "A6 step size psi_plus_2"}
        assert validate_assumptions(problem, bin_backend(9)).all_passed
        # no Z on the width-1 lattice: only 1 + c1 dt >= 0 is needed. With c1 = 0, c2 = 4
        # at N = 10, 4 sqrt(0.1) > 1 fails on the binomial lattice, and dt * 4 = 0.4 < 1/2
        problem = build_problem(drivers={(PLUS, 2): (0.0, 0.0, 4.0)})
        failed = {c.name for c in validate_assumptions(problem, bin_backend(10)).failures()}
        assert failed == {"A5 comparison psi_plus_2"}
        assert validate_assumptions(problem, det_backend(10)).all_passed
        assert solve_system(problem, det_backend(10))[1].converged

    def test_step_size(self):
        # the guard of the backward pass: dt (|c1| + |c2|) < 1/2
        problem = build_problem(drivers={(MINUS, 1): (0.0, -60.0, 0.0)})
        (bad,) = validate_assumptions(problem, det_backend(100)).failures()
        assert bad.name == "A6 step size psi_minus_1" and "too coarse" in bad.detail
        assert bad.value == pytest.approx(0.6)
        assert validate_assumptions(problem, det_backend(121)).all_passed

    def test_horizon_must_be_positive_and_finite(self):
        for horizon in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ProblemError, match="'horizon'"):
                build_problem(horizon=horizon)

    @pytest.mark.parametrize("horizon", [True, np.True_])
    def test_a_bool_horizon_is_refused(self, horizon):
        # a problem file's JSON true is refused by the reader; a record built in code refuses it too, numpy's included
        with pytest.raises(ProblemError, match=rf"^'horizon' must be positive and finite, got {horizon!r}$"):
            replace(build_problem(), horizon=horizon)

    def test_driver_filed_under_another_component_is_refused(self):
        # the solver reads a driver by its key alone, so a mismatch would solve silently
        wrong = Driver(2, MINUS, CoefficientFunction.constant(0.0))
        message = r"the driver filed under component \('plus', 1\) is the driver of \('minus', 2\)"
        with pytest.raises(ProblemError, match=message):
            build_problem(drivers={(PLUS, 1): wrong})


def dropped(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


ZERO = CoefficientFunction.constant(0.0)


class TestConstructorRefusals:
    """Each rule on problem data has one home, the constructor; its message
    names the field, and ``io`` adds the field's place in a file."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: CoefficientFunction("constant", (1.0, 2.0)), "constant coefficient takes one parameter"),
            (lambda: CoefficientFunction("polynomial", ()), "polynomial coefficient needs coefficients"),
            (lambda: Driver(True, PLUS, ZERO), "mode must be the integer 1 or 2"),
            (lambda: Driver(1.0, PLUS, ZERO), "mode must be the integer 1 or 2"),
            (lambda: Driver(1, "+", ZERO), "side must be 'plus' or 'minus'"),
            (lambda: Driver(1, PLUS, ZERO, state_feature=True), "state_feature must be one of 'one', 'x'"),
            (lambda: Driver(1, PLUS, ZERO, state_feature="y"), "state_feature must be one of 'one', 'x'"),
            (
                lambda: replace(build_problem(), drivers=dropped(build_problem().drivers, (MINUS, 2))),
                "missing driver for component ('minus', 2)",
            ),
            (
                lambda: replace(build_problem(), terminals=dropped(build_problem().terminals, (PLUS, 1))),
                "missing terminal for component ('plus', 1)",
            ),
            (lambda: replace(build_problem(), a=(ZERO,)), "cost family 'a' needs one entry per mode"),
        ],
        ids=[
            "constant-two-params",
            "polynomial-no-params",
            "mode-true",
            "mode-float",
            "side-spelling",
            "feature-true",
            "feature-unknown",
            "missing-driver",
            "missing-terminal",
            "short-cost-family",
        ],
    )
    def test_refusal_names_the_field(self, make, message):
        with pytest.raises(ProblemError, match=f"^{re.escape(message)}$"):
            make()


@lru_cache(maxsize=None)
def one_of_each() -> dict:
    """One instance of every record type of the package, by type name."""
    problem, backend = build_problem(), det_backend(100)
    report = validate_assumptions(problem, backend)
    solution, trace = solve_system(problem, backend)
    strategy = simulate_policy(solution, 1)
    fixtures = check_nonuniqueness(1.0, 100)
    family = fixtures.report_family_1
    records = [ZERO, problem.driver(PLUS, 1), problem.terminal(PLUS, 1), problem, report.checks[0]]
    records += [report, trace, solution, strategy.leg(PLUS), strategy, ClosedFormFamily(1, 1.0)]
    records += [family.components[(PLUS, 1)], family, fixtures]
    return {type(rec).__name__: rec for rec in records}


RECORDS = [
    "CoefficientFunction", "Driver", "Terminal", "SwitchingProblem", "CheckResult", "ValidationReport",
    "PassTrace", "BalanceSheetSolution", "LegReport", "StrategyReport",
    "ClosedFormFamily", "ComponentResiduals", "ResidualReport", "NonUniquenessReport",
]  # fmt: skip


def same_tree(got, want) -> bool:
    """``got`` has the keys of ``want`` in its order, its types, its strings
    and ints, and its floats to 12 digits (a platform's libm may move the last bits)."""
    if isinstance(want, dict):
        return type(got) is dict and list(got) == list(want) and all(same_tree(got[k], want[k]) for k in want)
    if isinstance(want, float):
        return type(got) is float and got == pytest.approx(want, rel=1e-12, abs=1e-15)
    return type(got) is type(want) and got == want


class TestRecords:
    """Every record is a ``Record``: bound by position or keyword, frozen, and
    equal by value within its type; ``replace`` runs a record's checks again."""

    def test_the_list_is_every_record_of_the_package(self):
        assert set(one_of_each()) == set(RECORDS)
        assert {cls.__name__ for cls in Record.__subclasses__() if cls.__module__.startswith("modeswitch.")} == set(RECORDS)

    @pytest.mark.parametrize("name", RECORDS)
    def test_a_field_can_be_neither_set_nor_deleted(self, name):
        rec = one_of_each()[name]
        assert type(rec)._fields
        for key in (*type(rec)._fields, "unknown"):
            before = vars(rec).get(key)
            with pytest.raises(AttributeError, match=f"^{name} is frozen: cannot set '{key}'$"):
                setattr(rec, key, None)
            with pytest.raises(AttributeError, match=f"^{name} is frozen: cannot delete '{key}'$"):
                delattr(rec, key)
            assert vars(rec).get(key) is before

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (
                lambda: replace(ClosedFormFamily(1, 1.0), family_id=3),
                ValueError,
                "family_id must be the integer 1 or 2, got 3",
            ),
            (lambda: replace(Driver(1, PLUS, ZERO), side="up"), ProblemError, "side must be 'plus' or 'minus'"),
            (
                lambda: replace(build_problem(), drivers=dropped(build_problem().drivers, (PLUS, 1))),
                ProblemError,
                "missing driver for component ('plus', 1)",
            ),
            (
                lambda: replace(one_of_each()["BalanceSheetSolution"], y=np.zeros((2, 2, 100))),
                ValueError,
                "y is shaped (2, 2, 100), but its lattice needs (2, 2, 101)",
            ),
        ],
        ids=["family-id", "driver-side", "problem-dropped-driver", "solution-misshaped-y"],
    )
    def test_replace_runs_the_checks_again(self, make, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()

    def test_replace_changes_only_what_it_names(self):
        driver = Driver(1, PLUS, ZERO, c1=0.5)
        assert replace(driver) == driver and replace(driver) is not driver
        assert vars(replace(driver, c2=0.25)) == {**vars(driver), "c2": 0.25}

    def test_the_constructor_binds_by_position_or_keyword(self):
        family = ClosedFormFamily(1, 2.0)
        assert ClosedFormFamily(horizon=2.0, family_id=1) == family == ClosedFormFamily(1, horizon=2.0)
        assert Driver(2, MINUS, ZERO, c2=0.5) == Driver(2, MINUS, ZERO, 0.0, 0.5, "one")
        assert vars(Terminal(1.5)) == {"intercept": 1.5, "slope": 0.0}

    def test_a_validation_report_is_built_once_and_holds_a_tuple(self):
        first, second = (validate_assumptions(build_problem(), det_backend(10)) for _ in range(2))
        assert type(first.checks) is tuple and first.checks
        assert hash(first) == hash(second)
        assert first == second and first is not second

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ClosedFormFamily(1),
            lambda: ClosedFormFamily(horizon=1.0),
            lambda: ClosedFormFamily(1, 1.0, 2),
            lambda: ClosedFormFamily(1, 1.0, dt=0.1),
            lambda: ClosedFormFamily(1, horizn=1.0),
            lambda: ClosedFormFamily(1, 1.0, family_id=1),
            lambda: Terminal(1.0, intercept=2.0),
        ],
        ids=["missing", "missing-first", "too-many", "unknown", "misspelt", "repeated", "repeated-with-default"],
    )
    def test_a_missing_unknown_or_repeated_argument_is_refused(self, make):
        with pytest.raises(TypeError, match=r"\(\) takes .+, each once unless it has a default$"):
            make()

    def test_equality_is_by_value_within_one_type(self):
        class Shifted(Terminal):
            pass

        assert Terminal(1.0) == Terminal(1.0, 0.0) and hash(Terminal(1.0)) == hash(Terminal(1.0, 0.0))
        assert Terminal(1.0) != Terminal(1.0, 0.5)
        assert Shifted(1.0) != Terminal(1.0) and Terminal(1.0) != Shifted(1.0) and Shifted(1.0) == Shifted(1.0)
        assert Terminal(1.0) != (1.0, 0.0) and Terminal(1.0) != {"intercept": 1.0, "slope": 0.0}
        assert repr(Terminal(1.0)) == "Terminal(intercept=1.0, slope=0.0)"

    def test_as_dict_of_a_strategy_report(self):
        problem = load_problem(ROOT / "bench/problems/switching_lattice.json")
        solution, _ = solve_system(problem, bin_backend(100, problem.horizon))
        want = {
            "start_mode": 1,
            "legs": {
                "plus": {
                    "side": "plus",
                    "mode": 1,
                    "stop_step": 39.6876444972448,
                    "action": "mixed",
                    "realized": 0.6151887803865669,
                    "value_gap": 3.3306690738754696e-16,
                    "std_error": 0.0,
                    "p_switch": 0.7532108977895347,
                    "p_terminate": 0.0,
                    "p_hold": 0.24678910221046543,
                },
                "minus": {
                    "side": "minus",
                    "mode": 1,
                    "stop_step": 0.0,
                    "action": "switch",
                    "realized": 0.3817382407843879,
                    "value_gap": 0.0,
                    "std_error": 0.0,
                    "p_switch": 1.0,
                    "p_terminate": 0.0,
                    "p_hold": 0.0,
                },
            },
        }
        assert same_tree(simulate_policy(solution, 1).as_dict(), want)

    def test_as_dict_of_residuals(self):
        report = audit_solution(ClosedFormFamily(1, 1.0).sample(det_backend(100)))
        steps = [2.253942584969082e-05, 0.019801946754011146, 2.253942584969082e-05, 0.019801946754012187]
        densities = [0.0, 0.0, 2.7047581504041536, 3.0150432657414865]
        for key, step, density in zip(COMPONENTS, steps, densities):
            want = {
                "max_step_residual": step,
                "max_constraint_violation": 0.0,
                "skorokhod_sum": 0.0,
                "k_sign_violation": 0.0,
                "max_k_density": density,
                "terminal_mismatch": 0.0,
            }
            assert same_tree(report.components[key].as_dict(), want), key
