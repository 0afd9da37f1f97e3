from itertools import product

import numpy as np
import pytest

from modeswitch.grid import FieldSurface
from modeswitch.model import COMPONENTS, MINUS, PLUS, CoefficientFunction, Driver, Terminal, row
from modeswitch.rbsde import backward_pass
from modeswitch.strategy import first_stop, flat_path, stop_mask

from conftest import bin_backend, build_problem, det_backend, driver_rate, random_affine_driver
from picard_reference import reflect


def brute_force_optimal_stopping(payoff: FieldSurface, depth: int) -> float:
    """Max of E[U_tau] over every adapted stopping rule on the depth-``depth``
    lattice, by enumerating all stop-set assignments on interior nodes."""
    ids = {}
    nid = 0
    for k in range(depth):
        for j in range(k + 1):
            ids[(k, j)] = nid
            nid += 1
    rules = np.arange(2**nid, dtype=np.int64)
    total = np.zeros(len(rules))
    paths = list(product([0, 1], repeat=depth))
    for moves in paths:
        stopped = np.zeros(len(rules), dtype=bool)
        acc = np.zeros(len(rules))
        j = 0
        for k in range(depth):
            stop_here = ((rules >> ids[(k, j)]) & 1).astype(bool) & ~stopped
            acc[stop_here] = payoff.at(k)[j]
            stopped |= stop_here
            j += moves[k]
        acc[~stopped] = payoff.at(depth)[j]
        total += acc
    return float(total.max()) / len(paths)


def snell_envelope(payoff: FieldSurface):
    """The smallest supermartingale dominating a payoff, from the production
    solver (lower reflection, zero driver, the payoff as barrier and horizon
    value), and its stop mask: where the envelope equals the payoff, and N."""
    be = payoff.backend
    zero = Driver(1, PLUS, CoefficientFunction.constant(0.0))
    env = reflect(zero, payoff.at(be.grid.n_steps), payoff.data, be).y
    return env, stop_mask(env.data, payoff.data, be)


def stop_step(stops, backend, from_step: int = 0, path=None) -> int:
    """First step at or after ``from_step`` where a stop mask holds along a path."""
    return from_step + int(first_stop(stops, flat_path(backend, from_step, path)))


def first_stop_rule_value(payoff: FieldSurface, stops, depth: int) -> float:
    total = 0.0
    for moves in product([0, 1], repeat=depth):
        path = np.concatenate(([0], np.cumsum(moves)))
        tau = stop_step(stops, payoff.backend, 0, path)
        total += payoff.at(tau)[path[tau]]
    return total / 2**depth


def negated_driver(drv: Driver) -> Driver:
    """psi-check(t, y, z) = -psi(t, -y, -z); for the affine catalog this flips c0."""
    params = tuple(-p for p in drv.c0.params)
    if drv.c0.kind == "exponential":
        params = (-drv.c0.params[0], drv.c0.params[1])
    c0 = CoefficientFunction(drv.c0.kind, params, drv.c0.has_ito_data)
    return Driver(drv.mode, drv.side, c0, c1=drv.c1, c2=drv.c2)


def random_lower_instance(rng, backend):
    drv = random_affine_driver(rng)
    xi = float(rng.uniform(-1, 1))
    n = backend.grid.n_steps
    vals = [rng.uniform(-1.5, 0.5, backend.n_nodes(k)) for k in range(n + 1)]
    vals[n] = np.full(backend.n_nodes(n), xi - float(rng.uniform(0.1, 1.0)))
    return drv, xi, FieldSurface(backend, np.concatenate(vals))


class TestSolveBsde:
    @pytest.mark.parametrize("make", [lambda: det_backend(16, 2.0), lambda: bin_backend(16, 2.0)])
    def test_unit_rate_constant_terminal(self, make):
        be = make()
        drv = Driver(1, PLUS, CoefficientFunction.constant(1.0))
        sol = reflect(drv, 3.0, None, be)
        for k in range(17):
            np.testing.assert_allclose(sol.y.at(k), 3.0 + (2.0 - be.grid.times[k]), atol=1e-12)
        assert np.max(np.abs(sol.z.data)) <= 1e-12

    def test_linear_rate_matches_exponential_with_first_order_error(self):
        drv = Driver(1, PLUS, CoefficientFunction.constant(0.0), c1=1.0)
        errors = {}
        for n in (128, 256, 512):
            be = det_backend(n)
            y = reflect(drv, 1.0, None, be).y
            exact = np.exp(1.0 - be.grid.times)
            errors[n] = max(abs(float(y.at(k)[0]) - exact[k]) for k in range(n + 1))
            assert errors[n] <= 2.0 * be.grid.dt
        assert errors[256] / errors[128] == pytest.approx(0.5, abs=0.1)
        assert errors[512] / errors[256] == pytest.approx(0.5, abs=0.1)

    def test_martingale_preserved(self):
        be = bin_backend(12)
        drv = Driver(1, PLUS, CoefficientFunction.constant(0.0))
        sol = reflect(drv, be.state(12), None, be)
        for k in range(13):
            np.testing.assert_allclose(sol.y.at(k), be.state(k), atol=1e-12)
        for k in range(12):
            np.testing.assert_allclose(sol.z.at(k), np.ones(k + 1), atol=1e-12)


class TestSolveRbsdeLower:
    def test_sentinel_matches_plain_bsde(self):
        be = det_backend(32)
        drv = Driver(1, PLUS, CoefficientFunction.constant(0.3), c1=0.5)
        y_plain = reflect(drv, 1.0, None, be).y
        sentinel = np.full(be.size, -np.inf)
        sol = reflect(drv, 1.0, sentinel, be)
        assert sol.y.sup_diff(y_plain) == 0.0
        assert np.max(np.abs(sol.dk.data)) == 0.0

    def test_touching_without_push(self):
        be = det_backend(16)
        drv = Driver(1, PLUS, CoefficientFunction.constant(0.0))
        sol = reflect(drv, 0.0, np.zeros(be.size), be)
        assert np.max(np.abs(sol.y.data)) == 0.0
        assert np.max(np.abs(sol.dk.data)) == 0.0

    def test_linear_ramp_hand_computed(self):
        # N = 4, zero driver, zero terminal, barrier 1 - t/T: the solution
        # rides the barrier and each step pushes by exactly dt/T.
        T = 2.0
        be = det_backend(4, T)
        drv = Driver(1, PLUS, CoefficientFunction.constant(0.0))
        barrier = 1.0 - be.node_times / T
        sol = reflect(drv, 0.0, barrier, be)
        for k in range(4):
            assert float(sol.y.at(k)[0]) == pytest.approx(1.0 - be.grid.times[k] / T, abs=1e-15)
            assert float(sol.dk.at(k)[0]) == pytest.approx(be.grid.dt / T, abs=1e-15)
        assert float(sol.y.at(4)[0]) == 0.0

    def test_complementarity_exact(self):
        rng = np.random.default_rng(3)
        for backend in (det_backend(64), bin_backend(24)):
            drv, xi, barrier = random_lower_instance(rng, backend)
            sol = reflect(drv, xi, barrier.data, backend)
            total = 0.0
            for k in range(backend.grid.n_steps + 1):
                gap = sol.y.at(k) - barrier.at(k)
                assert np.all(gap >= -1e-12)
                assert np.all(sol.dk.at(k) >= 0.0)
                total += float(np.max(gap * sol.dk.at(k)))
            assert total <= 1e-10


class TestSolveRbsdeUpper:
    def test_sentinel_matches_plain_bsde(self):
        be = bin_backend(16)
        drv = Driver(1, MINUS, CoefficientFunction.constant(-0.2), c1=0.4, c2=0.3)
        y_plain = reflect(drv, 1.0, None, be).y
        sol = reflect(drv, 1.0, np.full(be.size, np.inf), be, lower=False)
        assert sol.y.sup_diff(y_plain) == 0.0
        assert np.max(np.abs(sol.dk.data)) == 0.0

    def test_exponential_barrier_reflection_density(self):
        # driver 2y with unit terminal, barrier e^{T-t}: the solution rides the
        # barrier and the push per unit time approaches the barrier itself.
        T = 1.0
        be = det_backend(512, T)
        drv = Driver(1, MINUS, CoefficientFunction.constant(0.0), c1=2.0)
        sol = reflect(drv, 1.0, np.exp(T - be.node_times), be, lower=False)
        dt = be.grid.dt
        for k in range(0, 512, 50):
            assert float(sol.y.at(k)[0]) == pytest.approx(np.exp(T - be.grid.times[k]), abs=1e-12)
            density = float(sol.dk.at(k)[0]) / dt
            assert density == pytest.approx(np.exp(T - be.grid.times[k]), abs=3 * np.e * dt)

    def test_duality_with_lower_solver(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            backend = bin_backend(12) if rng.integers(0, 2) else det_backend(24)
            drv = random_affine_driver(rng)
            xi = float(rng.uniform(-1, 1))
            n = backend.grid.n_steps
            vals = [rng.uniform(-0.5, 1.5, backend.n_nodes(k)) for k in range(n + 1)]
            vals[n] = np.full(backend.n_nodes(n), xi + float(rng.uniform(0.1, 1.0)))
            barrier = np.concatenate(vals)
            up = reflect(drv, xi, barrier, backend, lower=False)
            low = reflect(negated_driver(drv), -xi, -barrier, backend)
            for k in range(n + 1):
                np.testing.assert_allclose(up.y.at(k), -low.y.at(k), atol=1e-12)
                np.testing.assert_allclose(up.dk.at(k), low.dk.at(k), atol=1e-12)


class TestComparison:
    def test_raising_data_never_lowers_solution(self):
        rng = np.random.default_rng(29)
        for _ in range(12):
            backend = bin_backend(16) if rng.integers(0, 2) else det_backend(32)
            drv, xi, barrier = random_lower_instance(rng, backend)
            base = reflect(drv, xi, barrier.data, backend)
            bump = float(rng.uniform(0.0, 0.5))

            up_xi = reflect(drv, xi + bump, barrier.data, backend)
            bumped = Driver(drv.mode, drv.side, CoefficientFunction.constant(bump))
            up_psi = reflect(_SumDriver(drv, bumped), xi, barrier.data, backend)
            n = backend.grid.n_steps
            lifted_vals = [barrier.at(k) + bump for k in range(n + 1)]
            lifted_vals[n] = np.minimum(barrier.at(n) + bump, xi)
            up_s = reflect(drv, xi, np.concatenate(lifted_vals), backend)

            for k in range(n + 1):
                assert np.all(up_xi.y.at(k) >= base.y.at(k) - 1e-12)
                assert np.all(up_psi.y.at(k) >= base.y.at(k) - 1e-12)
                assert np.all(up_s.y.at(k) >= base.y.at(k) - 1e-12)


class _SumDriver:
    def __init__(self, first, second):
        self.first, self.second = first, second

    def tabulate(self, times):
        first, second = self.first.tabulate(times), self.second.tabulate(times)
        return lambda k, x, y, z: first(k, x, y, z) + second(k, x, y, z)


class TestAprioriBound:
    def test_energy_stable_under_refinement(self):
        T = 1.0
        drv = Driver(1, MINUS, CoefficientFunction.constant(0.1), c1=2.0)
        energies = {}
        for n in (256, 512):
            be = det_backend(n, T)
            sol = reflect(drv, 1.0, np.exp(T - be.node_times), be, lower=False)
            z_energy = sum(float(np.mean(sol.z.at(k) ** 2)) * be.grid.dt for k in range(n))
            energies[n] = np.max(np.abs(sol.y.data)) ** 2 + z_energy + sol.dk.data.sum() ** 2
        ratio = energies[512] / energies[256]
        assert 1 / 1.5 <= ratio <= 1.5


class TestSnellEnvelope:
    def test_nonincreasing_payoff_stops_immediately(self):
        be = det_backend(10)
        payoff = FieldSurface(be, 2.0 - be.node_times)
        env, stops = snell_envelope(payoff)
        assert env.sup_diff(payoff) <= 1e-12
        for k in range(11):
            assert stop_step(stops, be, k) == k

    def test_terminal_spike_waits_to_the_end(self):
        be = det_backend(6)
        vals = [np.zeros(1) for _ in range(6)] + [np.ones(1)]
        payoff = FieldSurface(be, np.concatenate(vals))
        env, stops = snell_envelope(payoff)
        for k in range(7):
            assert float(env.at(k)[0]) == 1.0
        assert stop_step(stops, be, 0) == 6

    def test_depth_four_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(101)
        be = bin_backend(4)
        for _ in range(25):
            payoff = FieldSurface(be, np.concatenate([rng.choice([-1.0, 0.0, 1.0], size=k + 1) for k in range(5)]))
            env, stops = snell_envelope(payoff)
            best = brute_force_optimal_stopping(payoff, 4)
            assert float(env.at(0)[0]) == pytest.approx(best, abs=1e-12)
            assert first_stop_rule_value(payoff, stops, 4) == pytest.approx(best, abs=1e-12)

    def test_dominates_and_supermartingale(self):
        rng = np.random.default_rng(55)
        be = bin_backend(12)
        payoff = FieldSurface(be, np.concatenate([rng.uniform(-1, 1, k + 1) for k in range(13)]))
        env, _ = snell_envelope(payoff)
        for k in range(13):
            assert np.all(env.at(k) >= payoff.at(k) - 1e-12)
        for k in range(12):
            cont = be.moments(env.at(k + 1), k)[0]
            assert np.all(cont <= env.at(k) + 1e-12)
            strictly_above = env.at(k) > payoff.at(k) + 1e-10
            np.testing.assert_allclose(env.at(k)[strictly_above], cont[strictly_above], atol=1e-12)

    def test_lattice_first_contact_needs_path(self):
        be = bin_backend(4)
        vals = [np.zeros(k + 1) for k in range(4)] + [np.ones(5)]
        _, stops = snell_envelope(FieldSurface(be, np.concatenate(vals)))
        with pytest.raises(ValueError, match="path"):
            stop_step(stops, be, 0)
        assert stop_step(stops, be, 0, path=np.zeros(5, dtype=int)) == 4


class TestPathwiseRepresentation:
    def test_lattice_children_recovered_from_value_and_integrand(self):
        # the projection makes (E, Z) the exact two-point representation of
        # the next step: up child = E + Z*sqrt(dt), down child = E - Z*sqrt(dt),
        # so the backward identity holds pathwise, not just on average
        rng = np.random.default_rng(88)
        be = bin_backend(16)
        drv, xi, barrier = random_lower_instance(rng, be)
        sol = reflect(drv, xi, barrier.data, be)
        dt = be.grid.dt
        sq = np.sqrt(dt)
        times = be.grid.times
        for k in range(16):
            nxt = sol.y.at(k + 1)
            e = be.moments(nxt, k)[0]
            z = sol.z.at(k)
            np.testing.assert_allclose(e + z * sq, nxt[:-1], atol=1e-12)
            np.testing.assert_allclose(e - z * sq, nxt[1:], atol=1e-12)
            psi = driver_rate(drv, times[k], be.state(k), e, z)
            np.testing.assert_allclose(
                sol.y.at(k), e + psi * dt + sol.dk.at(k), atol=1e-12
            )


class TestBlockPass:
    @pytest.mark.parametrize("backend", [det_backend(40), bin_backend(40)])
    def test_unreflected_block_pass_equals_four_single_solves(self, backend):
        rng = np.random.default_rng(5)
        drivers = {(side, mode): random_affine_driver(rng, mode, side, max_slope=0.4) for side, mode in COMPONENTS}
        terminals = {key: Terminal(*rng.uniform(-1, 1, size=2)) for key in COMPONENTS}
        problem = build_problem(drivers=drivers, terminals=terminals)
        keep = lambda ytilde, k: ytilde  # noqa: E731
        x_T = backend.state(backend.grid.n_steps)
        rate, terminal = problem.driver_table(backend).per_step(backend), problem.terminal_block(x_T)
        block = backward_pass(rate, terminal, keep, backend)
        for key in COMPONENTS:
            single = reflect(drivers[key], terminals[key](x_T), None, backend)
            for field in ("y", "z", "dk"):
                assert getattr(block, field)[row(*key)].tobytes() == getattr(single, field).data.tobytes(), key
        # the solution is the pass's own (side, mode, node) buffers
        assert all(field.shape == (2, 2, backend.size) and field.flags.c_contiguous for field in block)
