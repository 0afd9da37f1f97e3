import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modeswitch import strategy
from modeswitch.io import load_problem
from modeswitch.model import COMPONENTS, MINUS, PLUS, SIDES, row
from modeswitch.scheme import BalanceSheetSolution, solve_system
from modeswitch.strategy import (
    HOLD,
    SWITCH,
    TERMINATE,
    branch_table,
    classify_action,
    contact_masks,
    extract_stopping_times,
    simulate_policy,
)
from modeswitch.verify import counterexample_problem

from conftest import bin_backend, build_problem, det_backend, driver_rate, smoke_problem, surface
from picard_reference import ConvergenceTrace, picard_system

SWITCHING_LATTICE = Path(__file__).resolve().parents[1] / "bench/problems/switching_lattice.json"


@pytest.fixture(scope="module")
def fixture_solution():
    problem = counterexample_problem(1.0)
    be = det_backend(1000)
    solution, trace = solve_system(problem, be)
    assert trace.converged
    return solution


def tie_problem():
    """Both barrier branches of mode-1 profit meet at zero: terminals chosen so
    the constant solution has switch and termination branches exactly equal."""
    terminals = {(PLUS, 1): 0.0, (PLUS, 2): 1.0, (MINUS, 1): 0.0, (MINUS, 2): 1.0}
    return build_problem(ell=1.0, a=0.0, b=0.0, terminals=terminals)


def forced_termination_problem():
    """Huge switching cost, free exits: the termination branch always wins."""
    return build_problem(ell=1e3, a=0.0, b=0.0)


class TestExtractStoppingTimes:
    def test_counterexample_immediate_contact(self, fixture_solution):
        stops = extract_stopping_times(fixture_solution, 0)
        assert stops == {key: 0 for key in COMPONENTS}

    def test_zero_problem_stops_at_start(self, zero_problem):
        solution, _ = solve_system(zero_problem, det_backend(64))
        stops = extract_stopping_times(solution, 0)
        assert all(v == 0 for v in stops.values())

    def test_far_obstacles_stop_at_horizon(self, far_obstacle_problem):
        n = 64
        solution, _ = solve_system(far_obstacle_problem, det_backend(n))
        stops = extract_stopping_times(solution, 0)
        assert all(v == n for v in stops.values())

    def test_nondecreasing_in_from_step(self, fixture_solution):
        prev = extract_stopping_times(fixture_solution, 0)
        for start in (1, 5, 50, 500):
            stops = extract_stopping_times(fixture_solution, start)
            for key in COMPONENTS:
                assert stops[key] >= prev[key]
            prev = stops

    def test_lattice_requires_path(self, far_obstacle_problem):
        solution, _ = solve_system(far_obstacle_problem, bin_backend(16))
        with pytest.raises(ValueError, match="path"):
            extract_stopping_times(solution, 0)
        path = np.zeros(17, dtype=int)
        stops = extract_stopping_times(solution, 0, path=path)
        assert all(v == 16 for v in stops.values())

    def test_bad_from_step(self, fixture_solution):
        with pytest.raises(ValueError):
            extract_stopping_times(fixture_solution, -1)

    def test_from_the_horizon_stops_at_the_horizon(self, fixture_solution):
        stops = extract_stopping_times(fixture_solution, 1000)
        assert stops == {key: 1000 for key in COMPONENTS}

    def test_path_entries_must_be_nodes_of_their_step(self, far_obstacle_problem):
        solution, _ = solve_system(far_obstacle_problem, bin_backend(16))
        path = np.arange(17)  # node k at step k: the lowest node, a real path
        assert extract_stopping_times(solution, 0, path=path)[(PLUS, 1)] == 16
        path[5] = 6  # step 5 has nodes 0..5
        with pytest.raises(ValueError, match="step 5, node 6 is not on the lattice"):
            extract_stopping_times(solution, 0, path=path)
        path[5] = -1
        with pytest.raises(ValueError, match="step 5, node -1 is not on the lattice"):
            extract_stopping_times(solution, 3, path=path)
        # entries before from_step are not read
        assert extract_stopping_times(solution, 6, path=path)[(PLUS, 1)] == 16
        with pytest.raises(ValueError, match="one node per step"):
            extract_stopping_times(solution, 0, path=path[:10])

    @pytest.mark.parametrize("backend", [det_backend(16), bin_backend(16)])
    def test_masks_are_closed_at_the_horizon(self, far_obstacle_problem, backend):
        # no barrier is ever touched, so the only stops are the horizon nodes
        solution, _ = solve_system(far_obstacle_problem, backend)
        horizon = backend.offsets[16]
        for mask in contact_masks(solution)[0].reshape(4, -1):
            assert mask[horizon:].all() and not mask[:horizon].any()


class TestContactIsExact:
    def test_no_stop_strictly_inside_the_barrier(self):
        # a relative contact tolerance (1e-3 sqrt(dt) sup|Y|) used to mark one
        # node per profit component at N = 100 whose gap to the barrier was
        # 2.53e-4: paths stopped there and collected S < Y
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(100))
        obstacles = solution.obstacles()
        horizon = solution.backend.offsets[100]
        masks, _ = contact_masks(solution)
        inside = solution.y[..., :horizon] != obstacles[..., :horizon]
        for key in COMPONENTS:
            assert not (masks[row(*key)][:horizon] & inside[row(*key)]).any(), key
        assert masks[row(PLUS, 1)][:horizon].any() and masks[row(PLUS, 2)][:horizon].any()


class TestBranchTable:
    @pytest.mark.parametrize("problem, backend", [
        (load_problem(SWITCHING_LATTICE), bin_backend(40)),
        (counterexample_problem(1.0), det_backend(200)),
    ])
    def test_matches_the_written_out_branches_and_tie_rule(self, problem, backend):
        # profit in mode i switches where Y+_j - ell_i >= Y-_i - a_i, cost in
        # mode i where Y-_j + ell_i <= Y+_i + b_i (a tie switches)
        solution, _ = solve_system(problem, backend)
        costs = problem.cost_table(solution.backend.grid.times)
        at = solution.backend.step_of_node
        y = {key: solution.y[row(*key)] for key in COMPONENTS}
        _, table = branch_table(solution)
        for i, (mode, other) in enumerate(((1, 2), (2, 1))):
            ell, a, b = (c[i][at] for c in costs)
            profit = y[(PLUS, other)] - ell >= y[(MINUS, mode)] - a
            cost = y[(MINUS, other)] + ell <= y[(PLUS, mode)] + b
            np.testing.assert_array_equal(table[0, i], profit)
            np.testing.assert_array_equal(table[1, i], cost)


class TestClassifyAction:
    def test_refuses_a_node_off_its_step(self):
        # step 2 has 3 nodes on the binomial lattice: node 7 would read a node of step 4
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(20))
        for step, node in ((2, 7), (2, 3), (2, -1), (-1, 0), (21, 0)):
            with pytest.raises(ValueError, match=f"step {step}, node {node} is not on the lattice"):
                classify_action(solution, MINUS, 1, node=node, step=step)

    def test_agrees_with_the_branch_table_at_every_contact_node(self):
        # one node's branches against the whole-block evaluation
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(40))
        barrier, switches = branch_table(solution)
        contact = solution.y == barrier
        assert contact.any() and not contact.all()
        for (s, m, i), touches in np.ndenumerate(contact):
            side, mode, (step, node) = SIDES[s], m + 1, solution.backend.locate(i)
            if touches:
                expected = SWITCH if switches[s, m, i] else TERMINATE
                assert classify_action(solution, side, mode, node=node, step=step) == expected
            elif i % 7 == 0:
                with pytest.raises(ValueError, match=f"does not touch its barrier at step {step}, node {node}"):
                    classify_action(solution, side, mode, node=node, step=step)

    def test_counterexample_terminates(self, fixture_solution):
        # switch branch ~ 2.035 loses to the termination branch ~ e
        assert classify_action(fixture_solution, PLUS, 1, 0, 0) == TERMINATE

    def test_equal_branches_switch(self):
        solution, trace = solve_system(tie_problem(), det_backend(32))
        assert trace.converged
        assert classify_action(solution, PLUS, 1, 0, 0) == SWITCH

    def test_huge_switch_cost_forces_termination(self):
        solution, _ = solve_system(forced_termination_problem(), det_backend(32))
        assert classify_action(solution, PLUS, 1, 0, 0) == TERMINATE
        assert classify_action(solution, MINUS, 1, 0, 0) == TERMINATE

    def test_rejects_non_contact_point(self, far_obstacle_problem):
        solution, _ = solve_system(far_obstacle_problem, det_backend(32))
        with pytest.raises(ValueError, match="does not touch"):
            classify_action(solution, PLUS, 1, 0, 0)

    @pytest.mark.parametrize("shift", [0.0, 5.0, -3.0])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
    def test_invariant_under_common_branch_shift(self, alpha, beta, shift):
        ell, a = 2.0, 1.0
        be = det_backend(2)
        problem = build_problem(ell=ell, a=a, b=0.0)
        values = {
            (PLUS, 1): max(alpha, beta) + shift,
            (PLUS, 2): alpha + shift + ell,
            (MINUS, 1): beta + shift + a,
            (MINUS, 2): max(alpha, beta) + shift,
        }
        y = np.array([np.full(be.size, values[key]) for key in COMPONENTS]).reshape(2, 2, -1)
        solution = BalanceSheetSolution(
            problem=problem,
            backend=be,
            y=y,
            z=np.zeros_like(y),
            dk=np.zeros_like(y),
            trace=ConvergenceTrace(tol=1e-8, deltas=[0.0], converged=True),
        )
        expected = SWITCH if alpha >= beta else TERMINATE
        assert classify_action(solution, PLUS, 1, 0, 0) == expected


class TestSimulatePolicy:
    def test_counterexample_terminates_at_start(self, fixture_solution):
        report = simulate_policy(fixture_solution, n_paths=1, seed=0, start_mode=1)
        leg = report.leg(PLUS)
        assert leg.action == TERMINATE
        assert leg.stop_step == 0
        assert leg.realized == pytest.approx(np.e, abs=2e-3)
        assert leg.value_gap <= 1e-6

    def test_zero_problem_realizes_zero(self, zero_problem):
        solution, _ = solve_system(zero_problem, det_backend(64))
        report = simulate_policy(solution, n_paths=1, seed=0, start_mode=2)
        for side in (PLUS, MINUS):
            assert report.leg(side).realized == 0.0
            assert report.leg(side).value_gap == 0.0

    def test_smoke_profit_leg_hits_mc_band(self):
        problem = smoke_problem()
        be = bin_backend(50)
        solution, trace = solve_system(problem, be)
        assert trace.converged
        report = simulate_policy(solution, n_paths=20000, seed=11, start_mode=1)
        leg = report.leg(PLUS)
        assert leg.action == HOLD
        assert leg.stop_step == 50
        assert leg.value_gap <= 3 * leg.std_error

    def test_deterministic_reports_zero_std_error(self, fixture_solution):
        report = simulate_policy(fixture_solution, n_paths=4, seed=3, start_mode=1)
        assert report.leg(PLUS).std_error == 0.0

    def test_same_seed_reproduces_report(self):
        problem = smoke_problem()
        solution, _ = solve_system(problem, bin_backend(30))
        a = simulate_policy(solution, n_paths=500, seed=21, start_mode=1)
        b = simulate_policy(solution, n_paths=500, seed=21, start_mode=1)
        assert a.as_dict() == b.as_dict()

    def test_lattice_early_stopping_classifies_per_path(self):
        solution, trace = solve_system(tie_problem(), bin_backend(24))
        assert trace.converged
        report = simulate_policy(solution, n_paths=300, seed=5, start_mode=1)
        leg = report.leg(PLUS)
        assert leg.stop_step == 0.0
        assert leg.action == SWITCH
        assert leg.value_gap == 0.0

    def test_requires_converged_solution(self):
        from test_scheme import multi_sweep_problem

        solution, trace = picard_system(multi_sweep_problem(), det_backend(64), max_iter=1)
        assert not trace.converged
        with pytest.raises(ValueError, match="converged"):
            simulate_policy(solution, n_paths=1, seed=0, start_mode=1)

    def test_replay_rate_at_continuation_value(self):
        # hold to the horizon with profit rate y: the replay evaluates the rate
        # at E_k[Y_{k+1}] like the backward scheme, so the sum telescopes exactly
        drivers = {(PLUS, 1): (0.0, 1.0, 0.0)}
        problem = build_problem(drivers=drivers, ell=1e3, a=1e3, b=1e3, terminals=1.0)
        solution, trace = solve_system(problem, det_backend(256))
        assert trace.converged
        leg = simulate_policy(solution, n_paths=1, seed=0, start_mode=1).leg(PLUS)
        assert leg.action == HOLD
        assert leg.value_gap <= 1e-12

    def test_bad_start_mode(self, fixture_solution):
        with pytest.raises(ValueError):
            simulate_policy(fixture_solution, n_paths=1, seed=0, start_mode=3)

    @pytest.mark.parametrize("backend", [det_backend(20), bin_backend(20)])
    def test_zero_paths_is_refused(self, backend):
        # the width-1 lattice replays one path, so the check cannot come from drawing them
        solution, _ = solve_system(smoke_problem(), backend)
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            simulate_policy(solution, n_paths=0, seed=0, start_mode=1)


class TestStreamingReplay:
    def test_width_one_replays_one_path(self):
        # averaging 10 000 copies of the one path gave rounding noise
        # (std_error 4.4e-18, value_gap 4.4e-16)
        solution, _ = solve_system(counterexample_problem(1.0), det_backend(2000))
        report = simulate_policy(solution, n_paths=10000, seed=1, start_mode=1)
        assert report.n_paths == 10000
        for side in (PLUS, MINUS):
            assert report.leg(side).std_error == 0.0
            assert report.leg(side).value_gap == 0.0

    def test_chunk_size_does_not_change_the_report(self, monkeypatch):
        n, n_paths = 25, 30001
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(n))
        default_rows = strategy.REPLAY_CELLS // n
        assert n_paths > default_rows and n_paths % default_rows and n_paths % 7
        for mode in (1, 2):
            default = simulate_policy(solution, n_paths=n_paths, seed=2, start_mode=mode).as_dict()
            with monkeypatch.context() as patched:
                patched.setattr(strategy, "REPLAY_CELLS", 7 * n)  # 7 paths per chunk
                assert simulate_policy(solution, n_paths=n_paths, seed=2, start_mode=mode).as_dict() == default

    def test_replay_memory_does_not_grow_with_paths(self):
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(100))
        tracemalloc.start()
        try:
            simulate_policy(solution, n_paths=100_000, seed=1, start_mode=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestDynamicProgrammingConsistency:
    def test_realized_from_any_start_matches_value(self):
        # linear-rate profit, unreachable barriers: hold to the horizon from
        # every start and recover Y_t by the left-endpoint running integral
        drivers = {(PLUS, 1): (0.0, 1.0, 0.0)}
        problem = build_problem(drivers=drivers, ell=1e3, a=1e3, b=1e3, terminals=1.0)
        n = 256
        be = det_backend(n)
        solution, trace = solve_system(problem, be)
        assert trace.converged
        y, z = surface(solution, (PLUS, 1)), surface(solution, (PLUS, 1), "z")
        dt = be.grid.dt
        drv = problem.driver(PLUS, 1)
        for start in range(0, n + 1, 16):
            stops = extract_stopping_times(solution, start)
            tau = stops[(PLUS, 1)]
            assert tau == n
            running = sum(
                float(driver_rate(drv, be.grid.times[k], 0.0, y.at(k)[0], z.at(k)[0])) * dt
                for k in range(start, tau)
            )
            realized = running + float(y.at(n)[0])
            assert abs(realized - float(y.at(start)[0])) <= 10.0 * dt
