import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modeswitch import strategy
from modeswitch.grid import Lattice
from modeswitch.io import load_problem
from modeswitch.model import COMPONENTS, MINUS, PLUS, SIDES, evaluate_obstacles, row
from modeswitch.scheme import BalanceSheetSolution, solve_system
from modeswitch.strategy import (
    HOLD,
    SWITCH,
    TERMINATE,
    classify_action,
    extract_stopping_times,
    simulate_policy,
)
from modeswitch.verify import counterexample_problem

from conftest import (
    assert_law_matches_enumeration,
    assert_walk_near_law,
    at,
    bin_backend,
    build_problem,
    det_backend,
    driver_rate,
    leg_moments,
    pinned_replay,
    reference_stopping_times,
    replay_tables,
    smoke_problem,
    whole_block_contacts,
)

ROOT = Path(__file__).resolve().parents[1]
SWITCHING_LATTICE = ROOT / "bench/problems/switching_lattice.json"
SMOKE_LATTICE = ROOT / "problems/smoke_lattice.json"
COUNTEREXAMPLE = ROOT / "problems/counterexample.json"


@pytest.fixture(scope="module")
def fixture_solution():
    problem = counterexample_problem(1.0)
    be = det_backend(1000)
    solution, trace = solve_system(problem, be)
    assert trace.converged
    return solution


def given_solution(problem, backend, y):
    """A solution record with the Y block ``y``; its Z and dK are derived from it."""
    return BalanceSheetSolution(problem=problem, backend=backend, y=y)


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

    @pytest.mark.parametrize("path,named", [
        ([0, 0.9, 1.99, 2.5], "0.9"), ([0, 1, 1, 2.0], "2.0"), ([0, True, 1, 2], "True"),
        (np.array([0.0, 1.0, 1.0, 2.0]), "0.0"), (np.array([False, True, True, True]), "False"),
    ])  # fmt: skip
    def test_flat_path_refuses_a_bool_or_a_non_integer_node(self, path, named):
        # np.asarray(path, dtype=np.int64) truncated [0, 0.9, 1.99, 2.5] to the nodes of [0, 0, 1, 2]
        with pytest.raises(ValueError, match=rf"^node {re.escape(named)} is not an integer$"):
            strategy.flat_path(Lattice("binomial", 3, 1.0), 0, path)

    @pytest.mark.parametrize("from_step", [True, 0.5, 1.0, -1, 4])
    def test_flat_path_refuses_a_from_step_that_is_not_a_step(self, from_step):
        # True read from step 1, and 0.5 raised TypeError from the slice
        with pytest.raises(ValueError, match=rf"^from_step must be an integer in \[0, 3\], got {from_step!r}$"):
            strategy.flat_path(Lattice("binomial", 3, 1.0), from_step, [0, 1, 1, 2])

    def test_flat_path_takes_numpy_integers(self):
        lattice = Lattice("binomial", 3, 1.0)
        for path in ([0, 1, 1, 2], (np.int64(0), 1, np.uint8(1), 2), np.array([0, 1, 1, 2], dtype=np.int32)):
            np.testing.assert_array_equal(strategy.flat_path(lattice, np.int64(0), path), [0, 2, 4, 8])
        np.testing.assert_array_equal(strategy.flat_path(lattice, 2, np.array([9.5, True, 1, 2], dtype=object)), [4, 8])

    @pytest.mark.parametrize("path", [SWITCHING_LATTICE, SMOKE_LATTICE, COUNTEREXAMPLE])
    @pytest.mark.parametrize("kind", ["deterministic", "binomial"])
    def test_equals_the_whole_block_reference(self, path, kind):
        # random paths and start steps on each bundled problem, against the first stop read off the stop block
        problem = load_problem(path)
        backend = Lattice(kind, 60, problem.horizon)
        solution, _ = solve_system(problem, backend)
        rng = np.random.default_rng(60)
        for _ in range(40):
            walk = np.concatenate(([0], np.cumsum(rng.integers(0, 2, 60) * backend.down)))
            start = int(rng.integers(0, 61))
            assert extract_stopping_times(solution, start, walk) == reference_stopping_times(solution, start, walk)

    def test_reads_only_its_path(self):
        # the barrier at the path's N + 1 nodes, not at the lattice's 80 601
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(400))
        walk = np.concatenate(([0], np.cumsum(np.random.default_rng(4).integers(0, 2, 400))))
        tracemalloc.start()
        try:
            stops = extract_stopping_times(solution, 0, walk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stops == reference_stopping_times(solution, 0, walk)
        assert peak < 0.5 * 2**20

    @pytest.mark.parametrize("backend", [det_backend(16), bin_backend(16)])
    def test_masks_are_closed_at_the_horizon(self, far_obstacle_problem, backend):
        # no barrier is ever touched, so the only stops are the horizon nodes
        solution, _ = solve_system(far_obstacle_problem, backend)
        horizon = backend.offsets[16]
        for mask in whole_block_contacts(solution)[1].reshape(4, -1):
            assert mask[horizon:].all() and not mask[:horizon].any()


class TestContactIsExact:
    def test_no_stop_strictly_inside_the_barrier(self):
        # a relative contact tolerance (1e-3 sqrt(dt) sup|Y|) used to mark one
        # node per profit component at N = 100 whose gap to the barrier was
        # 2.53e-4: paths stopped there and collected S < Y
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(100))
        obstacles, masks, _ = whole_block_contacts(solution)
        horizon = solution.backend.offsets[100]
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
        costs = solution.tables[1]
        nodes = solution.backend.nodes(0, solution.backend.n_steps + 1)[1]
        y = {key: solution.y[row(*key)] for key in COMPONENTS}
        _, table = evaluate_obstacles(solution.y, costs.at(nodes))
        for i, (mode, other) in enumerate(((1, 2), (2, 1))):
            ell, a, b = (c[i][nodes] for c in costs)
            profit = y[(PLUS, other)] - ell >= y[(MINUS, mode)] - a
            cost = y[(MINUS, other)] + ell <= y[(PLUS, mode)] + b
            np.testing.assert_array_equal(table[0, i], profit)
            np.testing.assert_array_equal(table[1, i], cost)


class TestClassifyAction:
    def test_refuses_a_node_off_its_step(self):
        # step 2 has 3 nodes on the binomial lattice: node 7 would read a node of step 4
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(20))
        for step, node in ((2, 7), (2, 3), (2, -1), (-1, 0), (21, 0), (2**63, 0)):
            with pytest.raises(ValueError, match=f"step {step}, node {node} is not on the lattice"):
                classify_action(solution, MINUS, 1, node=node, step=step)

    def test_agrees_with_the_branch_table_at_every_contact_node(self):
        # one node's branches against the whole-block evaluation
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(40))
        steps = solution.backend.nodes(0, 41)[1]
        costs = solution.tables[1].at(steps)
        barrier, switches = evaluate_obstacles(solution.y, costs)
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

    @pytest.mark.parametrize("problem, backend", [
        (counterexample_problem(1.0), det_backend(2000)),
        (load_problem(SWITCHING_LATTICE), bin_backend(40)),
    ])
    def test_costs_of_one_time_equal_the_whole_grid_table_bit_for_bit(self, problem, backend):
        # the costs tabulated at one time alone are the column of that time in the whole-lattice table
        times = backend.float_times
        table = problem.tabulate(times)[1].array()
        for step in range(backend.n_steps + 1):
            one, column = problem.tabulate(times[step : step + 1])[1].array().at(0), table.at(step)
            for mine, theirs in zip(one, column):
                assert mine.tobytes() == theirs.tobytes(), step

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

    @pytest.mark.parametrize(
        "side, mode",
        [(PLUS, 0), (PLUS, -1), (PLUS, 3), (PLUS, 1.0), (PLUS, True), (MINUS, 2.0), ("up", 1), (None, 2)],
    )
    def test_a_pair_that_is_no_component_is_refused(self, fixture_solution, side, mode):
        # mode 0 and -1 would otherwise index the other mode from the end
        message = f"no component ({side!r}, {mode!r}): side must be 'plus' or 'minus' and mode the integer 1 or 2"
        for read in (row, fixture_solution.y0, lambda side, mode: classify_action(fixture_solution, side, mode, 0, 0)):
            with pytest.raises(ValueError) as refused:
                read(side, mode)
            assert str(refused.value) == message

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
        solution = given_solution(problem, be, y)
        expected = SWITCH if alpha >= beta else TERMINATE
        assert classify_action(solution, PLUS, 1, 0, 0) == expected


class TestSimulatePolicy:
    def test_counterexample_terminates_at_start(self, fixture_solution):
        report = simulate_policy(fixture_solution, 1)
        leg = report.leg(PLUS)
        assert leg.action == TERMINATE and leg.p_terminate == 1.0
        assert leg.stop_step == 0
        assert leg.realized == pytest.approx(np.e, abs=2e-3)
        assert leg.value_gap <= 1e-6

    def test_zero_problem_realizes_zero(self, zero_problem):
        solution, _ = solve_system(zero_problem, det_backend(64))
        report = simulate_policy(solution, 2)
        for side in (PLUS, MINUS):
            assert report.leg(side).realized == 0.0
            assert report.leg(side).value_gap == 0.0

    def test_smoke_profit_leg_hits_mc_band(self):
        # the law holds every path, and a seeded walk of 20 000 paths lands in its Chebyshev band
        problem = smoke_problem()
        be = bin_backend(50)
        solution, trace = solve_system(problem, be)
        assert trace.converged
        law, _ = assert_walk_near_law(solution, 20000, 11, 1)
        leg = law["legs"][PLUS]
        assert leg["action"] == HOLD and leg["stop_step"] == 50 and leg["p_hold"] == pytest.approx(1.0, abs=1e-12)
        assert leg["value_gap"] <= 1e-12

    def test_deterministic_reports_zero_std_error(self, fixture_solution):
        report = simulate_policy(fixture_solution, 1)
        assert report.leg(PLUS).std_error == 0.0 and report.leg(MINUS).std_error == 0.0

    def test_same_seed_reproduces_report(self):
        # the seeded walk repeats itself; the law takes no seed and repeats bit for bit
        problem = smoke_problem()
        solution, _ = solve_system(problem, bin_backend(30))
        assert pinned_replay(solution, 500, 21, 1) == pinned_replay(solution, 500, 21, 1)
        assert repr(simulate_policy(solution, 1).as_dict()) == repr(simulate_policy(solution, 1).as_dict())

    def test_lattice_early_stopping_classifies_per_path(self):
        solution, trace = solve_system(tie_problem(), bin_backend(24))
        assert trace.converged
        report = simulate_policy(solution, 1)
        leg = report.leg(PLUS)
        assert leg.stop_step == 0.0
        assert leg.action == SWITCH and leg.p_switch == 1.0
        assert leg.value_gap == 0.0

    @pytest.mark.parametrize("path, backend", [
        (SWITCHING_LATTICE, det_backend(20)),
        (SWITCHING_LATTICE, bin_backend(20)),
        (COUNTEREXAMPLE, bin_backend(20)),  # both legs in contact at the root
    ], ids=["switching-deterministic", "switching-binomial", "root-contact-binomial"])
    def test_start_mode_must_be_the_integer_1_or_2(self, path, backend):
        # a bool or float is refused like a mode that does not exist: True
        # used to be written as "start_mode": true, and 1.0 failed inside numpy
        solution, _ = solve_system(load_problem(path), backend)
        for start_mode in (True, 1.0, 2.0, 0, 3, np.int64(1), "1", None):
            with pytest.raises(ValueError) as refused:
                simulate_policy(solution, start_mode)
            assert str(refused.value) == f"start_mode must be the integer 1 or 2, got {start_mode!r}"
        assert [simulate_policy(solution, mode).start_mode for mode in (1, 2)] == [1, 2]

    def test_replay_rate_at_continuation_value(self):
        # hold to the horizon with profit rate y: the replay evaluates the rate
        # at E_k[Y_{k+1}] like the backward scheme, so the sum telescopes exactly
        drivers = {(PLUS, 1): (0.0, 1.0, 0.0)}
        problem = build_problem(drivers=drivers, ell=1e3, a=1e3, b=1e3, terminals=1.0)
        solution, trace = solve_system(problem, det_backend(256))
        assert trace.converged
        leg = simulate_policy(solution, 1).leg(PLUS)
        assert leg.action == HOLD
        assert leg.value_gap <= 1e-12

    def test_bad_start_mode(self, fixture_solution):
        with pytest.raises(ValueError):
            simulate_policy(fixture_solution, 3)

    @pytest.mark.parametrize("path", [SWITCHING_LATTICE, SMOKE_LATTICE, COUNTEREXAMPLE])
    @pytest.mark.parametrize("backend", [det_backend(100), bin_backend(100)])
    def test_every_moving_leg_of_the_bundled_problems_realizes_y0(self, path, backend):
        solution, _ = solve_system(load_problem(path), backend)
        for mode in (1, 2):
            for leg in simulate_policy(solution, mode).legs.values():
                assert leg.value_gap <= 1e-12, (leg.side, mode)
                assert abs(leg.p_switch + leg.p_terminate + leg.p_hold - 1.0) <= 1e-12, (leg.side, mode)
                assert 0.0 <= leg.stop_step <= 100.0


class TestStreamingReplay:
    @pytest.mark.parametrize("path", [SMOKE_LATTICE, SWITCHING_LATTICE])
    @pytest.mark.parametrize("mode", [1, 2])
    def test_width_one_replays_one_path(self, path, mode, monkeypatch):
        # the one path is read with no per-step loop, and the report is the one the unpatched replay gives
        solution, _ = solve_system(load_problem(path), det_backend(2000))
        wanted = simulate_policy(solution, mode)
        assert any(leg.stop_step > 0.0 for leg in wanted.legs.values())  # a leg leaves its root
        monkeypatch.setattr(strategy, "_mass_pass", lambda *args: pytest.fail("the width-1 replay ran the mass pass"))
        report = simulate_policy(solution, mode)
        assert report == wanted and repr(report) == repr(wanted)
        for leg in report.legs.values():
            assert leg.std_error == 0.0 and leg.value_gap <= 1e-13
            if path == SMOKE_LATTICE:
                assert leg.stop_step == 2000.0 and leg.p_hold == 1.0

    @pytest.mark.parametrize("path", [SWITCHING_LATTICE, SMOKE_LATTICE, COUNTEREXAMPLE])
    @pytest.mark.parametrize("n", [10, 100, 2000])
    def test_width_one_pass_equals_the_mass_pass_bit_for_bit(self, path, n):
        # every leg of both modes on the width-1 lattice, moving or not
        solution, _ = solve_system(load_problem(path), det_backend(n))
        for mode in (1, 2):
            stops, _, rates, _ = replay_tables(solution, mode)
            for s in range(2):
                one = strategy._single_path(stops[s], rates[s])
                every = strategy._mass_pass(solution.backend, stops[s], rates[s])
                assert [a.tobytes() for a in one] == [a.tobytes() for a in every], (s, mode)

    @pytest.mark.parametrize("path", [SWITCHING_LATTICE, SMOKE_LATTICE])
    @pytest.mark.parametrize("backend", [det_backend(300), bin_backend(300)])
    def test_start_mode_tables_are_the_whole_block_rows(self, path, backend):
        # one mode's rows, built step chunk by step chunk, against the whole-block stop and switch blocks and
        # the whole-lattice rate; where a stop at the horizon switches is not read
        solution, _ = solve_system(load_problem(path), backend)
        end = backend.offsets[backend.n_steps]
        for mode in (1, 2):
            stops, switches, rates, _ = replay_tables(solution, mode)
            mine = strategy._mode_tables(solution, mode)
            assert mine[0].tobytes() == stops.tobytes() and mine[2].tobytes() == rates.tobytes(), mode
            assert mine[1][:, :end].tobytes() == switches[:, :end].tobytes(), mode

    def test_the_seed_alone_fixes_the_report(self):
        # the seed alone fixes a walk (one seed gives one report, another
        # another), and the law is fixed by the solution alone
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(25))
        for mode in (1, 2):
            first, again, other = (pinned_replay(solution, 3001, seed, mode) for seed in (2, 2, 3))
            assert first == again and repr(first) == repr(again), mode
            assert first["legs"][PLUS]["realized"] != other["legs"][PLUS]["realized"], mode
            assert simulate_policy(solution, mode) == simulate_policy(solution, mode)

    def test_replay_memory_does_not_grow_with_paths(self):
        # no path is held: the pass keeps one step of masses beside the node tables
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(100))
        tracemalloc.start()
        try:
            simulate_policy(solution, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestMassPass:
    def test_branches_come_from_reachability_not_mass(self):
        # the only terminate node is the bottom node of step 1100, which one
        # path reaches with probability 2^-1100: its mass underflows to 0, and
        # the leg still reports the branch
        n = 1101
        backend = bin_backend(n)
        stop, prefer = np.zeros(backend.size, dtype=bool), np.ones(backend.size, dtype=bool)
        bottom = int(backend.flat_index(1100, 1100))
        stop[backend.offsets[n] :] = stop[bottom] = True
        prefer[bottom] = False
        rate, payoff = np.zeros(backend.offsets[n]), np.zeros(backend.size)
        stops, mass, acc = strategy._mass_pass(backend, stop, rate)
        assert bottom in stops and mass[stops == bottom] == 0.0
        leg = strategy._leg(PLUS, 1, backend, stops, mass, acc, prefer, payoff)
        assert leg.action == strategy.MIXED and leg.p_terminate == 0.0 and leg.p_switch == 0.0
        assert leg.p_hold == pytest.approx(1.0, abs=1e-12) and leg.stop_step == pytest.approx(n, abs=1e-9)

    @pytest.mark.parametrize("n", [4, 8, 11, 12])
    @pytest.mark.parametrize("mode", [1, 2])
    def test_switching_lattice_equals_the_enumeration(self, n, mode):
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(n))
        assert_law_matches_enumeration(solution, mode)

    @pytest.mark.parametrize("path", [SMOKE_LATTICE, COUNTEREXAMPLE])
    @pytest.mark.parametrize("backend", [det_backend(12), bin_backend(12)])
    def test_bundled_problems_equal_the_enumeration(self, path, backend):
        solution, _ = solve_system(load_problem(path), backend)
        for mode in (1, 2):
            assert_law_matches_enumeration(solution, mode)


class TestReplayAgainstExactMeans:
    """The law against the backward recursions on the stop mask (``leg_moments``),
    which owe nothing to the forward pass: Y_0 is the exact value of the rule,
    and the mean stopping step is the recursion's."""

    @pytest.mark.parametrize("mode", [1, 2])
    def test_moving_legs_realize_y0_and_the_mean_stopping_step(self, mode):
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(100))
        moments = leg_moments(solution, mode)
        # the cost leg stops at the root in mode 1 and holds to the horizon in mode 2
        stops = whole_block_contacts(solution)[1][:, mode - 1]
        moving = [s for s in range(2) if not stops[s][0]]
        assert moving == ([0] if mode == 1 else [0, 1])
        report = simulate_policy(solution, mode)
        for s in moving:
            leg = report.leg(SIDES[s])
            assert leg.value_gap <= 1e-12 and leg.std_error == 0.0, SIDES[s]
            assert abs(leg.realized - moments[SIDES[s]]["realized"][0]) <= 1e-12, SIDES[s]
            assert abs(leg.stop_step - moments[SIDES[s]]["stop_step"][0]) <= 1e-10, SIDES[s]
        profit = report.leg(PLUS)
        assert profit.action == strategy.MIXED and profit.p_terminate == 0.0
        assert profit.p_switch == pytest.approx(0.7532, abs=1e-4)
        assert profit.stop_step == pytest.approx(39.6876, abs=1e-4)


class TestPinnedReplay:
    """A seeded Monte Carlo walk (``conftest.pinned_replay``) against the law,
    within the Chebyshev bound of its path count (``assert_walk_near_law``)."""

    @pytest.mark.parametrize("n, n_paths", [(25, 30001), (100, 12001), (101, 12001)])
    @pytest.mark.parametrize("mode", [1, 2])
    def test_switching_lattice(self, n, n_paths, mode):
        solution, _ = solve_system(load_problem(SWITCHING_LATTICE), bin_backend(n))
        for seed in (1, 7, 2024):
            assert_walk_near_law(solution, n_paths, seed, mode)

    @pytest.mark.parametrize("path, stop_step", [(SMOKE_LATTICE, 100.0), (COUNTEREXAMPLE, 0.0)])
    def test_legs_that_hold_or_stop_at_the_root(self, path, stop_step):
        # smoke_lattice holds both legs to the horizon, the counterexample stops both at the root
        solution, _ = solve_system(load_problem(path), bin_backend(100))
        for mode in (1, 2):
            law, walk = assert_walk_near_law(solution, 12001, 3, mode)
            for report in (law, walk):
                assert all(leg["stop_step"] == stop_step for leg in report["legs"].values())

    def test_leg_that_leaves_the_root_and_stops_at_the_next_step(self):
        # Y+_1 sits above its barrier max(Y+_2 - ell, Y-_1 - a) = 0 at the root
        # only; on the width-1 lattice the walk's one path is the law, bit for bit
        be, problem = det_backend(2), build_problem(ell=2.0, a=0.0, b=0.0)
        y = np.zeros((2, 2, be.size))
        y[row(PLUS, 1)][0] = 5.0
        solution = given_solution(problem, be, y)
        stops = whole_block_contacts(solution)[1]
        assert not stops[row(PLUS, 1)][0] and stops[row(PLUS, 1)][1]
        law = simulate_policy(solution, 1).as_dict()
        assert law == pinned_replay(solution, 1, 0, 1) and repr(law) == repr(pinned_replay(solution, 1, 0, 1))
        assert law["legs"][PLUS]["stop_step"] == 1.0


class TestRootContact:
    def test_no_leg_moves_and_nothing_is_drawn(self, monkeypatch):
        # the legs are decided at the root alone: no whole-lattice table is
        # built and no pass runs, and each leg reports Y_0 exactly
        solution, _ = solve_system(load_problem(COUNTEREXAMPLE), bin_backend(400))

        def refuse(*args, **kwargs):
            raise AssertionError("the replay ran a pass or built a whole-lattice table")

        monkeypatch.setattr(strategy, "_mass_pass", refuse)
        monkeypatch.setattr(type(solution.problem), "tabulate", refuse)
        for mode in (1, 2):
            tracemalloc.start()
            try:
                report = simulate_policy(solution, mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            for side in SIDES:
                leg = report.leg(side)
                assert leg.stop_step == 0.0 and leg.std_error == 0.0 and leg.value_gap == 0.0, (side, mode)
                assert leg.realized == solution.y0(side, mode) and leg.action == TERMINATE, (side, mode)
                assert (leg.p_switch, leg.p_terminate, leg.p_hold) == (0.0, 1.0, 0.0), (side, mode)
            assert peak < 65536, mode


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
        y, z = solution.y[row(PLUS, 1)], solution.z[row(PLUS, 1)]
        dt = be.dt
        drv = problem.driver(PLUS, 1)
        for start in range(0, n + 1, 16):
            stops = extract_stopping_times(solution, start)
            tau = stops[(PLUS, 1)]
            assert tau == n
            running = sum(
                float(driver_rate(drv, be.times[k], 0.0, at(y, be, k)[0], at(z, be, k)[0])) * dt
                for k in range(start, tau)
            )
            realized = running + float(at(y, be, n)[0])
            assert abs(realized - float(at(y, be, start)[0])) <= 10.0 * dt
