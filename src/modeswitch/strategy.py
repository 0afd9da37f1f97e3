"""Stopping-rule extraction and forward policy evaluation.

A solved system encodes its own optimal first action: stop at the first time
the value touches its barrier, or at the horizon, then take whichever branch
of the barrier is binding (switch to the other mode, or terminate; a tie
switches), as ``model.evaluate_obstacles`` reads it on the Y block
(``contact_masks``) or at one node (``classify_action``). Contact is
exact: the one-pass solver stores the barrier's own bits wherever it pushes,
and its fixed-point certificate holds bit for bit, so a path stops where
Y == S and nowhere else before the horizon (``stop_mask``), and collects Y
there, which is the barrier at contact and the terminal value at N.
``first_stop`` reads the first stop along given paths for
``extract_stopping_times``. The replay accumulates the running yield by
left-endpoint sums, in step order, with the rate evaluated where and as the
backward solver evaluates it (its driver table, at the continuation value
E_k[Y_{k+1}]), to measure the realized value against Y_0. Each leg walks on
its own, over its own component's tables, forward one step at a time over
its paths still live, so a path costs its stopping step, not N, and memory
is bounded by the blocks and the paths, not paths x steps. The two legs
share their paths through the seed: each walk draws the same coin stream.
The replay works only where paths move: a leg whose root is in contact is
decided by the barrier at the root alone and reports Y_0 exactly, and the
whole-lattice tables are built, and coins drawn, only when a leg leaves its
root.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import COMPONENTS, SIDES, DriverTable, evaluate_obstacles, row
from .scheme import BalanceSheetSolution, system_obstacles

SWITCH = "switch"
TERMINATE = "terminate"
HOLD = "hold-to-horizon"
MIXED = "mixed"


def stop_mask(y: np.ndarray, barrier: np.ndarray, backend) -> np.ndarray:
    """Flat boolean mask (or block of them) of where a path of one component
    stops: every node where ``y`` equals its barrier bit for bit, and every horizon node."""
    mask = y == barrier
    mask[..., backend.offsets[backend.grid.n_steps] :] = True
    return mask


def contact_masks(solution: BalanceSheetSolution) -> tuple[np.ndarray, np.ndarray]:
    """The ``stop_mask`` block against the barriers the solution implies, and
    the block of where a stop switches (``scheme.system_obstacles``); the replay reads both."""
    barrier, switches = system_obstacles(solution)
    return stop_mask(solution.y, barrier, solution.backend), switches


def first_stop(mask: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Position along the last axis of ``flat`` (flat node indices of paths)
    of the first node where ``mask`` holds; a path that never meets it reads 0."""
    return np.argmax(mask[flat], axis=-1)


def flat_path(backend, from_step: int = 0, path=None) -> np.ndarray:
    """Flat node indices of a node-index path at steps ``from_step``..N.

    ``path[k]`` is the node at step k. The width-1 lattice has a single path,
    so ``path`` may be omitted there; on the binomial lattice it is required.
    """
    n = backend.grid.n_steps
    if not 0 <= from_step <= n:
        raise ValueError(f"from_step must lie in [0, {n}]")
    if path is None:
        if backend.down:
            raise ValueError("a node-index path is required on the lattice backend")
        path = np.zeros(n + 1, dtype=np.int64)
    nodes = np.asarray(path, dtype=np.int64)[from_step : n + 1]
    if nodes.shape != (n + 1 - from_step,):
        raise ValueError(f"a path needs one node per step 0..{n}, got shape {np.shape(path)}")
    return backend.flat_index(np.arange(from_step, n + 1), nodes)


def extract_stopping_times(solution: BalanceSheetSolution, from_step: int = 0, path=None) -> dict:
    """First step at or after ``from_step`` where each component's stop mask
    holds along ``path`` (see ``flat_path``): its first barrier contact, else N."""
    flat, stops = flat_path(solution.backend, from_step, path), contact_masks(solution)[0]
    return {key: from_step + int(first_stop(stops[row(*key)], flat)) for key in COMPONENTS}


def classify_action(solution: BalanceSheetSolution, side: str, mode: int, node: int, step: int) -> str:
    """Branch decision at a barrier-contact point, by ``model.evaluate_obstacles`` at that node alone."""
    backend, here = solution.backend, row(side, mode)
    y = solution.y[..., int(backend.flat_index(step, node))]
    barrier, switches = evaluate_obstacles(y, solution.problem.cost_table(backend.grid.times[step : step + 1]).at(0))
    y_here, s_here = float(y[here]), float(barrier[here])
    if y_here != s_here:
        raise ValueError(
            f"({side},{mode}) does not touch its barrier at step {step}, node {node}: gap {y_here - s_here:g}"
        )
    return SWITCH if switches[here] else TERMINATE


@dataclass(frozen=True)
class LegReport:
    side: str
    mode: int
    stop_step: float
    action: str
    realized: float
    value_gap: float
    std_error: float


@dataclass(frozen=True)
class StrategyReport:
    start_mode: int
    n_paths: int
    seed: int
    legs: dict

    def leg(self, side: str) -> LegReport:
        return self.legs[side]

    def as_dict(self) -> dict:
        return asdict(self)


def check_replay(n_paths: int, seed: int, start_mode: int) -> None:
    """Refuse a replay request before anything is solved for it: a starting
    mode other than 1 or 2, a path count or seed that is not an int (numpy
    integers are; a bool or float is not), fewer than one path or a negative seed."""
    if start_mode not in (1, 2):
        raise ValueError("start_mode must be 1 or 2")
    for name, value, least in (("n_paths", n_paths, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}")


def _walk(side, mode, backend, n_paths, seed, stop, prefer, rate, payoff) -> LegReport:
    """The report of a leg that leaves its root, from one forward walk over its
    own 1-D node tables (stop mask, switch flag, running rate, Y)."""
    n, dt, down = backend.grid.n_steps, backend.grid.dt, backend.down
    rows = n_paths if down else 1
    path, flat, acc = np.arange(rows), np.zeros(rows, dtype=np.intp), np.zeros(rows)
    tau, realized, switched = np.empty(rows, dtype=np.int64), np.empty(rows), np.empty(rows, bool)
    rng = np.random.default_rng(seed) if down else None  # the width-1 lattice draws nothing
    for k in range(n + 1):
        here = stop[flat]
        if here.any():
            done, at = path[here], flat[here]
            tau[done], realized[done], switched[done] = k, acc[here] * dt + payoff[at], prefer[at]
            live = ~here
            path, flat, acc = path[live], flat[live], acc[live]
            if not path.size:
                break
        acc += rate[flat]  # the stop mask is closed at the horizon, so no live path reads a rate there
        flat += 1 + down * k
        if rng is not None:  # a draw for every path at every step, so each leg reads the same coins
            flat += np.unpackbits(np.frombuffer(rng.bytes(-(-rows // 8)), dtype=np.uint8), count=rows)[path]
    stopped = tau < n
    prefer_switch = switched[stopped]
    seen = ((HOLD, not stopped.all()), (SWITCH, prefer_switch.any()), (TERMINATE, not prefer_switch.all()))
    actions = [name for name, found in seen if found]
    mean = float(np.mean(realized))
    error = float(np.std(realized, ddof=1) / np.sqrt(rows)) if rows > 1 else 0.0
    action = actions[0] if len(actions) == 1 else MIXED
    return LegReport(side, mode, float(np.mean(tau)), action, mean, abs(mean - float(payoff[0])), error)


def simulate_policy(solution: BalanceSheetSolution, n_paths: int, seed: int, start_mode: int) -> StrategyReport:
    """Forward-replay the extracted first action from a starting mode.

    Evaluates both balance-sheet sides: the profit leg accumulates the running
    profit rate until its stopping step and collects its value there (the
    barrier at contact, or the horizon value), the cost leg likewise with the
    running cost. The report carries the Monte Carlo gap to the solved Y_0
    per leg.

    Each leg that leaves its root walks on its own (``_walk``), one step at a
    time over its paths still live: a path that meets the leg's stop mask
    records its step, its sum and its branch and leaves the walk, so the work
    grows with paths x (mean stopping step) and the memory with paths. Each
    walk seeds its own generator with ``seed`` and at every step draws
    ``ceil(paths / 8)`` bytes, unpacked into one coin per path (1 moves down),
    however many paths are still live, so both legs read the same coin on a
    path at a step and walk the same paths. Every path of the width-1 lattice
    is the same path, so it replays one and draws nothing. A leg whose root
    is in contact is decided at the root alone, by ``model.evaluate_obstacles``
    on the root values and the costs of step 0: every path stops there and
    collects Y_0, so it reports Y_0 exactly and reads no path. The node tables
    are built, and coins drawn, only when a leg leaves its root.
    """
    check_replay(n_paths, seed, start_mode)
    backend, problem, m = solution.backend, solution.problem, start_mode - 1
    n, y = backend.grid.n_steps, solution.y[:, m]
    barrier, switches = evaluate_obstacles(solution.y[..., 0], problem.cost_table(backend.grid.times[:1]).at(0))
    moves = y[:, 0] != barrier[:, m]
    if moves.any():
        before = slice(0, backend.offsets[n])
        # Running rates at (t_k, x_k, E_k[Y_{k+1}], Z_k), where and as the backward scheme evaluates the driver.
        table = DriverTable(*(f[:, m] for f in problem.driver_table(backend)))
        rates = table.rate(before, backend.continuation(y), solution.z[:, m, before])
        stops, prefers = (block[:, m] for block in contact_masks(solution))
    legs = {
        side: _walk(side, start_mode, backend, n_paths, seed, stops[s], prefers[s], rates[s], y[s])
        if moves[s]
        else LegReport(side, start_mode, 0.0, SWITCH if switches[s, m] else TERMINATE, float(y[s, 0]), 0.0, 0.0)
        for s, side in enumerate(SIDES)
    }
    return StrategyReport(start_mode, n_paths, seed, legs)
