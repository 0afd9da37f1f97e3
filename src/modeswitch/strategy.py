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
E_k[Y_{k+1}]), to measure the realized value against Y_0. It walks forward
one step at a time over the paths still live, so a path costs its stopping
step, not N, and memory is bounded by the blocks and the paths, not paths x
steps. The replay works only where paths move: a leg whose root is in
contact is decided by the barrier at the root alone and reports Y_0 exactly,
and the whole-lattice tables are built, and coins drawn, only when a leg
leaves its root.
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


def _leg_report(side, mode, n, tau, realized, switched, y0) -> LegReport:
    """A moving leg's report from the stopping step, realized value and switch
    flag of each of its paths."""
    stopped = tau < n
    prefer_switch = switched[stopped]
    seen = ((HOLD, not stopped.all()), (SWITCH, prefer_switch.any()), (TERMINATE, not prefer_switch.all()))
    actions = [name for name, found in seen if found]
    mean = float(np.mean(realized))
    rows = realized.size
    return LegReport(
        side=side,
        mode=mode,
        stop_step=float(np.mean(tau)),
        action=actions[0] if len(actions) == 1 else MIXED,
        realized=mean,
        value_gap=abs(mean - y0),
        std_error=float(np.std(realized, ddof=1) / np.sqrt(rows)) if rows > 1 else 0.0,
    )


def check_replay(n_paths: int, seed: int, start_mode: int) -> None:
    """Refuse a replay request before anything is solved for it: a starting
    mode other than 1 or 2, fewer than one path or a negative seed."""
    if start_mode not in (1, 2):
        raise ValueError("start_mode must be 1 or 2")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")


def simulate_policy(solution: BalanceSheetSolution, n_paths: int, seed: int, start_mode: int) -> StrategyReport:
    """Forward-replay the extracted first action from a starting mode.

    Evaluates both balance-sheet sides: the profit leg accumulates the running
    profit rate until its stopping step and collects its value there (the
    barrier at contact, or the horizon value), the cost leg likewise with the
    running cost. The report carries the Monte Carlo gap to the solved Y_0
    per leg.

    The moving legs walk forward together, one step at a time, over the
    (leg, path) pairs still live: a pair that meets its stop mask records its
    step, its sum and its branch and leaves the walk, so the work grows with
    paths x (mean stopping step) and the memory with paths. At step k one
    generator draws ``ceil(paths / 8)`` bytes, unpacked into one coin per
    path (1 moves down), which every leg's pair on that path reads. Every
    path of the width-1 lattice is the same path, so it replays one and draws
    nothing. A leg whose root is in contact is decided at the root alone, by
    ``model.evaluate_obstacles`` on the root values and the costs of step 0:
    every path stops there and collects Y_0, so it reports Y_0 exactly and
    reads no path. The node tables are built, and coins drawn, only when a
    leg leaves its root.
    """
    check_replay(n_paths, seed, start_mode)
    backend, problem, m = solution.backend, solution.problem, start_mode - 1
    root = solution.y[..., 0]
    barrier, switches = evaluate_obstacles(root, problem.cost_table(backend.grid.times[:1]).at(0))
    reports = {
        side: LegReport(side, start_mode, 0.0, SWITCH if switches[s, m] else TERMINATE, float(root[s, m]), 0.0, 0.0)
        for s, side in enumerate(SIDES)
        if root[s, m] == barrier[s, m]
    }
    moving = [s for s, side in enumerate(SIDES) if side not in reports]
    if moving:
        n, dt, down, legs = backend.grid.n_steps, backend.grid.dt, backend.down, len(moving)
        rows = n_paths if down else 1
        before = slice(0, backend.offsets[n])
        # Running rates at (t_k, x_k, E_k[Y_{k+1}], Z_k), where and as the backward scheme evaluates the driver.
        table, y = DriverTable(*(f[:, m] for f in problem.driver_table(backend))), solution.y[:, m]
        rates = table.rate(before, backend.continuation(y), solution.z[:, m, before])
        # Node-major tables: leg l at flat node i reads entry i * legs + l. The
        # stop mask is closed at the horizon, so no live pair reads a rate there.
        stop_here, prefer_switch, rate, payoff = (
            np.ravel(t[moving], order="F") for t in (*(b[:, m] for b in contact_masks(solution)), rates, y)
        )
        # Live pairs: output slot l * rows + path, table index, running sum.
        slot = np.arange(legs * rows)
        flat, acc = slot // rows, np.zeros(legs * rows)
        tau, realized, switched = np.empty(slot.size, dtype=np.int64), np.empty(slot.size), np.empty(slot.size, bool)
        coins = np.empty((legs, rows), dtype=np.intp)  # every leg's pair on a path reads the path's coin
        rng = np.random.default_rng(seed) if down else None  # the width-1 lattice draws nothing
        for k in range(n + 1):
            stop = stop_here[flat]
            if stop.any():
                done, at = slot[stop], flat[stop]
                tau[done], realized[done], switched[done] = k, acc[stop] * dt + payoff[at], prefer_switch[at]
                live = ~stop
                slot, flat, acc = slot[live], flat[live], acc[live]
                if not slot.size:
                    break
            acc += rate[flat]
            flat += legs * (1 + down * k)
            if rng is not None:
                bits = np.unpackbits(np.frombuffer(rng.bytes(-(-rows // 8)), dtype=np.uint8), count=rows)
                np.multiply(bits, legs, out=coins)
                flat += coins.take(slot)
        for l, s in enumerate(moving):
            path = slice(l * rows, (l + 1) * rows)
            side = SIDES[s]
            reports[side] = _leg_report(
                side, start_mode, n, tau[path], realized[path], switched[path], solution.y0(side, start_mode)
            )
    return StrategyReport(start_mode, n_paths, seed, legs={side: reports[side] for side in SIDES})
