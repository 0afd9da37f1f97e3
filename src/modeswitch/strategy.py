"""Stopping-rule extraction and forward policy evaluation.

A solved system encodes its own optimal first action: stop at the first time
the value touches its barrier, or at the horizon, then take whichever branch
of the barrier is binding (switch to the other mode, or terminate): a tie
switches. ``branch_table`` evaluates each side's branches once on the Y block
and gives the barrier block and the switch table. Contact is
exact: the one-pass solver stores the barrier's own bits wherever it pushes,
and its fixed-point certificate holds bit for bit, so a path stops where
Y == S and nowhere else before the horizon (``stop_mask``), and collects Y
there, which is the barrier at contact and the terminal value at N.
``first_stop`` reads the first stop along paths; ``extract_stopping_times``
and the replay both use it. The replay accumulates the running yield by
left-endpoint sums with the rate evaluated where and as the backward solver
evaluates it (its driver table, at the continuation value E_k[Y_{k+1}]), to
measure the realized value against Y_0. Paths are replayed in chunks against
rows of the solution's blocks, so memory is bounded by the blocks and chunk,
not paths x steps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import COMPONENTS, SIDES, _PUSH, DriverTable, branches, row
from .scheme import BalanceSheetSolution, node_costs

SWITCH = "switch"
TERMINATE = "terminate"
HOLD = "hold-to-horizon"
MIXED = "mixed"

# Path steps replayed per chunk: the replay holds a few arrays of this size
# at a time, whatever the path count.
REPLAY_CELLS = 1 << 19


def stop_mask(y: np.ndarray, barrier: np.ndarray, backend) -> np.ndarray:
    """Flat boolean mask (or block of them) of where a path of one component
    stops: every node where ``y`` equals its barrier bit for bit, and every horizon node."""
    mask = y == barrier
    mask[..., backend.offsets[backend.grid.n_steps] :] = True
    return mask


def branch_table(solution: BalanceSheetSolution) -> tuple[np.ndarray, np.ndarray]:
    """The barrier block the solution implies (``model.side_obstacles``), and
    the boolean (side, mode, node) block of where a stop switches rather than
    terminates: where the barrier is the switch branch, so a tie switches.
    Each side's branches are evaluated once."""
    y, costs = solution.y, node_costs(solution.problem, solution.backend)
    barrier, switches = np.empty_like(y), np.empty(y.shape, dtype=bool)
    for s, side in enumerate(SIDES):
        switch, terminate = branches(y, costs, side)
        barrier[s] = _PUSH[side].better(switch, terminate)
        switches[s] = barrier[s] == switch
    return barrier, switches


def contact_masks(solution: BalanceSheetSolution) -> tuple[np.ndarray, np.ndarray]:
    """The ``stop_mask`` block against the barriers the solution implies, and
    the switch block of ``branch_table``; the replay reads both."""
    barrier, switches = branch_table(solution)
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
    """Branch decision at a barrier-contact point, by the expressions of
    ``branch_table`` evaluated at that node alone."""
    backend = solution.backend
    y = solution.y[..., int(backend.flat_index(step, node))]
    switch, terminate = branches(y, solution.problem.cost_table(backend.grid.times).at(step), side)
    barrier = _PUSH[side].better(switch, terminate)
    y_here, s_here = float(y[row(side, mode)]), float(barrier[mode - 1])
    if y_here != s_here:
        raise ValueError(
            f"({side},{mode}) does not touch its barrier at step {step}, node {node}: gap {y_here - s_here:g}"
        )
    return SWITCH if s_here == switch[mode - 1] else TERMINATE


@dataclass(frozen=True)
class LegReport:
    side: str
    mode: int
    stop_step: float
    action: str
    realized: float
    value_gap: float
    std_error: float

    def as_dict(self) -> dict:
        return asdict(self)


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


class _Leg:
    """Node tables of one leg, and the realized value and stopping step of
    every path replayed so far."""

    def __init__(self, side, mode, grid, tables, rows):
        """``tables``: the leg's stop mask (closed at the horizon), switch table,
        running rate, and Y, collected where a path stops (the barrier's bits
        at contact, the terminal value's at the horizon)."""
        self.side, self.mode, self.n, self.dt = side, mode, grid.n_steps, grid.dt
        self.stop_here, self.prefer_switch, self.rate, self.payoff = tables
        self.tau = np.empty(rows, dtype=np.int64)
        self.realized = np.empty(rows)
        self.actions = set()

    def replay(self, flat, first: int):
        """Replay paths given as flat node indices, shape (rows, N+1), as rows ``first``, ... of the leg."""
        n = self.n
        tau = first_stop(self.stop_here, flat)
        stop = flat[np.arange(len(flat)), tau]
        running = self.rate[flat[:, :n]]
        running *= np.arange(n)[None, :] < tau[:, None]
        rows = slice(first, first + len(flat))
        self.tau[rows] = tau
        self.realized[rows] = np.sum(running, axis=1) * self.dt + self.payoff[stop]
        stopped = tau < n
        prefer_switch = self.prefer_switch[stop[stopped]]
        seen = ((HOLD, not stopped.all()), (SWITCH, prefer_switch.any()), (TERMINATE, not prefer_switch.all()))
        self.actions.update(name for name, found in seen if found)

    def report(self, y0: float) -> LegReport:
        rows = self.realized.size
        mean = float(np.mean(self.realized))
        std_error = float(np.std(self.realized, ddof=1) / np.sqrt(rows)) if rows > 1 else 0.0
        return LegReport(
            side=self.side,
            mode=self.mode,
            stop_step=float(np.mean(self.tau)),
            action=next(iter(self.actions)) if len(self.actions) == 1 else MIXED,
            realized=mean,
            value_gap=abs(mean - y0),
            std_error=std_error,
        )


def simulate_policy(solution: BalanceSheetSolution, n_paths: int, seed: int, start_mode: int) -> StrategyReport:
    """Forward-replay the extracted first action from a starting mode.

    Evaluates both balance-sheet sides: the profit leg accumulates the running
    profit rate until its stopping step and collects its value there (the
    barrier at contact, or the horizon value), the cost leg likewise with the
    running cost. The report carries the Monte Carlo gap to the solved Y_0
    per leg.

    Paths are drawn from one generator and replayed in chunks of
    ``REPLAY_CELLS`` path steps, so memory does not grow with paths x steps.
    Every path of the width-1 lattice is the same path, so it replays one.
    """
    if start_mode not in (1, 2):
        raise ValueError("start_mode must be 1 or 2")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if not solution.trace.converged:
        raise ValueError("policy simulation requires a converged solution")
    backend = solution.backend
    rows = n_paths if backend.down else 1
    chunk = max(1, REPLAY_CELLS // backend.grid.n_steps)
    m, before = start_mode - 1, slice(0, backend.offsets[backend.grid.n_steps])
    # Running rates at (t_k, x_k, E_k[Y_{k+1}], Z_k), where and as the backward scheme evaluates the driver.
    table, y = DriverTable(*(f[:, m] for f in solution.problem.driver_table(backend))), solution.y[:, m]
    rates = table.rate(before, backend.continuation(y), solution.z[:, m, before])
    tables = zip(*(t[:, m] for t in contact_masks(solution)), rates, y)
    legs = {side: _Leg(side, start_mode, backend.grid, t, rows) for side, t in zip(SIDES, tables)}
    rng = np.random.default_rng(seed) if backend.down else None  # the width-1 lattice draws nothing
    for first in range(0, rows, chunk):
        flat = backend.sample_paths(min(chunk, rows - first), rng)
        flat += backend.offsets[:-1]  # node index -> flat index, in place
        for leg in legs.values():
            leg.replay(flat, first)
    reports = {side: leg.report(solution.y0(side, start_mode)) for side, leg in legs.items()}
    return StrategyReport(start_mode=start_mode, n_paths=n_paths, seed=seed, legs=reports)
