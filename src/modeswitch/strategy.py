"""Stopping-rule extraction and the exact law of the extracted policy.

A solved system encodes its own optimal first action: stop at the first time
the value touches its barrier, or at the horizon, then take whichever branch
of the barrier is binding (switch to the other mode, or terminate; a tie
switches), as ``model.evaluate_obstacles`` reads it at the nodes of one path
(``extract_stopping_times``) or of one node (``classify_action``), and
``model.mode_obstacles`` for the start mode of a replay, by step chunks
(``_mode_tables``), each with the record's tables: no barrier is built over
the whole lattice. Contact is exact: the solver stores the barrier's own
bits wherever it pushes, so a path stops where Y == S and nowhere else
before the horizon, and collects Y there. The running yield is a
left-endpoint sum, in step order, of the rate the backward solver evaluates
(its driver table at E_k[Y_{k+1}] and Z_k, both derived from Y). On the
fair-coin lattice the law of the rule is computed, not sampled: one forward
pass per leg carries the mass of its paths and their yield (``simulate_policy``).
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .model import COMPONENTS, SIDES, DriverTable, Record, _is_mode, evaluate_obstacles, mode_obstacles, row
from .scheme import BalanceSheetSolution

SWITCH = "switch"
TERMINATE = "terminate"
HOLD = "hold-to-horizon"
MIXED = "mixed"


def flat_path(backend, from_step: int = 0, path=None) -> np.ndarray:
    """Flat node indices of a node-index path at steps ``from_step``..N.

    ``path[k]`` is the node at step k. The width-1 lattice has a single path,
    so ``path`` may be omitted there; on the binomial lattice it is required.
    ``flat_index`` refuses a bool or a node that is not an integer by name; entries before ``from_step``
    are not read.
    """
    n = backend.n_steps
    if isinstance(from_step, bool) or not isinstance(from_step, Integral) or not 0 <= from_step <= n:
        raise ValueError(f"from_step must be an integer in [0, {n}], got {from_step!r}")
    if path is None:
        if backend.down:
            raise ValueError("a node-index path is required on the lattice backend")
        path = np.zeros(n + 1, dtype=np.int64)
    # a list keeps each value's type, so that flat_index sees a bool or a float among its nodes
    nodes = np.asarray(path, dtype=None if isinstance(path, np.ndarray) else object)[from_step : n + 1]
    if nodes.shape != (n + 1 - from_step,):
        raise ValueError(f"a path needs one node per step 0..{n}, got shape {np.shape(path)}")
    return backend.flat_index(np.arange(from_step, n + 1), nodes)


def extract_stopping_times(solution: BalanceSheetSolution, from_step: int = 0, path=None) -> dict:
    """First step at or after ``from_step`` where each component's Y along ``path`` (see ``flat_path``) equals
    its barrier, by ``model.evaluate_obstacles`` at the path's nodes alone: its first barrier contact, else N."""
    flat = flat_path(solution.backend, from_step, path)
    y = solution.y[..., flat]
    stops = y == evaluate_obstacles(y, solution.tables[1].at(slice(from_step, None)))[0]
    stops[..., -1] = True  # every path stops at the horizon
    return {key: from_step + int(np.argmax(stops[row(*key)])) for key in COMPONENTS}


def classify_action(solution: BalanceSheetSolution, side: str, mode: int, node: int, step: int) -> str:
    """Branch decision at a barrier-contact point, by ``model.evaluate_obstacles`` at that node alone."""
    backend, here = solution.backend, row(side, mode)
    y = solution.y[..., int(backend.flat_index(step, node))]
    barrier, switches = evaluate_obstacles(y, solution.tables[1].at(step))
    gap = float(y[here]) - float(barrier[here])
    if y[here] != barrier[here]:
        raise ValueError(f"({side},{mode}) does not touch its barrier at step {step}, node {node}: gap {gap:g}")
    return SWITCH if switches[here] else TERMINATE


class LegReport(Record):
    side: str
    mode: int
    stop_step: float
    action: str
    realized: float
    value_gap: float
    std_error: float  # 0.0: the law has no sampling error
    p_switch: float
    p_terminate: float
    p_hold: float


class StrategyReport(Record):
    start_mode: int
    legs: dict

    def leg(self, side: str) -> LegReport:
        return self.legs[side]


def _mode_tables(solution: BalanceSheetSolution, mode: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The replay's (side, node) rows of one mode, built for it alone by step chunks from the record's tables:
    where a path stops (Y on its barrier, and the horizon), where a stop before the horizon switches, and the
    running rate before the horizon at (t_k, x_k, E_k[Y_{k+1}], Z_k), as the backward scheme evaluates the driver."""
    backend, y, m = solution.backend, solution.y, mode - 1
    n, off, (drivers, costs) = backend.n_steps, backend.offsets, solution.tables
    table = DriverTable(*(f[:, m] for f in drivers))
    stops, switches, rates = np.ones((2, backend.size), bool), np.zeros((2, backend.size), bool), np.empty((2, off[n]))
    for start, stop in backend.step_chunks(n):
        nodes, steps, _, states = backend.nodes(start, stop)
        barrier, switches[:, nodes] = mode_obstacles(y[..., nodes], costs.at(steps), mode)
        stops[:, nodes], (e, z) = y[:, m, nodes] == barrier, backend.flat_moments(y[:, m], start, stop)
        rates[:, nodes] = table.rate(steps, states, e, z)
    return stops, switches, rates


def _children(share: np.ndarray, down: int) -> np.ndarray:
    """The nodes of the next step, each the sum (for bools, the or) of the ``share`` of both its parents."""
    out = np.zeros(share.size + down, dtype=share.dtype)
    out[: share.size] = share
    out[down:] += share
    return out


def _mass_pass(backend, stop: np.ndarray, rate: np.ndarray):
    """Flat index, mass and accumulated yield of each reached stop node of a leg.

    Mass 1 and yield 0 start at the root. At step k the reached stop nodes are
    recorded; every other node sends half of its mass m, and half of its yield
    a + m * rate, to each child. Masses are binomial(k, j) / 2^k and underflow
    to 0 past about step 1074, so a boolean mask carried beside them says
    which nodes some path reaches.
    """
    n, down, off = backend.n_steps, backend.down, backend.offsets
    mass, acc, reached, found = np.ones(1), np.zeros(1), np.ones(1, dtype=bool), []
    for k in range(n + 1):  # the stop mask is closed at the horizon, so no rate is read there
        here = stop[off[k] : off[k + 1]]
        hit = here & reached
        if hit.any():
            found.append((np.flatnonzero(hit) + off[k], mass[hit], acc[hit]))
            reached = reached & ~here
            if not reached.any():
                break
        live = np.where(reached, mass, 0.0)
        carry = np.where(reached, acc + live * rate[off[k] : off[k + 1]], 0.0)
        mass, acc, reached = (_children(share, down) for share in (0.5 * live, 0.5 * carry, reached))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _single_path(stop: np.ndarray, rate: np.ndarray):
    """``_mass_pass`` on the width-1 lattice with no per-step loop: its one path
    stops at the first node of its stop row, and its yield is a sequential
    ``cumsum`` from +0.0, so the bits are the pass's."""
    tau = int(np.argmax(stop))
    return np.array([tau]), np.ones(1), np.cumsum(np.r_[0.0, rate[:tau]])[-1:]


def _leg(side, mode, backend, stops, mass, acc, prefer, payoff) -> LegReport:
    """A leg's report from the flat index, mass and yield of its reached stop
    nodes: each pays its yield times dt plus its mass times Y there. The action
    is the one branch that a reached stop takes (switch or terminate before
    the horizon, hold at it), or ``mixed``."""
    n, steps = backend.n_steps, np.searchsorted(backend.offsets, stops, side="right") - 1  # each stop's step
    held = steps == n
    switch, terminate = ~held & prefer[stops], ~held & ~prefer[stops]
    realized = float(np.sum(acc * backend.dt + mass * payoff[stops]))
    actions = [name for name, found in ((HOLD, held), (SWITCH, switch), (TERMINATE, terminate)) if found.any()]
    action = actions[0] if len(actions) == 1 else MIXED
    p_switch, p_terminate, p_hold = (float(mass[branch].sum()) for branch in (switch, terminate, held))
    # N less the mass-weighted steps to go of the stops before the horizon: a leg that holds reads N exactly
    stop_step = n - float(mass[~held] @ (n - steps[~held]))
    gap = abs(realized - float(payoff[0]))
    return LegReport(side, mode, stop_step, action, realized, gap, 0.0, p_switch, p_terminate, p_hold)


def simulate_policy(solution: BalanceSheetSolution, start_mode: int) -> StrategyReport:
    """The exact law of the extracted first action from a starting mode.

    The profit leg accumulates the running profit rate until its stopping
    step and collects its value there (the barrier at contact, or the horizon
    value), the cost leg likewise with the running cost. Each leg reports its
    mean stopping step, the rule's value (``realized``) and its gap to Y_0,
    and the probability of each branch. A leg that leaves its root runs one
    ``_mass_pass`` over its own 1-D tables, or ``_single_path`` on the
    width-1 lattice. A leg whose root is in contact, by
    ``model.mode_obstacles`` on the root values and the costs of step 0,
    stops there with mass 1 and reports Y_0 exactly; the node tables of the
    start mode (``_mode_tables``) are built only when a leg leaves its root.
    """
    if not _is_mode(start_mode):  # a bool or float is not a mode
        raise ValueError(f"start_mode must be the integer 1 or 2, got {start_mode!r}")
    backend, y = solution.backend, solution.y[:, start_mode - 1]
    barrier, switches = mode_obstacles(solution.y[..., :1], solution.tables[1].at(slice(0, 1)), start_mode)
    moves = y[:, 0] != barrier[:, 0]
    if moves.any():
        stops, prefers, rates = _mode_tables(solution, start_mode)
    legs = {}
    for s, side in enumerate(SIDES):
        if not moves[s]:
            law, prefer = (np.zeros(1, dtype=np.intp), np.ones(1), np.zeros(1)), switches[s]
        else:
            law = _mass_pass(backend, stops[s], rates[s]) if backend.down else _single_path(stops[s], rates[s])
            prefer = prefers[s]
        legs[side] = _leg(side, start_mode, backend, *law, prefer, y[s])
    return StrategyReport(start_mode, legs)
