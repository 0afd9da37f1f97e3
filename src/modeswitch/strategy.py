"""Stopping-rule extraction and the exact law of the extracted policy.

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
``extract_stopping_times``. The running yield is a left-endpoint sum, in
step order, of the rate the backward solver evaluates (its driver table, at
the continuation value E_k[Y_{k+1}]). On the fair-coin lattice the law of
the rule is computed, not sampled: one forward pass per leg carries the
mass of its paths and their yield from node to node (``simulate_policy``).
"""

from __future__ import annotations

import numpy as np

from .model import COMPONENTS, SIDES, DriverTable, Record, _is_mode, evaluate_obstacles, row
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
    n, down, off = backend.grid.n_steps, backend.down, backend.offsets
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
    n, steps = backend.grid.n_steps, backend.step_of_node[stops]
    held = steps == n
    switch, terminate = ~held & prefer[stops], ~held & ~prefer[stops]
    realized = float(np.sum(acc * backend.grid.dt + mass * payoff[stops]))
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
    ``model.evaluate_obstacles`` on the root values and the costs of step 0,
    stops there with mass 1 and reports Y_0 exactly; the node tables are
    built only when a leg leaves its root.
    """
    if not _is_mode(start_mode):  # a bool or float is not a mode
        raise ValueError(f"start_mode must be the integer 1 or 2, got {start_mode!r}")
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
    legs = {}
    for s, side in enumerate(SIDES):
        if not moves[s]:
            law, prefer = (np.zeros(1, dtype=np.intp), np.ones(1), np.zeros(1)), switches[s, m : m + 1]
        else:
            law = _mass_pass(backend, stops[s], rates[s]) if backend.down else _single_path(stops[s], rates[s])
            prefer = prefers[s]
        legs[side] = _leg(side, start_mode, backend, *law, prefer, y[s])
    return StrategyReport(start_mode, legs)
