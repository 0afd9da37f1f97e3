"""Stopping-rule extraction and forward policy evaluation.

A solved system encodes its own optimal first action: stop at the first time
the value touches its barrier, then take whichever branch of the barrier is
binding (switch to the other mode, or terminate). This module extracts those
contact times, classifies the branch, and replays the policy forward along
sampled paths, accumulating the running yield by left-endpoint sums with the
rate evaluated where the backward solver evaluates it (at the continuation
value E_k[Y_{k+1}]), to measure the realized value against Y_0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import COMPONENTS, MINUS, PLUS, other_mode
from .rbsde import hitting_tolerance
from .scheme import BalanceSheetSolution, node_costs

SWITCH = "switch"
TERMINATE = "terminate"
HOLD = "hold-to-horizon"
MIXED = "mixed"


def contact_masks(solution: BalanceSheetSolution, tol: float | None = None, obstacles: dict | None = None) -> dict:
    """Per-component flat boolean node masks marking barrier contact."""
    if obstacles is None:
        obstacles = solution.obstacles()
    masks = {}
    for key in COMPONENTS:
        y = solution.sol[key].y
        t = tol if tol is not None else hitting_tolerance(solution.backend, scale=y.sup_norm())
        masks[key] = np.abs(y.data - obstacles[key].data) <= t
    return masks


def extract_stopping_times(solution: BalanceSheetSolution, from_step: int = 0, path=None) -> dict:
    """First barrier-contact step at or after ``from_step`` per component, else N.

    Stopping times are path objects on the binomial lattice, so ``path`` (a
    node-index path) is required there; the width-1 lattice has a single path.
    """
    backend = solution.backend
    n = backend.grid.n_steps
    if not 0 <= from_step <= n:
        raise ValueError(f"from_step must lie in [0, {n}]")
    if path is None:
        if backend.down:
            raise ValueError("a node-index path is required on the lattice backend")
        path = np.zeros(n + 1, dtype=np.int64)
    flat = backend.offsets[from_step:n] + np.asarray(path[from_step:n], dtype=np.int64)
    masks = contact_masks(solution)
    out = {}
    for key in COMPONENTS:
        hit = masks[key][flat]
        out[key] = from_step + int(np.argmax(hit)) if hit.any() else n
    return out


def _branch_values(solution, side, mode, flat):
    """(switch branch, exit branch, barrier value) at flat node index(es) ``flat``."""
    costs = node_costs(solution.problem, solution.backend)
    j = other_mode(mode)
    if side == PLUS:
        switch_branch = solution.sol[(PLUS, j)].y.data[flat] - costs.ell[mode - 1][flat]
        exit_branch = solution.sol[(MINUS, mode)].y.data[flat] - costs.a[mode - 1][flat]
        return switch_branch, exit_branch, np.maximum(switch_branch, exit_branch)
    switch_branch = solution.sol[(MINUS, j)].y.data[flat] + costs.ell[mode - 1][flat]
    exit_branch = solution.sol[(PLUS, mode)].y.data[flat] + costs.b[mode - 1][flat]
    return switch_branch, exit_branch, np.minimum(switch_branch, exit_branch)


def classify_action(solution: BalanceSheetSolution, side: str, mode: int, node: int, step: int) -> str:
    """Branch decision at a barrier-contact point; ties break to switching.

    Profit side: switching wins when the other mode's profit net of the
    switching cost at least matches own cost net of the exit cost. Cost side:
    switching wins when the other mode's cost plus the switching cost is at
    most own profit plus the exit benefit.
    """
    y_here = float(solution.sol[(side, mode)].y.at(step)[node])
    flat = int(solution.backend.offsets[step]) + node
    switch_branch, exit_branch, s_here = _branch_values(solution, side, mode, flat)
    tol = hitting_tolerance(solution.backend, scale=max(abs(y_here), 1.0))
    if abs(y_here - float(s_here)) > tol:
        raise ValueError(
            f"({side},{mode}) does not touch its barrier at step {step}, node {node}: "
            f"gap {y_here - float(s_here):g}"
        )
    if side == PLUS:
        return SWITCH if switch_branch >= exit_branch else TERMINATE
    return SWITCH if switch_branch <= exit_branch else TERMINATE


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
        return {
            "side": self.side,
            "mode": self.mode,
            "stop_step": self.stop_step,
            "action": self.action,
            "realized": self.realized,
            "value_gap": self.value_gap,
            "std_error": self.std_error,
        }


@dataclass(frozen=True)
class StrategyReport:
    start_mode: int
    n_paths: int
    seed: int
    legs: dict

    def leg(self, side: str) -> LegReport:
        return self.legs[side]

    def as_dict(self) -> dict:
        return {
            "start_mode": self.start_mode,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "legs": {side: leg.as_dict() for side, leg in self.legs.items()},
        }


def _simulate_leg(solution, side, mode, flat_paths, masks, obstacles) -> LegReport:
    """Replay one leg along paths given as flat node indices, shape (n_paths, N+1)."""
    backend = solution.backend
    n = backend.grid.n_steps
    n_paths = flat_paths.shape[0]
    comp = solution.sol[(side, mode)]
    key = (side, mode)

    hit = masks[key][flat_paths[:, :n]]
    tau = np.where(hit.any(axis=1), np.argmax(hit, axis=1), n)
    stopped = tau < n
    stop = flat_paths[np.arange(n_paths), tau]

    # Running rate at (t_k, x_k, E_k[Y_{k+1}], Z_k), the point at which the
    # backward scheme evaluates the driver.
    before = slice(0, backend.offsets[n])
    drv = solution.problem.driver(side, mode)
    cont = backend.continuation(comp.y.data)
    rate = drv(backend.node_times[before], backend.states[before], cont, comp.z.data[before])
    running = rate[flat_paths[:, :n]]
    running *= np.arange(n)[None, :] < tau[:, None]
    running = np.sum(running, axis=1) * backend.grid.dt

    xi_nodes = np.asarray(solution.problem.terminal(side, mode)(backend.state(n)), dtype=float)
    payoff = np.where(stopped, obstacles[key].data[stop], xi_nodes[flat_paths[:, n] - backend.offsets[n]])
    realized = running + payoff

    switch_branch, exit_branch, _ = _branch_values(solution, side, mode, stop[stopped])
    prefer_switch = switch_branch >= exit_branch if side == PLUS else switch_branch <= exit_branch
    seen = ((HOLD, not stopped.all()), (SWITCH, prefer_switch.any()), (TERMINATE, not prefer_switch.all()))
    taken = [name for name, found in seen if found]
    action = taken[0] if len(taken) == 1 else MIXED

    mean = float(np.mean(realized))
    std_error = float(np.std(realized, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return LegReport(
        side=side,
        mode=mode,
        stop_step=float(np.mean(tau)),
        action=action,
        realized=mean,
        value_gap=abs(mean - solution.y0(side, mode)),
        std_error=std_error,
    )


def simulate_policy(solution: BalanceSheetSolution, n_paths: int, seed: int, start_mode: int) -> StrategyReport:
    """Forward-replay the extracted first action from a starting mode.

    Evaluates both balance-sheet sides: the profit leg accumulates the running
    profit rate until its stopping step and collects the barrier value there
    (or the horizon value), the cost leg likewise with the running cost. The
    report carries the Monte Carlo gap to the solved Y_0 per leg.
    """
    if start_mode not in (1, 2):
        raise ValueError("start_mode must be 1 or 2")
    if not solution.trace.converged:
        raise ValueError("policy simulation requires a converged solution")
    paths = solution.backend.sample_paths(n_paths, seed)
    paths += solution.backend.offsets[:-1]  # node index -> flat index, in place
    obstacles = solution.obstacles()
    masks = contact_masks(solution, obstacles=obstacles)
    legs = {
        side: _simulate_leg(solution, side, start_mode, paths, masks, obstacles)
        for side in (PLUS, MINUS)
    }
    return StrategyReport(start_mode=start_mode, n_paths=n_paths, seed=seed, legs=legs)
