"""The system solver for the coupled four-equation system.

``solve_system`` builds the minimal solution in one backward pass over the
(side, mode, node) block of ``model``: at each step it projects the block of
Euler values y~ onto its barriers from below, in rounds: the cost side
solved exactly for the profit row held (``model.closure``), then the profit
side for that cost row, from Y+ = y~+ until a profit closure changes no node.
The one-step map is monotone (the comparison check), so this gives the
smallest solution of each step and, by backward induction, the minimal
discrete solution. The paper reaches it as the limit of its Picard scheme
(each sweep freezes the barriers and solves four single reflected
equations), so the solve then runs one check: it certifies that one Picard
sweep from the solution would move no node, without running the sweep. At
every node before the horizon, Y must equal its reflected Euler value
better(E_k[Y_{k+1}] + psi dt, S(Y)), built from Y itself on the whole block
(the discrete reflection relation of El Karoui et al., "Reflected solutions
of backward SDE's", 1997). By backward induction from the horizon, where
both sides are the terminal values, this holds exactly when the sweep moves
no node; a node that fails it fails the solve. Where it holds, every value
sits inside its barrier, and every push dK = |Y - y~| meets it, as the
pass's y~ is the certificate's Euler value bit for bit; so the constraint
and complementarity relations need no check of their own.

The solution is the pass's (side, mode, node) blocks of Y, Z and dK, read in place.

The solve runs with numpy's overflow and invalid-value warnings off; a value
or push that is not finite fails it with a ``ProblemError`` naming its step,
node and component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Lattice
from .model import (
    COMPONENTS,
    MINUS,
    MODES,
    PLUS,
    CostSlice,
    ProblemError,
    SwitchingProblem,
    by_side,
    closure,
    evaluate_obstacles,
    row,
    validate_assumptions,
)
from .rbsde import backward_pass

LOCAL_SWEEP_CAP = 500


class SchemeError(RuntimeError):
    """The solve failed a check; signals a discretization or configuration bug."""


class LocalSweepError(SchemeError):
    """The one-step projection at a node did not settle within LOCAL_SWEEP_CAP rounds."""


@dataclass(frozen=True)
class PassTrace:
    """Projection round count of the one-pass solver at each step before the horizon."""

    local_sweeps: np.ndarray
    converged: bool = True  # a pass that returns settled at every node and is a Picard fixed point


@dataclass(frozen=True)
class BalanceSheetSolution:
    """Converged system solution: the (side, mode, node) blocks of Y, Z and dK, plus metadata."""

    problem: SwitchingProblem
    backend: Lattice
    y: np.ndarray
    z: np.ndarray
    dk: np.ndarray
    trace: PassTrace

    def y0(self, side: str, mode: int) -> float:
        return float(self.y[row(side, mode)][0])

    def obstacles(self) -> np.ndarray:
        return system_obstacles(self.problem, self.y, self.backend)


def node_costs(problem: SwitchingProblem, backend: Lattice) -> CostSlice:
    """The six costs at every lattice node, from one table on the grid times."""
    return problem.cost_table(backend.grid.times).at(backend.step_of_node)


def system_obstacles(problem: SwitchingProblem, y: np.ndarray, backend: Lattice) -> np.ndarray:
    """The barrier block implied by a (side, mode, node) block of Y."""
    return evaluate_obstacles(y, node_costs(problem, backend))


def _require_admissible(problem: SwitchingProblem, backend: Lattice):
    """Abort with the validation report attached if the problem is inadmissible."""
    report = validate_assumptions(problem, backend)
    if not report.all_passed:
        msg = "; ".join(f"{c.name}" for c in report.failures())
        err = SchemeError(f"assumption validation failed: {msg}")
        err.report = report
        raise err


def _euler(problem: SwitchingProblem, backend: Lattice, y: np.ndarray) -> np.ndarray:
    """The Euler values E_k[Y_{k+1}] + psi dt of a (side, mode, node) block
    at every node before the horizon, on the whole block."""
    end, e, z = backend.offsets[backend.grid.n_steps], backend.continuation(y), backend.martingale_increment(y)
    return e + problem.driver_table(backend).rate(slice(0, end), e, z) * backend.grid.dt


def _certify_fixed_point(solution: BalanceSheetSolution, obstacles: np.ndarray):
    """Raise SchemeError unless one Picard sweep from the solution would move
    no node (see the module notes).

    Each term is the expression the reference Picard sweep evaluates at that
    node, so requiring bitwise equality makes this exactly as strict as the
    sweep. It runs on the whole block and names the first component that moves.
    """
    problem, backend, y = solution.problem, solution.backend, solution.y
    end = backend.offsets[backend.grid.n_steps]
    settled = by_side("better", _euler(problem, backend, y), obstacles[..., :end])
    miss = np.where(settled == y[..., :end], 0.0, np.abs(settled - y[..., :end]))
    for (side, mode), moved in zip(COMPONENTS, miss.reshape(4, -1)):
        i = int(np.argmax(moved))
        if moved[i]:
            k, j = backend.locate(i)
            raise SchemeError(f"one Picard sweep would move ({side},{mode}) at step {k}, node {j} by {moved[i]:g}")


def _require_finite(block: np.ndarray, what: str, locate):
    """Raise ProblemError at the last node of a (side, mode, node) block that
    holds a value that is not finite (on a flat block, one of the latest
    step), naming the first such component there; ``locate`` maps a node
    index to its (step, node)."""
    rows = block.reshape(4, -1)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=0))
    if bad.size:
        i = int(bad[-1])
        c = int(np.argmin(np.isfinite(rows[:, i])))
        (side, mode), (k, j) = COMPONENTS[c], locate(i)
        raise ProblemError(
            f"{what} not finite at step {k}, node {j}: ({side},{mode}) is {rows[c, i]:g}; the data overflows float64"
        )


def _project(ytilde: np.ndarray, costs: CostSlice, step: int, rounds: np.ndarray) -> np.ndarray:
    """Least solution of Y+ = max(y~+, S+(Y)), Y- = min(y~-, S-(Y)) at the
    nodes of one step, as a new block: rounds of a cost closure, then a
    profit closure, from Y+ = y~+, until a profit closure changes no node;
    the number of rounds goes to ``rounds[step]``."""
    plus, minus = ytilde
    profit = plus
    for n in range(1, LOCAL_SWEEP_CAP + 1):
        cost = closure(minus, profit, costs, MINUS)
        last, profit = profit, closure(plus, cost, costs, PLUS)
        if not np.count_nonzero(moving := profit != last):
            rounds[step] = n
            return np.array((profit, cost))
    _require_finite(ytilde, "Euler value", lambda i: (step, i))
    node = int(np.argmax(moving.any(axis=0)))
    mode = int(np.argmax(moving[:, node]))
    move = f"({PLUS},{MODES[mode]}) still moves by {profit[mode, node] - last[mode, node]:g}"
    raise LocalSweepError(f"did not converge at step {step}, node {node}: {move}")


def solve_system(problem: SwitchingProblem, backend: Lattice) -> tuple[BalanceSheetSolution, PassTrace]:
    """The minimal system solution in one backward pass (see the module notes)."""
    _require_admissible(problem, backend)
    n = backend.grid.n_steps
    costs, rounds = problem.cost_table(backend.grid.times).columns(), np.zeros(n, dtype=int)
    project = lambda ytilde, k: _project(ytilde, costs[k], k, rounds)  # noqa: E731
    terminal, rate = problem.terminal_block(backend.state(n)), problem.driver_table(backend).per_step(backend)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = backward_pass(rate, terminal, project, backend)
        solution = BalanceSheetSolution(problem, backend, *sol, PassTrace(rounds))
        for block, what in ((sol.y, "value"), (sol.dk, "push")):  # a push is not finite where its Euler value is not
            _require_finite(block, what, backend.locate)
        _certify_fixed_point(solution, solution.obstacles())
    return solution, solution.trace
