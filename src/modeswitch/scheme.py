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

The solve runs with numpy's overflow and invalid-value warnings off; a value
or push that is not finite fails it with a ``ProblemError`` naming its step,
node and component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FieldSurface, Lattice
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
    validate_assumptions,
)
from .rbsde import RbsdeSolution, backward_pass

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
    """Converged system solution: four (Y, Z, dK) triples plus metadata."""

    problem: SwitchingProblem
    backend: Lattice
    sol: dict
    trace: PassTrace

    def y0(self, side: str, mode: int) -> float:
        return float(self.sol[(side, mode)].y.at(0)[0])

    def component(self, side: str, mode: int) -> RbsdeSolution:
        return self.sol[(side, mode)]

    def block(self, field: str = "y") -> np.ndarray:
        """One field (y, z or dk) of the four components as a (side, mode, node) block."""
        return stack({key: getattr(comp, field) for key, comp in self.sol.items()})

    def obstacles(self) -> dict:
        return system_obstacles(self.problem, {k: s.y for k, s in self.sol.items()}, self.backend)


def node_costs(problem: SwitchingProblem, backend: Lattice) -> CostSlice:
    """The six costs at every lattice node, from one table on the grid times."""
    return problem.cost_table(backend.grid.times).at(backend.step_of_node)


def stack(surfaces: dict) -> np.ndarray:
    """The (side, mode, node) block of four component surfaces (a copy)."""
    return np.stack([surfaces[key].data for key in COMPONENTS]).reshape(2, 2, -1)


def system_obstacles(problem: SwitchingProblem, ys: dict, backend: Lattice) -> dict:
    """Barrier surfaces implied by a set of four Y surfaces, over views of one block."""
    barriers = evaluate_obstacles(stack(ys), node_costs(problem, backend)).reshape(4, -1)
    return {key: FieldSurface(backend, row) for key, row in zip(COMPONENTS, barriers)}


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


def _certify_fixed_point(solution: BalanceSheetSolution, obstacles: dict):
    """Raise SchemeError unless one Picard sweep from the solution would move
    no node (see the module notes).

    Each term is the expression the reference Picard sweep evaluates at that
    node, so requiring bitwise equality makes this exactly as strict as the
    sweep. It runs on the whole block and names the first component that moves.
    """
    problem, backend, y = solution.problem, solution.backend, solution.block("y")
    end = backend.offsets[backend.grid.n_steps]
    settled = by_side("better", _euler(problem, backend, y), stack(obstacles)[..., :end])
    miss = np.where(settled == y[..., :end], 0.0, np.abs(settled - y[..., :end]))
    for (side, mode), row in zip(COMPONENTS, miss.reshape(4, -1)):
        i = int(np.argmax(row))
        if row[i]:
            k, j = backend.locate(i)
            raise SchemeError(f"one Picard sweep would move ({side},{mode}) at step {k}, node {j} by {row[i]:g}")


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
        sol = backward_pass(rate, terminal, project, backend, COMPONENTS)
        solution = BalanceSheetSolution(problem=problem, backend=backend, sol=sol, trace=PassTrace(rounds))
        for field, what in (("y", "value"), ("dk", "push")):  # a push is not finite where its Euler value is not
            _require_finite(solution.block(field), what, backend.locate)
        _certify_fixed_point(solution, solution.obstacles())
    return solution, solution.trace
