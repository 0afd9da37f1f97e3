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

``backward_pass`` is the pass, on any block of equations; a single reflected
equation is its one-equation case, projected by a clip. The solution is one
record, ``BalanceSheetSolution``: the problem, its lattice and the pass's
(side, mode, node) blocks of Y, Z and dK, read in place. A sampled fixture
family and surfaces read back from files are the same record, and every
reader takes the record alone.

The solve runs with numpy's overflow and invalid-value warnings off; a value
or push that is not finite fails it with a ``ProblemError`` naming its step,
node and component.
"""

from __future__ import annotations

import numpy as np

from .grid import Lattice
from .model import (
    COMPONENTS,
    MINUS,
    MODES,
    PLUS,
    CostSlice,
    DriverTable,
    ProblemError,
    Record,
    SwitchingProblem,
    by_side,
    closure,
    evaluate_obstacles,
    row,
    validate_assumptions,
)

LOCAL_SWEEP_CAP = 500


class SchemeError(RuntimeError):
    """The solve failed a check; signals a discretization or configuration bug."""


class LocalSweepError(SchemeError):
    """The one-step projection at a node did not settle within LOCAL_SWEEP_CAP rounds."""


class PassTrace(Record):
    """Projection round count of the one-pass solver at each step before the horizon."""

    local_sweeps: np.ndarray
    converged = True  # a class constant, not a field: a solve returns only once it settled and certified


class BalanceSheetSolution(Record):
    """One solution of ``problem`` on ``backend``: the (side, mode, node)
    blocks of Y, Z and dK, each shaped (2, 2, backend.size); dK at the horizon is zero."""

    problem: SwitchingProblem
    backend: Lattice
    y: np.ndarray
    z: np.ndarray
    dk: np.ndarray

    def __post_init__(self):
        fits = (2, 2, self.backend.size)
        for name in ("y", "z", "dk"):
            if (shape := np.shape(getattr(self, name))) != fits:
                raise ValueError(f"{name} is shaped {shape}, but its lattice needs {fits}")

    def y0(self, side: str, mode: int) -> float:
        return float(self.y[row(side, mode)][0])


def system_obstacles(solution: BalanceSheetSolution) -> tuple[np.ndarray, np.ndarray]:
    """The barrier and switch blocks (``model.evaluate_obstacles``) implied by the solution's Y block."""
    backend = solution.backend
    return evaluate_obstacles(solution.y, solution.problem.cost_table(backend.grid.times).at(backend.step_of_node))


def backward_pass(rate, terminal: np.ndarray, project, backend: Lattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit backward Euler for a block of equations at once; returns its Y, Z and dK.

    ``terminal`` holds the horizon values, nodes on the last axis; its
    leading axes are the equations (none for one equation). ``rate(k, y, z)``
    is the stacked driver: every equation's rate at the nodes of step k. Each
    step reads E_k[Y_{k+1}] and Z_k from the block Y_{k+1} the step before
    returned, forms the Euler values Y~_k = E_k[Y_{k+1}] + psi * dt, and
    ``project(ytilde_k, k)`` returns the block Y_k; dK_k = |Y_k - Y~_k|, so a
    push is nonzero only where Y_k is its barrier's own float. No step needs
    a fixed point of its own. The step blocks are joined once at the end into
    buffers shaped like ``terminal`` with the node axis widened to the lattice
    size; dK is zero at the horizon.
    """
    dt, y = backend.grid.dt, terminal
    blocks = [(y, np.zeros_like(y), y)]
    for k in range(backend.grid.n_steps - 1, -1, -1):
        e, z = backend.moments(y, k)
        ytilde = e + rate(k, e, z) * dt
        y = project(ytilde, k)
        blocks.append((y, z, ytilde))
    y, z, ytilde = (np.concatenate(field[::-1], axis=-1) for field in zip(*blocks))
    return y, z, np.abs(np.subtract(y, ytilde, out=ytilde), out=ytilde)


def _require_admissible(problem: SwitchingProblem, backend: Lattice):
    """Abort with the validation report attached if the problem is inadmissible."""
    report = validate_assumptions(problem, backend)
    if not report.all_passed:
        msg = "; ".join(f"{c.name}" for c in report.failures())
        err = SchemeError(f"assumption validation failed: {msg}")
        err.report = report
        raise err


def _euler(table: DriverTable, backend: Lattice, y: np.ndarray) -> np.ndarray:
    """The Euler values E_k[Y_{k+1}] + psi dt of a (side, mode, node) block
    at every node before the horizon, on the whole block, with the rate of ``table``."""
    end, e, z = backend.offsets[backend.grid.n_steps], backend.continuation(y), backend.martingale_increment(y)
    return e + table.rate(slice(0, end), e, z) * backend.grid.dt


def _certify_fixed_point(solution: BalanceSheetSolution, obstacles: np.ndarray, table: DriverTable):
    """Raise SchemeError unless one Picard sweep from the solution would move
    no node (see the module notes).

    Each term is the expression the reference Picard sweep evaluates at that
    node, so requiring bitwise equality makes this exactly as strict as the
    sweep. It runs on the whole block and names the first component that moves.
    """
    backend, y = solution.backend, solution.y
    end = backend.offsets[backend.grid.n_steps]
    settled = by_side("better", _euler(table, backend, y), obstacles[..., :end])
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
    table, off = problem.driver_table(backend), backend.offsets.tolist()
    rate = lambda k, y, z: table.rate(slice(off[k], off[k + 1]), y, z)  # noqa: E731
    with np.errstate(over="ignore", invalid="ignore"):
        y, z, dk = backward_pass(rate, problem.terminal_block(backend.state(n)), project, backend)
        for block, what in ((y, "value"), (dk, "push")):  # a push is not finite where its Euler value is not
            _require_finite(block, what, backend.locate)
        solution = BalanceSheetSolution(problem, backend, y, z, dk)
        _certify_fixed_point(solution, system_obstacles(solution)[0], table)
    return solution, PassTrace(rounds)
