"""Solvers for the coupled four-equation system.

``solve_system`` builds the minimal solution in one backward pass over the
(side, mode, node) block of ``model``: at each step it projects the block of
Euler values y~ onto its barriers from below, in rounds: the cost side
solved exactly for the profit row held (``model.closure``), then the profit
side for that cost row, from Y+ = y~+ until a profit closure changes no node.
The one-step map is monotone (the comparison check), so this gives the
smallest solution of each step and, by backward induction, the minimal
discrete solution. The paper reaches it as the limit of its Picard scheme, so the
solve then certifies that one Picard sweep from it would move no node,
without running the sweep: at every node before the horizon, Y must equal
its reflected Euler value better(E_k[Y_{k+1}] + psi dt, S(Y)), built from Y
itself on the whole block (the discrete reflection relation of El Karoui et
al., "Reflected solutions of backward SDE's", 1997). By backward induction
from the horizon, where both sides are the terminal values, this holds
exactly when the sweep moves no node; a node that fails it fails the solve.

``picard_system``, the paper's monotone Picard iteration, is the reference:
each sweep freezes the barriers at the previous stage and solves four single
reflected equations, cost pair first (stage-n barriers), then profit pair
(barriers mixing the stage-n profit with the fresh stage-(n+1) cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import FieldSurface, Lattice
from .model import (
    COMPONENTS,
    MINUS,
    MODES,
    PLUS,
    CostSlice,
    SwitchingProblem,
    by_side,
    closure,
    evaluate_obstacles,
    other_mode,
    validate_assumptions,
)
from .rbsde import RbsdeSolution, backward_pass, solve_bsde, solve_rbsde_lower, solve_rbsde_upper

# Pointwise slack for the scheme's order assertions (float noise only; the
# discrete comparison argument is exact in exact arithmetic).
MONOTONICITY_SLACK = 1e-10
SKOROKHOD_CAP = 1e-8

DEFAULT_TOL = {"deterministic": 1e-8, "binomial": 1e-4}
DEFAULT_MAX_ITER = 500
LOCAL_SWEEP_CAP = 500


class SchemeError(RuntimeError):
    """An iteration invariant failed; signals a discretization or configuration bug."""


class LocalSweepError(SchemeError):
    """The one-step projection at a node did not settle within LOCAL_SWEEP_CAP rounds."""


class _ShiftedDriver:
    """Profit driver rewritten for the benefit-shifted unknown l = y + b(t)."""

    def __init__(self, base, b_coeff):
        self.base = base
        self.b_coeff = b_coeff
        self.lipschitz = base.lipschitz

    def tabulate(self, times):
        base = self.base.tabulate(times)
        b, db = np.asarray(self.b_coeff(times)), np.asarray(self.b_coeff.derivative(times))
        return lambda k, x, l, z: base(k, x, l - b[k], z) - db[k]


class _MinDriver:
    """Pointwise minimum of several drivers (Lipschitz with the max constant)."""

    def __init__(self, drivers):
        self.drivers = list(drivers)
        self.lipschitz = max(d.lipschitz for d in self.drivers)

    def __call__(self, t, x, y, z):
        return self.tabulate(t)(..., x, y, z)

    def tabulate(self, times):
        rates = [d.tabulate(times) for d in self.drivers]
        return lambda k, x, y, z: np.minimum.reduce([rate(k, x, y, z) for rate in rates])


@dataclass(frozen=True)
class SchemeStart:
    """Warm-start data: unreflected profit solutions, their benefit shifts, and
    the auxiliary minimum solution bounding the cost side from below."""

    y_plus0: dict
    big_l: dict
    dot_y: FieldSurface
    alpha: _MinDriver


@dataclass(frozen=True)
class Iterate:
    n: int
    sol: dict

    def y(self, side: str, mode: int) -> FieldSurface:
        return self.sol[(side, mode)].y


@dataclass
class ConvergenceTrace:
    tol: float
    deltas: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.deltas)


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
    trace: ConvergenceTrace | PassTrace

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
    return {key: FieldSurface.from_buffer(backend, row) for key, row in zip(COMPONENTS, barriers)}


def skorokhod_sum(gap: np.ndarray, dk: np.ndarray, backend: Lattice, n_steps: int):
    """Sum over steps 0..n_steps-1 of max over nodes of |gap| * dK, added
    left to right like a step-by-step loop would; one per row of a block."""
    end = backend.offsets[n_steps]
    per_step = np.maximum.reduceat((np.abs(gap) * dk)[..., :end], backend.offsets[:n_steps], axis=-1)
    return np.cumsum(per_step, axis=-1)[..., -1]


def _check_order(low: np.ndarray, high: np.ndarray, backend: Lattice, what: str, amount: str = "excess"):
    """Raise SchemeError at the worst node where ``low`` exceeds ``high`` beyond the slack."""
    excess = low - high
    i = int(np.argmax(excess))
    if excess[i] > MONOTONICITY_SLACK:
        k, j = backend.locate(i)
        raise SchemeError(f"{what} at step {k}, node {j}: {amount} {excess[i]:g}")


def _reflect(problem: SwitchingProblem, backend: Lattice, side: str, mode: int, barrier, terminal=None):
    """One component reflected off a flat barrier buffer: up off a floor on
    the profit side, down off a cap on the cost side."""
    solve = solve_rbsde_lower if side == PLUS else solve_rbsde_upper
    if terminal is None:
        terminal = problem.terminal(side, mode)(backend.state(backend.grid.n_steps))
    return solve(problem.driver(side, mode), terminal, FieldSurface.from_buffer(backend, barrier), backend)


def _require_admissible(problem: SwitchingProblem, backend: Lattice):
    """Abort with the validation report attached if the problem is inadmissible."""
    report = validate_assumptions(problem, backend)
    if not report.all_passed:
        msg = "; ".join(f"{c.name}" for c in report.failures())
        err = SchemeError(f"assumption validation failed: {msg}")
        err.report = report
        raise err


def initialize_scheme(problem: SwitchingProblem, backend: Lattice) -> SchemeStart:
    """Warm-start stage: unreflected profit equations and the minimum equation."""
    _require_admissible(problem, backend)
    costs, xi = node_costs(problem, backend), problem.terminal_block(backend.state(backend.grid.n_steps))
    y_plus0 = {}
    for mode in MODES:
        y, z = solve_bsde(problem.driver(PLUS, mode), xi[0, mode - 1], backend)
        y_plus0[mode] = RbsdeSolution(y, z, FieldSurface.zeros(backend))

    big_l = {mode: y_plus0[mode].y + costs.b[mode - 1] for mode in MODES}

    shifted = [_ShiftedDriver(problem.driver(PLUS, mode), problem.b[mode - 1]) for mode in MODES]
    alpha = _MinDriver(shifted + [problem.driver(MINUS, mode) for mode in MODES])

    T = problem.horizon
    dot_terminal = np.minimum.reduce([xi[0, mode - 1] + problem.b[mode - 1](T) for mode in MODES] + list(xi[1]))
    dot_y, _ = solve_bsde(alpha, dot_terminal, backend)

    # Lower-bound inequality seeding the cost side: dotY <= L^i and (with
    # ell > 0) dotY <= dotY + ell_i, at every node.
    for mode in MODES:
        bound = np.minimum(big_l[mode].data, dot_y.data + costs.ell[mode - 1])
        _check_order(dot_y.data, bound, backend, f"warm-start ordering violated for mode {mode}")

    return SchemeStart(y_plus0=y_plus0, big_l=big_l, dot_y=dot_y, alpha=alpha)


def _check_not_below(new: FieldSurface, old: FieldSurface, label: str):
    _check_order(old.data, new.data, new.backend, f"iterate monotonicity violated for {label}", "decrease")


def first_iterate(start: SchemeStart, problem: SwitchingProblem, backend: Lattice) -> Iterate:
    """First reflected sweep, seeded by the warm-start surfaces.

    The cost components stop at the minimum solution's horizon value and are
    capped by (profit + benefit) and (minimum + switching cost); the profit
    components are then floored by the usual switch/terminate barrier built
    from the stage-0 profits and the fresh cost components.
    """
    n = backend.grid.n_steps
    costs = node_costs(problem, backend)
    sol = {}
    for mode in MODES:
        cap = np.minimum(start.big_l[mode].data, start.dot_y.data + costs.ell[mode - 1])
        sol[(MINUS, mode)] = _reflect(problem, backend, MINUS, mode, cap, terminal=start.dot_y.at(n))
        _check_not_below(sol[(MINUS, mode)].y, start.dot_y, f"cost mode {mode} vs warm start")
    for mode in MODES:
        y_other, y_cost = start.y_plus0[other_mode(mode)].y.data, sol[(MINUS, mode)].y.data
        floor = np.maximum(y_other - costs.ell[mode - 1], y_cost - costs.a[mode - 1])
        sol[(PLUS, mode)] = _reflect(problem, backend, PLUS, mode, floor)
        _check_not_below(sol[(PLUS, mode)].y, start.y_plus0[mode].y, f"profit mode {mode} stage 0->1")
    return Iterate(n=1, sol=sol)


def iterate_once(prev: Iterate, problem: SwitchingProblem, backend: Lattice) -> Iterate:
    """One Picard sweep: cost pair (stage-n barriers), then profit pair
    (barriers mixing stage-n profit with stage-(n+1) cost)."""
    costs = node_costs(problem, backend)
    sol = {}
    for mode in MODES:
        y_other, y_profit = prev.y(MINUS, other_mode(mode)).data, prev.y(PLUS, mode).data
        cap = np.minimum(y_other + costs.ell[mode - 1], y_profit + costs.b[mode - 1])
        sol[(MINUS, mode)] = _reflect(problem, backend, MINUS, mode, cap)
        _check_not_below(sol[(MINUS, mode)].y, prev.y(MINUS, mode), f"cost mode {mode} stage {prev.n}")
    for mode in MODES:
        y_other, y_cost = prev.y(PLUS, other_mode(mode)).data, sol[(MINUS, mode)].y.data
        floor = np.maximum(y_other - costs.ell[mode - 1], y_cost - costs.a[mode - 1])
        sol[(PLUS, mode)] = _reflect(problem, backend, PLUS, mode, floor)
        _check_not_below(sol[(PLUS, mode)].y, prev.y(PLUS, mode), f"profit mode {mode} stage {prev.n}")
    return Iterate(n=prev.n + 1, sol=sol)


def _assert_system_constraints(solution: BalanceSheetSolution, obstacles: dict):
    """Barrier inequalities, increment signs, and complementarity sums on the
    converged block, against the barriers ``solution.obstacles()``; a failure
    names the first failing component in ``COMPONENTS`` order."""
    backend = solution.backend
    gap, dk = by_side("inside", solution.block("y"), stack(obstacles)), solution.block("dk")
    sko, terms = skorokhod_sum(gap, dk, backend, backend.grid.n_steps + 1), np.abs(gap) * dk
    for (side, mode), index in zip(COMPONENTS, np.ndindex(2, 2)):
        _check_order(-gap[index], 0.0, backend, f"barrier constraint violated for ({side},{mode})")
        _check_order(-dk[index], 0.0, backend, f"reflection increment negative for ({side},{mode})")
        if sko[index] > SKOROKHOD_CAP:
            k, j = backend.locate(int(np.argmax(terms[index])))
            raise SchemeError(
                f"complementarity sum {sko[index]:g} exceeds {SKOROKHOD_CAP:g} for ({side},{mode}); "
                f"largest term {terms[index].max():g} at step {k}, node {j}"
            )


def _certify_fixed_point(solution: BalanceSheetSolution, obstacles: dict):
    """Raise SchemeError unless one Picard sweep from the solution would move
    no node (see the module notes).

    Each term is the expression ``iterate_once`` evaluates at that node, so
    requiring bitwise equality makes this exactly as strict as the sweep.
    It runs on the whole block and names the first component that moves.
    """
    problem, backend, y = solution.problem, solution.backend, solution.block("y")
    end, e, z = backend.offsets[backend.grid.n_steps], backend.continuation(y), backend.martingale_increment(y)
    euler = e + problem.driver_table(backend).rate(slice(0, end), e, z) * backend.grid.dt
    settled = by_side("better", euler, stack(obstacles)[..., :end])
    miss = np.where(settled == y[..., :end], 0.0, np.abs(settled - y[..., :end]))
    for (side, mode), row in zip(COMPONENTS, miss.reshape(4, -1)):
        i = int(np.argmax(row))
        if row[i]:
            k, j = backend.locate(i)
            raise SchemeError(f"one Picard sweep would move ({side},{mode}) at step {k}, node {j} by {row[i]:g}")


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
    sol = backward_pass(rate, terminal, project, backend, COMPONENTS)
    solution = BalanceSheetSolution(problem=problem, backend=backend, sol=sol, trace=PassTrace(rounds))
    obstacles = solution.obstacles()
    _assert_system_constraints(solution, obstacles)
    _certify_fixed_point(solution, obstacles)
    return solution, solution.trace


def picard_system(
    problem: SwitchingProblem,
    backend: Lattice,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[BalanceSheetSolution, ConvergenceTrace]:
    """Reference solver: the Picard iteration to the minimal system solution.

    Stops when the sup-distance across all four Y surfaces falls below
    ``tol`` (backend-dependent default) or after ``max_iter`` sweeps; a
    non-converged trace is returned to the caller rather than raised.
    """
    if tol is None:
        tol = DEFAULT_TOL[backend.kind]
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    start = initialize_scheme(problem, backend)
    current = first_iterate(start, problem, backend)
    trace = ConvergenceTrace(tol=tol)
    for _ in range(max_iter):
        nxt = iterate_once(current, problem, backend)
        delta = max(nxt.y(side, mode).sup_diff(current.y(side, mode)) for side, mode in COMPONENTS)
        trace.deltas.append(delta)
        current = nxt
        if delta < tol:
            trace.converged = True
            break

    solution = BalanceSheetSolution(problem=problem, backend=backend, sol=current.sol, trace=trace)
    if trace.converged:
        _assert_system_constraints(solution, solution.obstacles())
    return solution, trace
