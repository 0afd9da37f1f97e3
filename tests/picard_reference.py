"""The paper's monotone Picard iteration, the reference the one-pass solver
(``scheme.solve_system``) is tested against.

``picard_system`` starts from the unreflected profit equations and the
minimum equation (``initialize_scheme``), then sweeps: each sweep freezes the
barriers at the previous stage and solves four single reflected equations,
cost pair first (stage-n barriers), then profit pair (barriers mixing the
stage-n profit with the fresh stage-(n+1) cost). Its caps and floors are
written out here rather than read from ``model``, so that it stays
independent of what it checks, and each sweep asserts that no value drops.
Every single equation is ``reflect``: the production ``rbsde.backward_pass``
with the driver's own rate, projected by a clip against its barrier. The
iteration holds its components apart, as surfaces (``Component``), and stacks
them into the (side, mode, node) blocks of a ``BalanceSheetSolution`` once, at
the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from modeswitch.grid import FieldSurface, Lattice
from modeswitch.model import COMPONENTS, MINUS, MODES, PLUS, SwitchingProblem, by_side, other_mode
from modeswitch.rbsde import backward_pass
from modeswitch.scheme import BalanceSheetSolution, SchemeError, _require_admissible, node_costs
from modeswitch.verify import skorokhod_sum

# Pointwise slack for the order assertions (float noise only; the discrete
# comparison argument is exact in exact arithmetic).
MONOTONICITY_SLACK = 1e-10
SKOROKHOD_CAP = 1e-8

DEFAULT_TOL = {"deterministic": 1e-8, "binomial": 1e-4}
DEFAULT_MAX_ITER = 500


class Component(NamedTuple):
    """Y, Z and dK of one equation, as surfaces."""

    y: FieldSurface
    z: FieldSurface
    dk: FieldSurface


def reflect(driver, terminal, barrier, backend: Lattice, lower: bool = True) -> Component:
    """One equation, reflected up off a floor (``lower``) or down off a cap.

    ``driver`` has ``tabulate(times)`` (see ``model.Driver``); ``terminal`` is
    a number or the horizon node values; ``barrier`` is a flat buffer of node
    values, or None for the unreflected equation (K = 0).
    """
    if barrier is None:
        barrier = np.full(backend.size, -np.inf if lower else np.inf)
    tab, clip, off = driver.tabulate(backend.grid.times), np.maximum if lower else np.minimum, backend.offsets
    rate = lambda k, y, z: tab(k, backend.state(k), y, z)  # noqa: E731
    project = lambda ytilde, k: clip(ytilde, barrier[off[k] : off[k + 1]])  # noqa: E731
    terminal = np.full(backend.n_nodes(backend.grid.n_steps), terminal, dtype=float)
    return Component(*(FieldSurface(backend, f) for f in backward_pass(rate, terminal, project, backend)))


class _ShiftedDriver:
    """Profit driver rewritten for the benefit-shifted unknown l = y + b(t)."""

    def __init__(self, base, b_coeff):
        self.base, self.b_coeff = base, b_coeff

    def tabulate(self, times):
        base = self.base.tabulate(times)
        b, db = np.asarray(self.b_coeff(times)), np.asarray(self.b_coeff.derivative(times))
        return lambda k, x, l, z: base(k, x, l - b[k], z) - db[k]


class _MinDriver:
    """Pointwise minimum of several drivers."""

    def __init__(self, drivers):
        self.drivers = list(drivers)

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

    @classmethod
    def of(cls, solution: BalanceSheetSolution, n: int) -> "Iterate":
        """The iterate whose components are views of the rows of a solution's blocks."""
        fields = (block.reshape(4, -1) for block in (solution.y, solution.z, solution.dk))
        rows = (Component(*(FieldSurface(solution.backend, r) for r in comp)) for comp in zip(*fields))
        return cls(n, dict(zip(COMPONENTS, rows)))

    def stacked(self, name: str) -> np.ndarray:
        """One field (y, z or dk) of the four components as a (side, mode, node) block."""
        return np.stack([getattr(self.sol[key], name).data for key in COMPONENTS]).reshape(2, 2, -1)


@dataclass
class ConvergenceTrace:
    tol: float
    deltas: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.deltas)


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
    if terminal is None:
        terminal = problem.terminal(side, mode)(backend.state(backend.grid.n_steps))
    return reflect(problem.driver(side, mode), terminal, barrier, backend, lower=side == PLUS)


def initialize_scheme(problem: SwitchingProblem, backend: Lattice) -> SchemeStart:
    """Warm-start stage: unreflected profit equations and the minimum equation."""
    _require_admissible(problem, backend)
    costs, xi = node_costs(problem, backend), problem.terminal_block(backend.state(backend.grid.n_steps))
    y_plus0 = {mode: reflect(problem.driver(PLUS, mode), xi[0, mode - 1], None, backend) for mode in MODES}
    big_l = {mode: FieldSurface(backend, y_plus0[mode].y.data + costs.b[mode - 1]) for mode in MODES}

    shifted = [_ShiftedDriver(problem.driver(PLUS, mode), problem.b[mode - 1]) for mode in MODES]
    alpha = _MinDriver(shifted + [problem.driver(MINUS, mode) for mode in MODES])

    T = problem.horizon
    dot_terminal = np.minimum.reduce([xi[0, mode - 1] + problem.b[mode - 1](T) for mode in MODES] + list(xi[1]))
    dot_y = reflect(alpha, dot_terminal, None, backend).y

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


def _assert_system_constraints(solution: BalanceSheetSolution, obstacles: np.ndarray):
    """Barrier inequalities, increment signs, and complementarity sums on the
    converged block, against the barriers ``solution.obstacles()``; a failure
    names the first failing component in ``COMPONENTS`` order."""
    backend = solution.backend
    gap, dk = by_side("inside", solution.y, obstacles), solution.dk
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


def picard_system(problem: SwitchingProblem, backend: Lattice, tol: float | None = None, max_iter: int = DEFAULT_MAX_ITER):
    """The Picard iteration to the minimal system solution.

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

    solution = BalanceSheetSolution(problem, backend, *map(current.stacked, ("y", "z", "dk")), trace)
    if trace.converged:
        _assert_system_constraints(solution, solution.obstacles())
    return solution, trace
