"""The paper's monotone Picard iteration, the reference the one-pass solver
(``scheme.solve_system``) is tested against.

``picard_system`` starts from the unreflected profit equations and the
minimum equation (``initialize_scheme``), then sweeps: each sweep freezes the
barriers at the previous stage and solves four single reflected equations,
cost pair first (stage-n barriers), then profit pair (barriers mixing the
stage-n profit with the fresh stage-(n+1) cost). Its caps and floors are
written out here rather than read from ``model``, so that it stays
independent of what it checks, and each sweep asserts that no value drops.
Every single equation is ``reflect``: a backward Euler loop of its own that
keeps each step's Z and Euler value, with the driver's rate from
``tabulate``, projected by a clip against its barrier. ``tabulate`` writes
the affine rate out apart from the package's ``DriverTable``, and
``derivative`` the drift of a cost coefficient, so the reference reads no
rate code of the package either. The iteration holds its components apart,
as flat node buffers (``Component``), and stacks them once, at the end, into
a ``ReferenceSolution``: a ``BalanceSheetSolution`` that keeps the
reference's own Z and dK blocks, where a solve derives them from Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from modeswitch.grid import Lattice
from modeswitch.model import (
    COMPONENTS,
    MINUS,
    MODES,
    PLUS,
    CoefficientFunction,
    Driver,
    ProblemError,
    SwitchingProblem,
    by_side,
    validate_assumptions,
)
from modeswitch.scheme import BalanceSheetSolution, SchemeError, _require_admissible

# Pointwise slack for the order assertions (float noise only; the discrete
# comparison argument is exact in exact arithmetic).
MONOTONICITY_SLACK = 1e-10
SKOROKHOD_CAP = 1e-8

DEFAULT_TOL = {"deterministic": 1e-8, "binomial": 1e-4}
DEFAULT_MAX_ITER = 500


class Component(NamedTuple):
    """Y, Z and dK of one equation, as flat buffers of node values."""

    y: np.ndarray
    z: np.ndarray
    dk: np.ndarray


def other_mode(mode: int) -> int:
    """The mode a switch leads to."""
    return 3 - mode


def tabulate(driver, times):
    """A driver's rate as a function of (k, x, y, z), where k indexes
    ``times``: c0(t_k) * feature(x) + c1 * y + c2 * z for a ``model.Driver``,
    with c0 evaluated once on all of the times. The composite drivers of the
    tests (``_ShiftedDriver``, ``_MinDriver``) bring their own ``tabulate``."""
    if not isinstance(driver, Driver):
        return driver.tabulate(times)
    c0 = on_times(driver.c0, times)

    def rate(k, x, y, z):
        base = c0[k] * x if driver.state_feature == "x" else c0[k]
        return base + driver.c1 * y + driver.c2 * z

    return rate


def on_times(coeff: CoefficientFunction, times):
    """A catalog coefficient at ``times``, an array or one number, shaped like them (the catalog reads a list of floats)."""
    return np.reshape(coeff(np.ravel(times).tolist()), np.shape(times))


def derivative(coeff: CoefficientFunction, t):
    """Time derivative of a catalog coefficient (the Ito drift U; the
    diffusion part is zero); refused for a coefficient declared without Ito data."""
    if not coeff.has_ito_data:
        raise ProblemError(f"coefficient {coeff.kind!r} declared without Ito data")
    t = np.asarray(t, dtype=float)
    if coeff.kind == "constant":
        return np.zeros_like(t)
    if coeff.kind == "exponential":
        c, gamma = coeff.params
        return c * gamma * np.exp(gamma * t)
    dcoeffs = tuple(k * c for k, c in enumerate(coeff.params))[1:] or (0.0,)
    return np.polynomial.polynomial.polyval(t, dcoeffs)


def reflect(driver, terminal, barrier, backend: Lattice, lower: bool = True) -> Component:
    """One equation, reflected up off a floor (``lower``) or down off a cap.

    ``driver`` is a ``model.Driver`` or a composite driver of the tests; its
    rate is ``tabulate``'s, not the package's ``DriverTable``. ``terminal`` is
    a number or the horizon node values; ``barrier`` is a flat buffer of node
    values, or None for the unreflected equation (K = 0).
    """
    if barrier is None:
        barrier = np.full(backend.size, -np.inf if lower else np.inf)
    tab, clip = tabulate(driver, backend.times), np.maximum if lower else np.minimum
    off, n = backend.offsets, backend.n_steps
    y, z, ytilde = np.empty(backend.size), np.zeros(backend.size), np.empty(backend.size)
    y[off[n] :] = ytilde[off[n] :] = terminal
    for k in range(n - 1, -1, -1):
        here = slice(off[k], off[k + 1])
        e, z[here] = backend.moments(y[off[k + 1] : off[k + 2]], k)
        ytilde[here] = e + tab(k, backend.state(k), e, z[here]) * backend.dt
        y[here] = clip(ytilde[here], barrier[here])
    return Component(y, z, np.abs(y - ytilde))


class ReferenceSolution(BalanceSheetSolution):
    """The reference's solution record: Y, and the Z and dK blocks its own
    passes kept, which ``increments`` reads where a solve derives them."""

    own_z: np.ndarray
    own_dk: np.ndarray

    def increments(self, start, stop, steps=None, states=None):
        nodes = slice(self.backend.offsets[start], self.backend.offsets[stop])
        e, euler = super().increments(start, stop, steps, states)[:2]
        return e, euler, self.own_z[..., nodes], self.own_dk[..., nodes]


class _ShiftedDriver:
    """Profit driver rewritten for the benefit-shifted unknown l = y + b(t)."""

    def __init__(self, base, b_coeff):
        self.base, self.b_coeff = base, b_coeff

    def tabulate(self, times):
        base = tabulate(self.base, times)
        b, db = on_times(self.b_coeff, times), derivative(self.b_coeff, times)
        return lambda k, x, l, z: base(k, x, l - b[k], z) - db[k]


class _MinDriver:
    """Pointwise minimum of several drivers."""

    def __init__(self, drivers):
        self.drivers = list(drivers)

    def __call__(self, t, x, y, z):
        return self.tabulate(t)(..., x, y, z)

    def tabulate(self, times):
        rates = [tabulate(d, times) for d in self.drivers]
        return lambda k, x, y, z: np.minimum.reduce([rate(k, x, y, z) for rate in rates])


@dataclass(frozen=True)
class SchemeStart:
    """Warm-start data: unreflected profit solutions, their benefit shifts, and
    the auxiliary minimum solution bounding the cost side from below."""

    y_plus0: dict
    big_l: dict
    dot_y: np.ndarray
    alpha: _MinDriver


@dataclass(frozen=True)
class Iterate:
    n: int
    sol: dict

    def y(self, side: str, mode: int) -> np.ndarray:
        return self.sol[(side, mode)].y

    @classmethod
    def of(cls, solution: BalanceSheetSolution, n: int) -> "Iterate":
        """The iterate whose components are views of the rows of a solution's blocks."""
        fields = (block.reshape(4, -1) for block in (solution.y, solution.z, solution.dk))
        rows = (Component(*comp) for comp in zip(*fields))
        return cls(n, dict(zip(COMPONENTS, rows)))

    def stacked(self, name: str) -> np.ndarray:
        """One field (y, z or dk) of the four components as a (side, mode, node) block."""
        return np.stack([getattr(self.sol[key], name) for key in COMPONENTS]).reshape(2, 2, -1)


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


def node_costs(problem: SwitchingProblem, backend: Lattice):
    """The six costs at every lattice node, from one table on the grid times."""
    return problem.tabulate(backend.float_times)[1].array().at(backend.nodes(0, backend.n_steps + 1)[1])


def _reflect(problem: SwitchingProblem, backend: Lattice, side: str, mode: int, barrier, terminal=None):
    """One component reflected off a flat barrier buffer: up off a floor on
    the profit side, down off a cap on the cost side."""
    if terminal is None:
        terminal = problem.terminal(side, mode)(backend.state(backend.n_steps))
    return reflect(problem.driver(side, mode), terminal, barrier, backend, lower=side == PLUS)


def initialize_scheme(problem: SwitchingProblem, backend: Lattice) -> SchemeStart:
    """Warm-start stage: unreflected profit equations and the minimum equation."""
    _require_admissible(validate_assumptions(problem, backend))
    costs, xi = node_costs(problem, backend), problem.terminal_block(backend.state(backend.n_steps))
    y_plus0 = {mode: reflect(problem.driver(PLUS, mode), xi[0, mode - 1], None, backend) for mode in MODES}
    big_l = {mode: y_plus0[mode].y + costs.b[mode - 1] for mode in MODES}

    shifted = [_ShiftedDriver(problem.driver(PLUS, mode), problem.b[mode - 1]) for mode in MODES]
    alpha = _MinDriver(shifted + [problem.driver(MINUS, mode) for mode in MODES])

    T = problem.horizon
    dot_terminal = np.minimum.reduce([xi[0, mode - 1] + problem.b[mode - 1]([T])[0] for mode in MODES] + list(xi[1]))
    dot_y = reflect(alpha, dot_terminal, None, backend).y

    # Lower-bound inequality seeding the cost side: dotY <= L^i and (with
    # ell > 0) dotY <= dotY + ell_i, at every node.
    for mode in MODES:
        bound = np.minimum(big_l[mode], dot_y + costs.ell[mode - 1])
        _check_order(dot_y, bound, backend, f"warm-start ordering violated for mode {mode}")

    return SchemeStart(y_plus0=y_plus0, big_l=big_l, dot_y=dot_y, alpha=alpha)


def _check_not_below(new: np.ndarray, old: np.ndarray, backend: Lattice, label: str):
    _check_order(old, new, backend, f"iterate monotonicity violated for {label}", "decrease")


def first_iterate(start: SchemeStart, problem: SwitchingProblem, backend: Lattice) -> Iterate:
    """First reflected sweep, seeded by the warm-start surfaces.

    The cost components stop at the minimum solution's horizon value and are
    capped by (profit + benefit) and (minimum + switching cost); the profit
    components are then floored by the usual switch/terminate barrier built
    from the stage-0 profits and the fresh cost components.
    """
    n = backend.n_steps
    costs = node_costs(problem, backend)
    sol = {}
    for mode in MODES:
        cap = np.minimum(start.big_l[mode], start.dot_y + costs.ell[mode - 1])
        sol[(MINUS, mode)] = _reflect(problem, backend, MINUS, mode, cap, terminal=start.dot_y[backend.offsets[n] :])
        _check_not_below(sol[(MINUS, mode)].y, start.dot_y, backend, f"cost mode {mode} vs warm start")
    for mode in MODES:
        y_other, y_cost = start.y_plus0[other_mode(mode)].y, sol[(MINUS, mode)].y
        floor = np.maximum(y_other - costs.ell[mode - 1], y_cost - costs.a[mode - 1])
        sol[(PLUS, mode)] = _reflect(problem, backend, PLUS, mode, floor)
        _check_not_below(sol[(PLUS, mode)].y, start.y_plus0[mode].y, backend, f"profit mode {mode} stage 0->1")
    return Iterate(n=1, sol=sol)


def iterate_once(prev: Iterate, problem: SwitchingProblem, backend: Lattice) -> Iterate:
    """One Picard sweep: cost pair (stage-n barriers), then profit pair
    (barriers mixing stage-n profit with stage-(n+1) cost)."""
    costs = node_costs(problem, backend)
    sol = {}
    for mode in MODES:
        y_other, y_profit = prev.y(MINUS, other_mode(mode)), prev.y(PLUS, mode)
        cap = np.minimum(y_other + costs.ell[mode - 1], y_profit + costs.b[mode - 1])
        sol[(MINUS, mode)] = _reflect(problem, backend, MINUS, mode, cap)
        _check_not_below(sol[(MINUS, mode)].y, prev.y(MINUS, mode), backend, f"cost mode {mode} stage {prev.n}")
    for mode in MODES:
        y_other, y_cost = prev.y(PLUS, other_mode(mode)), sol[(MINUS, mode)].y
        floor = np.maximum(y_other - costs.ell[mode - 1], y_cost - costs.a[mode - 1])
        sol[(PLUS, mode)] = _reflect(problem, backend, PLUS, mode, floor)
        _check_not_below(sol[(PLUS, mode)].y, prev.y(PLUS, mode), backend, f"profit mode {mode} stage {prev.n}")
    return Iterate(n=prev.n + 1, sol=sol)


def skorokhod_sum(gap: np.ndarray, dk: np.ndarray, backend: Lattice, n_steps: int):
    """Sum over steps 0..n_steps-1 of max over nodes of |gap| * dK, added
    left to right like a step-by-step loop would; one per row of a block."""
    end = backend.offsets[n_steps]
    per_step = np.maximum.reduceat((np.abs(gap) * dk)[..., :end], backend.offsets[:n_steps], axis=-1)
    return np.cumsum(per_step, axis=-1)[..., -1]


def _assert_system_constraints(solution: BalanceSheetSolution, obstacles: np.ndarray):
    """Barrier inequalities, increment signs, and complementarity sums on the
    converged block, against the barriers of ``conftest.whole_block_contacts``;
    a failure names the first failing component in ``COMPONENTS`` order."""
    backend = solution.backend
    gap, dk = by_side("inside", solution.y, obstacles), solution.dk
    sko, terms = skorokhod_sum(gap, dk, backend, backend.n_steps + 1), np.abs(gap) * dk
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
        delta = max(float(np.max(np.abs(nxt.y(side, mode) - current.y(side, mode)))) for side, mode in COMPONENTS)
        trace.deltas.append(delta)
        current = nxt
        if delta < tol:
            trace.converged = True
            break

    solution = ReferenceSolution(problem, backend, *map(current.stacked, ("y", "z", "dk")))
    if trace.converged:
        from conftest import whole_block_contacts  # conftest imports this module

        _assert_system_constraints(solution, whole_block_contacts(solution)[0])
    return solution, trace
