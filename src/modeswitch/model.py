"""Problem data for the two-modes switch/terminate valuation.

A problem couples four running yields: an expected profit and an expected cost
per mode. Each yield may stop by switching to the other mode (paying the
switching cost ``ell``) or by terminating the project (paying ``a`` on the
profit side, receiving ``b`` on the cost side). The four value processes act
as each other's barriers. This module holds the static data, the admissibility
checks the solver relies on, and the whole barrier algebra: each barrier is
the better of a switch and a terminate branch (``branches``), "better" is the
larger on the profit side, where the barrier is a floor, and the smaller on
the cost side, where it is a cap, and a tie between the branches switches.
``closure`` solves one side exactly for the other side held. Every other
module reads the direction of a side from here.
The four components form one (side, mode, node) block, ``COMPONENTS`` its
rows in C order; costs are stacked by mode, and the other mode of a side is
its reversed mode axis, a view. ``SwitchingProblem.tabulate`` evaluates the
four drivers (``DriverTable``) and the six costs once. The catalog, the
terminals and the validator compute in Python floats, so that validating
loads no numpy; the array algebra reaches it by ``grid.np``.
Every record of the package is a ``Record``: a frozen value class that
inherits its methods, so that defining one compiles no code at import.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Callable, Mapping, NamedTuple

from .grid import _is_horizon, np

PLUS = "plus"
MINUS = "minus"
SIDES = (PLUS, MINUS)  # the side axis of a (side, mode, node) block
MODES = (1, 2)
COMPONENTS = tuple((side, mode) for side in SIDES for mode in MODES)
STATE_FEATURES = ("one", "x")  # what a driver's c0 is scaled by: 1, or the lattice state

# Absolute slack when comparing terminal inequalities; absorbs float
# evaluation of the exponential cost catalog.
BOUNDARY_SLACK = 1e-12

# Step guard of the explicit backward scheme, the validator's A6 check:
# dt * Lipschitz below this keeps the one-step operator a contraction in y.
STABILITY_LIMIT = 0.5


def _is_mode(mode) -> bool:
    """Whether ``mode`` is one of ``MODES``, as an int: a bool or float is not."""
    return not isinstance(mode, bool) and isinstance(mode, int) and mode in MODES


def row(side: str, mode: int) -> tuple[int, int]:
    """The index of a component's row in a (side, mode, ...) block; a pair
    that is not one of the four ``COMPONENTS`` is refused, so no mode indexes from the end."""
    if side not in SIDES or not _is_mode(mode):
        raise ValueError(
            f"no component ({side!r}, {mode!r}): side must be '{PLUS}' or '{MINUS}' and mode the integer 1 or 2"
        )
    return SIDES.index(side), mode - 1


class ProblemError(ValueError):
    """Raised for malformed or inadmissible problem data."""


class SchemeError(RuntimeError):
    """A solve failed a check; signals a discretization or configuration bug."""


class LocalSweepError(SchemeError):
    """The one-step projection at a node did not settle within ``scheme.LOCAL_SWEEP_CAP`` rounds."""


class Record:
    """The base of every record of the package: a frozen value class, built
    from these shared methods rather than from generated code. A record's
    fields are its class body's annotated names, in order, and a class
    attribute of the same name is a field's default; its instance dict holds
    its fields, and a ``cached_property`` once read, which no method here
    reads. The constructor binds by position or keyword, then runs the
    class's ``__post_init__`` if it has one. Records are equal when of one
    type with equal fields."""

    def __init_subclass__(cls):  # a subclass of a record adds its own fields after its parent's
        cls._fields = tuple(dict.fromkeys((*getattr(cls, "_fields", ()), *vars(cls).get("__annotations__", ()))))
        cls._defaults = {key: getattr(cls, key) for key in cls._fields if hasattr(cls, key)}

    def __init__(self, *args, **kwargs):
        fields, values = self._fields, {**self._defaults, **dict(zip(self._fields, args)), **kwargs}
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args) :]) or len(values) < len(fields):
            raise TypeError(f"{type(self).__name__}() takes {', '.join(fields)}, each once unless it has a default")
        vars(self).update((key, values[key]) for key in fields)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, key, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot {'set' if value else 'delete'} {key!r}")

    __delattr__ = __setattr__
    _values = property(lambda self: {key: vars(self)[key] for key in self._fields})  # the fields by name

    def __eq__(self, other):
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._values.values()))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{key}={value!r}' for key, value in self._values.items())})"

    def as_dict(self) -> dict:
        """The fields by name; a record among them, or in a dict among them, as its own ``as_dict``."""
        return _plain(self._values)


def _plain(value):
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value.as_dict() if isinstance(value, Record) else value


def replace(rec: Record, **changes) -> Record:
    """A copy of ``rec`` with ``changes``, built by its constructor, so every field check runs again."""
    return type(rec)(**{**rec._values, **changes})


class CoefficientFunction(Record):
    """Deterministic C^1 time coefficient from a small catalog.

    kinds:
      constant     params = (c,)          value c
      exponential  params = (c, gamma)    value c * exp(gamma * t)
      polynomial   params = (c0, c1, ..)  value sum c_k t^k

    Deterministic C^1 functions are trivially of Ito type with zero diffusion
    part; ``has_ito_data`` records whether the drift (time derivative) may be
    used, so that missing-Ito-data configurations are representable and
    detectable by the validator.
    """

    kind: str
    params: tuple[float, ...]
    has_ito_data: bool = True

    def __post_init__(self):
        if self.kind not in ("constant", "exponential", "polynomial"):
            raise ProblemError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "constant" and len(self.params) != 1:
            raise ProblemError("constant coefficient takes one parameter")
        if self.kind == "exponential" and len(self.params) != 2:
            raise ProblemError("exponential coefficient takes (level, rate)")
        if self.kind == "polynomial" and len(self.params) < 1:
            raise ProblemError("polynomial coefficient needs coefficients")

    @classmethod
    def constant(cls, c: float, has_ito_data: bool = True) -> "CoefficientFunction":
        return cls("constant", (float(c),), has_ito_data)

    @classmethod
    def exponential(cls, level: float, rate: float, has_ito_data: bool = True) -> "CoefficientFunction":
        return cls("exponential", (float(level), float(rate)), has_ito_data)

    @classmethod
    def polynomial(cls, coeffs, has_ito_data: bool = True) -> "CoefficientFunction":
        return cls("polynomial", tuple(float(c) for c in coeffs), has_ito_data)

    def __call__(self, times) -> list[float]:
        """The values at a list of times, in floats: ``polyval``'s Horner steps, the C library's ``exp``."""
        if self.kind == "constant":
            return [self.params[0] * 1.0] * len(times)
        if self.kind == "exponential":
            c, gamma = self.params
            try:
                return [c * math.exp(gamma * t) for t in times]
            except OverflowError:  # an exponent past the float range
                return [c * _exp(gamma * t) for t in times]
        *rest, last = self.params
        return [reduce(lambda value, c: c + value * t, reversed(rest), last + t * 0.0) for t in times]


def _exp(x: float) -> float:
    """``math.exp``, where an overflow reads inf, as in numpy."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


class Driver(Record):
    """Affine running yield rate psi(t, x, y, z) = c0(t)*feat(x) + c1*y + c2*z.

    ``state_feature`` is "one" (c0 purely time-dependent) or "x" (c0 scaled by
    the lattice state). The affine catalog makes the Lipschitz requirement
    hold by construction with constant |c1| + |c2|.
    """

    mode: int
    side: str
    c0: CoefficientFunction
    c1: float = 0.0
    c2: float = 0.0
    state_feature: str = "one"

    def __post_init__(self):
        """Each message starts with the field it names; ``io`` prefixes the driver's place in a file."""
        if not _is_mode(self.mode):
            raise ProblemError("mode must be the integer 1 or 2")
        if self.side not in SIDES:
            raise ProblemError(f"side must be '{PLUS}' or '{MINUS}'")
        if self.state_feature not in STATE_FEATURES:  # true, null and 1 included
            raise ProblemError(f"state_feature must be one of {', '.join(map(repr, STATE_FEATURES))}")

    @property
    def lipschitz(self) -> float:
        return abs(self.c1) + abs(self.c2)


class DriverTable(NamedTuple):
    """The four drivers as one table on a lattice's times, in float rows or (``array``) numpy arrays:
    c0(t_k), whether each scales it by the state x, and c1, c2 columns. ``rate`` is the
    package's one formula of the affine rate: the backward pass, the
    certificate, the derived dK, the audit and the policy replay all evaluate
    the driver through it, at nodes given by their steps and states."""

    c0: np.ndarray  # (2, 2, N + 1)
    on_state: np.ndarray  # (2, 2, 1), bool
    c1: np.ndarray  # (2, 2, 1)
    c2: np.ndarray  # (2, 2, 1)

    def array(self) -> "DriverTable":
        """The same table as numpy arrays, each (2, 2, ...), the copy that array code reads."""
        return DriverTable(*(np.reshape(f, (2, 2, -1)) for f in self))

    def rate(self, steps, x, y, z):
        """The four rates c0(t_k) * feature(x) + c1 y + c2 z (feature 1.0 or x) at nodes of ``steps`` (an
        index of the times) and states ``x``, for (2, 2, nodes) blocks y and z."""
        return (self.c0[..., steps] * np.where(self.on_state, x, 1.0) + self.c1 * y) + self.c2 * z


class Terminal(Record):
    """Horizon value xi(x) = intercept + slope * x.

    Constant terminals (slope 0) are the deterministic-backend case; the
    lattice backend may use the state-affine form.
    """

    intercept: float
    slope: float = 0.0

    def __call__(self, states) -> list[float]:
        return [self.intercept + self.slope * x for x in states]


class SwitchingProblem(Record):
    """Full data of one two-modes balance-sheet switching problem."""

    horizon: float
    drivers: Mapping[tuple[str, int], Driver]
    ell: tuple[CoefficientFunction, CoefficientFunction]
    a: tuple[CoefficientFunction, CoefficientFunction]
    b: tuple[CoefficientFunction, CoefficientFunction]
    terminals: Mapping[tuple[str, int], Terminal]

    def __post_init__(self):
        if not _is_horizon(self.horizon):
            raise ProblemError(f"'horizon' must be positive and finite, got {self.horizon!r}")
        for key in COMPONENTS:
            if key not in self.drivers:
                raise ProblemError(f"missing driver for component {key}")
            if (own := (self.drivers[key].side, self.drivers[key].mode)) != key:
                raise ProblemError(f"the driver filed under component {key} is the driver of {own}")
            if key not in self.terminals:
                raise ProblemError(f"missing terminal for component {key}")
        for name, pair in (("ell", self.ell), ("a", self.a), ("b", self.b)):
            if len(pair) != 2:
                raise ProblemError(f"cost family {name!r} needs one entry per mode")

    def driver(self, side: str, mode: int) -> Driver:
        return self.drivers[(side, mode)]

    def terminal(self, side: str, mode: int) -> Terminal:
        return self.terminals[(side, mode)]

    def terminal_block(self, x) -> np.ndarray:
        """The four horizon values at states ``x`` (floats), as a (side, mode, node) block."""
        return np.array([[self.terminal(side, mode)(x) for mode in MODES] for side in SIDES], dtype=float)

    def tabulate(self, times) -> tuple[DriverTable, "CostSlice"]:
        """The four drivers and the six costs (stacked by mode) at ``times`` (floats), in float rows, one
        call per coefficient: the validator reads them, and their ``array`` copies feed the array code."""
        drivers = [self.driver(side, mode) for side, mode in COMPONENTS]
        table = DriverTable(*zip(*((d.c0(times), d.state_feature == "x", d.c1, d.c2) for d in drivers)))
        return table, CostSlice(*((first(times), second(times)) for first, second in (self.ell, self.a, self.b)))


class CostSlice(NamedTuple):
    """The six costs, each stacked by mode: float rows, or arrays (2,) at one time or (2, ...) over times or nodes."""

    ell: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def at(self, index) -> "CostSlice":
        """The same six costs indexed by ``index`` (a time or node selection) on their last axis."""
        return CostSlice(*(c[..., index] for c in self))

    def array(self) -> "CostSlice":
        """The same costs as numpy arrays: the copy of ``SwitchingProblem.tabulate``'s rows that array code reads."""
        return CostSlice(*(np.array(c, dtype=float) for c in self))


def _max(a: float, b: float) -> float:
    """``np.maximum`` of two floats (``_min``: ``np.minimum``): a NaN wins, a tie such as (0.0, -0.0) gives ``b``."""
    return a if a > b or a != a else b


def _min(a: float, b: float) -> float:
    return a if a < b or a != a else b


class _Push(NamedTuple):
    """The way one side's value is held by its barrier."""

    better: Callable  # the better of two values: np.maximum on a floor, np.minimum under a cap
    sign: float  # +1 where the value is pushed up, -1 where it is pushed down
    better_float: Callable  # ``better`` of two Python floats, in Python: _max on a floor, _min under a cap

    def inside(self, y, barrier):
        """How far ``y`` sits inside its barrier: above a floor, below a cap;
        negative where it crosses. The same bits as y - barrier on a floor
        and barrier - y under a cap, signed zeros included."""
        return self.sign * y - self.sign * barrier


# The one place that says which way each side is pushed: profit up off a
# floor, cost down off a cap. Package-internal: the solver, the replay and the
# audit read a side's direction and gap from here. numpy's rules are looked up at the call, not at import.
_PUSH = {PLUS: _Push(lambda a, b: np.maximum(a, b), 1.0, _max), MINUS: _Push(lambda a, b: np.minimum(a, b), -1.0, _min)}


def branches(own: np.ndarray, switched: np.ndarray, costs: CostSlice, side: str) -> tuple:
    """The (switch, terminate) branch values of one side, from a (side, ...)
    block ``own`` of the yields, the block ``switched`` of the same yields in
    the other mode, and their costs (broadcast over the trailing axes).

    Profit in mode i may switch (the other mode's profit minus ell_i) or
    terminate (its own cost minus a_i); cost in mode i may switch (the other
    mode's cost plus ell_i) or terminate (its own profit plus b_i). On a
    (side, mode, ...) block the other mode is the reversed mode axis, a view.
    """
    s = SIDES.index(side)
    return _switch(switched[s], costs.ell, side), _terminate(own[1 - s], costs, side)


def _switch(switched, ell, side: str):
    """The switch branch from the other mode's values ``switched``."""
    return switched - ell if side == PLUS else switched + ell


def _terminate(other, costs: CostSlice, side: str):
    return other - costs.a if side == PLUS else other + costs.b


def closure(ytilde: np.ndarray, other: np.ndarray, costs: CostSlice, side: str) -> np.ndarray:
    """The one solution of one side's equations Y = better(y~, switch(Y),
    terminate) for the other side's row ``other`` held fixed, stacked by mode:
    r = better(y~, terminate), then better(r, switch(r)). A switch there and
    back only loses (ell_1 + ell_2 > 0, and a float sum never falls below its
    larger term), so one switch step closes the mode cycle exactly."""
    better = _PUSH[side].better
    r = better(ytilde, _terminate(other, costs, side))
    return better(r, _switch(r[::-1], costs.ell, side))


def evaluate_obstacles(y: np.ndarray, costs: CostSlice) -> tuple[np.ndarray, np.ndarray]:
    """All four barrier values, as a block shaped like ``y``: each mode's better
    branch, the larger under a profit floor and the smaller over a cost cap;
    and the boolean block of where a stop switches rather than terminates:
    where the barrier is the switch branch, so a tie switches."""
    return _obstacles(y, y[:, ::-1], costs)


def mode_obstacles(y: np.ndarray, costs: CostSlice, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of one mode of ``evaluate_obstacles``, each a (side, ...) block, built for that mode alone."""
    i = mode - 1
    return _obstacles(y[:, i], y[:, 1 - i], CostSlice(*(c[i] for c in costs)))


def _obstacles(own, switched, costs: CostSlice):
    """Barrier and switch blocks from the ``branches`` of both sides."""
    pairs = [branches(own, switched, costs, side) for side in SIDES]
    barrier = np.stack([_PUSH[side].better(*pair) for side, pair in zip(SIDES, pairs)])
    return barrier, np.stack([s == switch for s, (switch, _) in zip(barrier, pairs)])


def by_side(name: str, *blocks) -> np.ndarray:
    """``_PUSH[side].<name>`` applied to each side's rows of (side, mode, ...) blocks, stacked back."""
    return np.stack([getattr(_PUSH[side], name)(*(b[s] for b in blocks)) for s, side in enumerate(SIDES)])


class CheckResult(Record):
    name: str
    passed: bool
    detail: str = ""
    at_time: float | None = None
    value: float | None = None


class ValidationReport(Record):
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            loc = f" at t={c.at_time:g}" if c.at_time is not None else ""
            val = f" (value {c.value:g})" if c.value is not None else ""
            out.append(f"[{status}] {c.name}{loc}{val}: {c.detail}" if c.detail else f"[{status}] {c.name}{loc}{val}")
        return out


def _first_violation(where, values, ok) -> tuple:
    """(location, value) of the first of ``values`` that fails the test ``ok``, else (None, None)."""
    return (None, None) if all(map(ok, values)) else next((t, v) for t, v in zip(where, values) if not ok(v))


def validate_assumptions(problem: SwitchingProblem, lattice) -> ValidationReport:
    """Check the admissibility of a problem on a given lattice: ``validate`` with the tables on its times."""
    return validate(problem, lattice, *problem.tabulate(lattice.float_times))


def validate(problem: SwitchingProblem, lattice, table: DriverTable, costs: CostSlice) -> ValidationReport:
    """Check the admissibility of a problem on a given lattice, in Python floats, from its tables
    on the lattice's times (``SwitchingProblem.tabulate``'s float rows); a solve passes its own.

    Covers: a lattice that spans the problem's horizon, Lipschitz/
    integrability of the four drivers, positivity of the switching costs,
    square-integrable terminals with the four boundary
    inequalities at every terminal node of the lattice, the discrete
    comparison condition of the one-step map, the step size, and availability
    of Ito data (closed-form drift) for the ``b`` and ``ell`` cost processes.
    Reports every check, each at its first failure; never raises.
    """
    checks = []

    def add(name, passed, detail="", at_time=None, value=None):
        checks.append(CheckResult(name, bool(passed), detail, at_time, value))

    spans = lattice.horizon == problem.horizon
    add("T lattice horizon", spans, f"lattice horizon {lattice.horizon!r}, problem horizon {problem.horizon!r}")

    times, T = lattice.float_times, lattice.horizon

    for (side, mode), c0 in zip(COMPONENTS, table.c0):
        drv = problem.driver(side, mode)
        finite = math.isfinite if math.isfinite(drv.lipschitz) else lambda v: False  # else the check fails at t = 0
        t_bad, v_bad = _first_violation(times, c0, finite)
        detail = f"Lipschitz constant {drv.lipschitz:g}; psi(.,0,0) finite on grid"
        add(f"A1 driver psi_{side}_{mode}", t_bad is None, detail, t_bad, v_bad)

    for i, mode in enumerate(MODES):
        t_bad, v_bad = _first_violation(times, costs.ell[i], lambda v: 0.0 < v < math.inf)
        add(f"A2 switching cost ell_{mode} > 0", t_bad is None, "strictly positive at every grid time", t_bad, v_bad)
        for fam_name, fam in (("a", costs.a), ("b", costs.b)):
            t_bad, v_bad = _first_violation(times, fam[i], math.isfinite)
            add(f"A2 cost {fam_name}_{mode} finite", t_bad is None, at_time=t_bad, value=v_bad)

    # Terminal data at every terminal node of the lattice; a failure names the first failing node.
    # The margins are ``evaluate_obstacles``'s barriers, node by node, in floats.
    x_T = lattice.float_states(lattice.n_steps)
    xi = [[problem.terminal(side, mode)(x_T) for mode in MODES] for side in SIDES]
    for (side, mode), values in zip(COMPONENTS, xi[0] + xi[1]):
        j_bad, v_bad = _first_violation(range(len(values)), values, math.isfinite)
        detail = "finite at every terminal node" if j_bad is None else f"not finite at node {j_bad}"
        add(f"A3 terminal xi_{side}_{mode} square integrable", j_bad is None, detail, value=v_bad)
    for (side, mode), (s, i) in zip(COMPONENTS, ((0, 0), (0, 1), (1, 0), (1, 1))):
        push, last = _PUSH[side], CostSlice(*(pair[i][-1] for pair in costs))  # mode i's costs at T
        margin = [
            push.inside(y, push.better_float(_switch(w, last.ell, side), _terminate(o, last, side)))
            for y, w, o in zip(xi[s][i], xi[s][1 - i], xi[1 - s][i])
        ]
        # the first node below the slack, else the one of the smallest margin
        j, m = min(enumerate(margin), key=lambda node: (True, node[1]) if node[1] >= -BOUNDARY_SLACK else (False,))
        add(f"BC terminal xi_{side}_{mode}", m >= -BOUNDARY_SLACK, f"margin {m:.3g} at node {j}", T, m)

    # Discrete comparison: the one-step map y = E + psi * dt, with
    # E = (u + v) / 2 and z = (u - v) / (2 sqrt(dt)) over the two children
    # u, v, is nondecreasing in both exactly when |c2| * spread <= 1 + c1 * dt
    # (spread = 0 on the width-1 lattice). Minimality of the Picard limit and
    # the scheme's order assertions rely on it.
    for side, mode in COMPONENTS:
        drv = problem.driver(side, mode)
        margin = 1.0 + drv.c1 * lattice.dt - abs(drv.c2) * lattice.spread
        detail = "one-step map monotone: |c2| sqrt(dt) <= 1 + c1 dt"
        add(f"A5 comparison psi_{side}_{mode}", margin >= 0.0, detail, value=margin)
    for side, mode in COMPONENTS:  # the step guard of the explicit scheme (``scheme.backward_pass``)
        step = lattice.dt * problem.driver(side, mode).lipschitz
        detail = f"dt (|c1| + |c2|) < {STABILITY_LIMIT:g}; a larger time step is too coarse"
        add(f"A6 step size psi_{side}_{mode}", step < STABILITY_LIMIT, detail, value=step)

    detail = "closed-form drift available (deterministic catalog, zero diffusion)"
    for i, mode in enumerate(MODES):
        for name, pair in (("b", problem.b), ("ell", problem.ell)):
            add(f"A4 Ito data for {name}_{mode}", pair[i].has_ito_data, detail)
    return ValidationReport(tuple(checks))
