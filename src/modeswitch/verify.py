"""Fixture library and residual auditor.

Houses the closed-form non-uniqueness fixture (two exact solutions of the same
problem, one where the cost side carries the reflection mass and one where the
profit side does), and an auditor that recomputes every defining relation of
the system on the (side, mode, node) blocks of Y, Z and dK of one
``scheme.BalanceSheetSolution`` (E_k[Y_{k+1}], Z and dK as its ``increments``
gives them for a step chunk's nodes, with its tables): per-step equation
residuals, barrier inequalities, complementarity sums, increment signs, and
the empirical reflection density. A family sampled on a lattice is such a
record of the fixture problem (``SampledFamily``, whose dK is the trapezoid
of the analytic density, stored, not derived from Y), as is a solve.

The auditor reports, it never judges; thresholds are evaluated separately so
the same numbers can back both CI gating and diagnostics.
"""

from __future__ import annotations

import numpy as np

from .grid import Lattice, _is_horizon
from .model import COMPONENTS, MINUS, MODES, PLUS, SIDES, _PUSH, CoefficientFunction, Driver, Record, SwitchingProblem
from .model import Terminal, by_side, evaluate_obstacles
from .scheme import BalanceSheetSolution

# Default step-residual threshold is RESIDUAL_RATE_SCALE * dt: ten times the
# largest curvature max|y''| among the closed-form fixtures at T=1 (the
# steeper family's mode-2 component, |y''| ~ 37.5). Lattice-independent pass/fail.
RESIDUAL_RATE_SCALE = 375.0
CONSTRAINT_CAP = 1e-12
SKOROKHOD_CAP = 1e-10
K_SIGN_CAP = 1e-12
TERMINAL_CAP = 1e-9


def counterexample_problem(T: float = 1.0) -> SwitchingProblem:
    """The non-uniqueness fixture: unit terminals, switching cost exp(-4t),
    zero exit costs/benefits, and running rates y, y+ell, 2y, 2y+ell."""
    ell = CoefficientFunction.exponential(1.0, -4.0)
    zero = CoefficientFunction.constant(0.0)
    drivers = {
        (PLUS, 1): Driver(1, PLUS, zero, c1=1.0),
        (PLUS, 2): Driver(2, PLUS, ell, c1=1.0),
        (MINUS, 1): Driver(1, MINUS, zero, c1=2.0),
        (MINUS, 2): Driver(2, MINUS, ell, c1=2.0),
    }
    terminals = dict.fromkeys(COMPONENTS, Terminal(1.0))
    return SwitchingProblem(float(T), drivers, (ell, ell), (zero, zero), (zero, zero), terminals)


class ClosedFormFamily(Record):
    """One of the two exact solutions of the fixture problem on [0, T].

    family 1: mode-1 value e^{T-t}, reflection mass on the cost side;
    family 2: mode-1 value e^{2(T-t)}, reflection mass on the profit side.
    Both have Z = 0 and horizon value 1 in every component. Values are
    evaluated from the analytic expressions, never tabulated.
    """

    family_id: int
    horizon: float

    def __post_init__(self):
        if isinstance(self.family_id, bool) or not isinstance(self.family_id, int) or self.family_id not in (1, 2):
            raise ValueError(f"family_id must be the integer 1 or 2, got {self.family_id!r}")
        if not _is_horizon(self.horizon):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")

    def y(self, side: str, mode: int, t):
        t = np.asarray(t, dtype=float)
        T = self.horizon
        if self.family_id == 1:
            base = np.exp(T - t)
            if mode == 1:
                return base
            return base + (np.exp(-4.0 * t) - np.exp(-3.0 * T - t)) / 3.0
        base = np.exp(2.0 * (T - t))
        if mode == 1:
            return base
        return base + (np.exp(-4.0 * t) - np.exp(-2.0 * (T + t))) / 2.0

    def k_density(self, side: str, mode: int, t):
        t = np.asarray(t, dtype=float)
        reflected_side = MINUS if self.family_id == 1 else PLUS
        if side != reflected_side:
            return np.zeros_like(t)
        return self.y(side, mode, t)

    def sample(self, backend: Lattice) -> "SampledFamily":
        """Sampling at the lattice's times as a solution record of
        ``counterexample_problem``, which refuses a lattice on another horizon;
        increments use the trapezoid rule on the analytic reflection density."""
        times, at = backend.times, backend.nodes(0, backend.n_steps + 1)[1]
        y, dens = (np.array([[f(s, m, times) for m in MODES] for s in SIDES]) for f in (self.y, self.k_density))
        dk = np.zeros_like(dens)
        dk[..., :-1] = 0.5 * (dens[..., :-1] + dens[..., 1:]) * backend.dt
        return SampledFamily(counterexample_problem(self.horizon), backend, y[..., at], dk[..., at])


class SampledFamily(BalanceSheetSolution):
    """A closed-form family sampled on a lattice: its Z is derived from Y (0:
    Y depends on time alone), its dK, the ``trapezoid``, is not, so it is stored."""

    trapezoid: np.ndarray

    def increments(self, start: int, stop: int, steps=None, states=None) -> tuple[np.ndarray, ...]:
        off = self.backend.offsets
        return *super().increments(start, stop, steps, states)[:3], self.trapezoid[..., off[start] : off[stop]]


class ComponentResiduals(Record):
    max_step_residual: float
    max_constraint_violation: float
    skorokhod_sum: float
    k_sign_violation: float
    max_k_density: float
    terminal_mismatch: float


class ResidualReport(Record):
    dt: float
    components: dict

    def caps(self) -> dict:
        return {
            "max_step_residual": RESIDUAL_RATE_SCALE * self.dt,
            "max_constraint_violation": CONSTRAINT_CAP,
            "skorokhod_sum": SKOROKHOD_CAP,
            "k_sign_violation": K_SIGN_CAP,
            "terminal_mismatch": TERMINAL_CAP,
        }

    def failures(self) -> list[str]:
        caps = self.caps()  # in the field order of ComponentResiduals
        return [
            f"{key[0]}_{key[1]}.{name} = {value:.3g} > {cap:.3g}"
            for key, res in self.components.items()
            for name, cap in caps.items()
            if (value := getattr(res, name)) > cap
        ]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def max_over(self, name: str) -> float:
        return max(getattr(res, name) for res in self.components.values())

    def as_dict(self) -> dict:
        return {
            "dt": self.dt,
            "threshold_note": f"step residual cap = {RESIDUAL_RATE_SCALE:g} * dt "
            "(10x the largest closed-form curvature at T=1)",
            "caps": self.caps(),
            "components": {f"{s}_{m}": self.components[(s, m)].as_dict() for s, m in COMPONENTS},
            "passed": self.passed,
            "failures": self.failures(),
        }


def audit_solution(solution: BalanceSheetSolution) -> ResidualReport:
    """Recompute the system's defining relations for a candidate solution of
    its problem: a solve, a sampled family or surfaces read back from files.

    The per-step residual is measured per unit time with the running rate
    evaluated at (t_k, midpoint of Y_k and E_k[Y_{k+1}], Z_k); on the lattice
    the equation is audited in conditional expectation, which drops the
    martingale increment term. It runs by step chunks, then the horizon; the
    complementarity sum adds each step's largest |gap| * dK in step order."""
    problem, backend, dt, n = solution.problem, solution.backend, solution.backend.dt, solution.backend.n_steps
    off, (table, costs) = backend.offsets, solution.tables
    signs = np.reshape([_PUSH[side].sign for side in SIDES], (2, 1, 1))
    maxima, terms = [], []  # per chunk: the largest |residual|, -gap, -dK and dK; each step's largest |gap| * dK
    for start, stop in backend.step_chunks(n):
        nodes, steps, _, states = backend.nodes(start, stop)
        y, (cont, _, z, dk) = solution.y[..., nodes], solution.increments(start, stop, steps, states)
        gaps = by_side("inside", y, evaluate_obstacles(y, costs.at(steps))[0])
        resid = (y - cont - table.rate(steps, states, 0.5 * (y + cont), z) * dt - signs * dk) / dt
        maxima.append([np.max(block, axis=-1) for block in (np.abs(resid), -gaps, -dk, dk)])
        terms.append(np.maximum.reduceat(np.abs(gaps) * dk, np.subtract(off[start:stop], off[start]), axis=-1))
    y_T = solution.y[..., off[n] :]
    gaps_T = by_side("inside", y_T, evaluate_obstacles(y_T, costs.at(slice(n, n + 1)))[0])
    resid, gap, k_sign, k_max = np.max(maxima, axis=0)
    gap, sums = np.maximum(gap, np.max(-gaps_T, axis=-1)), np.cumsum(np.concatenate(terms, axis=-1), axis=-1)[..., -1]
    mismatch = np.abs(y_T - problem.terminal_block(backend.float_states(n)))

    components = {}
    for key, index in zip(COMPONENTS, np.ndindex(2, 2)):
        components[key] = ComponentResiduals(
            max_step_residual=max(0.0, float(resid[index])),
            max_constraint_violation=max(0.0, float(gap[index])),
            skorokhod_sum=float(sums[index]),
            k_sign_violation=max(0.0, float(k_sign[index])),
            max_k_density=max(0.0, float(k_max[index])) / dt,
            terminal_mismatch=float(np.max(mismatch[index])),
        )
    return ResidualReport(dt=dt, components=components)


class NonUniquenessReport(Record):
    horizon: float
    n_steps: int
    report_family_1: ResidualReport
    report_family_2: ResidualReport
    sup_distance: float
    family_1_below_family_2: bool

    @property
    def distinct(self) -> bool:
        """Both candidates pass while differing by far more than the observed
        numerical-error scale on this lattice."""
        reports = (self.report_family_1, self.report_family_2)
        noise = max(*(report.max_over("max_step_residual") * self.horizon for report in reports), SKOROKHOD_CAP)
        return all(report.passed for report in reports) and self.sup_distance > 10.0 * noise

    def as_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "n_steps": self.n_steps,
            "sup_distance": self.sup_distance,
            "family_1_below_family_2": self.family_1_below_family_2,
            "distinct_solutions": self.distinct,
            "family_1": self.report_family_1.as_dict(),
            "family_2": self.report_family_2.as_dict(),
        }


def check_nonuniqueness(T: float = 1.0, N: int = 2000) -> NonUniquenessReport:
    """Audit both closed-form solutions of the same problem on one lattice.

    Two genuinely different exact solutions both passing every audited
    relation demonstrates that the system does not pin down its solution;
    the gap at t=0 grows like e^{2T} - e^{T}.
    """
    if N < 100:
        raise ValueError("need N >= 100 for meaningful residual caps")
    backend = Lattice("deterministic", N, T)
    fam1, fam2 = (ClosedFormFamily(fid, float(T)).sample(backend) for fid in (1, 2))
    vars(fam2)["tables"] = fam1.tables  # one problem on one lattice: seeds ``tables`` with the first record's
    sup = float(np.max(np.abs(fam2.y - fam1.y)))
    below = float(np.max(fam1.y - fam2.y)) <= 1e-12
    return NonUniquenessReport(float(T), int(N), audit_solution(fam1), audit_solution(fam2), sup, below)
