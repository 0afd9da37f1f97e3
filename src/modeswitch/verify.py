"""Fixture library and residual auditor.

Houses the closed-form non-uniqueness fixture (two exact solutions of the same
problem, one where the cost side carries the reflection mass and one where the
profit side does), and an auditor that recomputes every defining relation of
the system on the (side, mode, node) blocks of Y, Z and dK of one
``scheme.BalanceSheetSolution``: per-step equation residuals, barrier
inequalities, complementarity sums, increment signs, and the empirical
reflection density. A family sampled on a lattice is such a record of the
fixture problem, as is a solve.

The auditor reports, it never judges; thresholds are evaluated separately so
the same numbers can back both CI gating and diagnostics.
"""

from __future__ import annotations

import numpy as np

from .grid import Lattice, TimeGrid
from .model import (
    COMPONENTS,
    MINUS,
    MODES,
    PLUS,
    SIDES,
    _PUSH,
    CoefficientFunction,
    Driver,
    SwitchingProblem,
    Record,
    Terminal,
    by_side,
)
from .scheme import BalanceSheetSolution, system_obstacles

# Default step-residual threshold is RESIDUAL_RATE_SCALE * dt: ten times the
# largest curvature max|y''| among the closed-form fixtures at T=1 (the
# steeper family's mode-2 component, |y''| ~ 37.5). Grid-independent pass/fail.
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
    terminals = {key: Terminal(1.0) for key in COMPONENTS}
    return SwitchingProblem(
        horizon=float(T),
        drivers=drivers,
        ell=(ell, ell),
        a=(zero, zero),
        b=(zero, zero),
        terminals=terminals,
    )


def skorokhod_sum(gap: np.ndarray, dk: np.ndarray, backend: Lattice, n_steps: int):
    """Sum over steps 0..n_steps-1 of max over nodes of |gap| * dK, added
    left to right like a step-by-step loop would; one per row of a block."""
    end = backend.offsets[n_steps]
    per_step = np.maximum.reduceat((np.abs(gap) * dk)[..., :end], backend.offsets[:n_steps], axis=-1)
    return np.cumsum(per_step, axis=-1)[..., -1]


class ClosedFormFamily(Record):
    """One of the two exact solutions of the fixture problem on [0, T].

    family 1: mode-1 value e^{T-t}, reflection mass on the cost side;
    family 2: mode-1 value e^{2(T-t)}, reflection mass on the profit side.
    Both have Z = 0 and horizon value 1 in every component. Values are
    evaluated from the analytic expressions, never tabulated.
    """

    family_id: int
    horizon: float

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

    def sample(self, backend: Lattice) -> BalanceSheetSolution:
        """Grid sampling as a solution record of ``counterexample_problem``;
        increments use the trapezoid rule on the analytic reflection density."""
        times, at = backend.grid.times, backend.step_of_node
        y, dens = (np.array([[f(s, m, times) for m in MODES] for s in SIDES]) for f in (self.y, self.k_density))
        dk = np.zeros_like(dens)
        dk[..., :-1] = 0.5 * (dens[..., :-1] + dens[..., 1:]) * backend.grid.dt
        problem = counterexample_problem(self.horizon)
        return BalanceSheetSolution(problem, backend, y[..., at], np.zeros((2, 2, backend.size)), dk[..., at])


def closed_form_family(family_id: int, T: float) -> ClosedFormFamily:
    if family_id not in (1, 2):
        raise ValueError("family_id must be 1 or 2")
    return ClosedFormFamily(family_id=family_id, horizon=float(T))


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
    step_residual_cap: float

    def caps(self) -> dict:
        return {
            "max_step_residual": self.step_residual_cap,
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
            "threshold_note": (
                f"step residual cap = {RESIDUAL_RATE_SCALE:g} * dt "
                "(10x the largest closed-form curvature at T=1)"
            ),
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
    martingale increment term. Every relation is evaluated on the blocks.
    """
    problem, backend = solution.problem, solution.backend
    dt, n = backend.grid.dt, backend.grid.n_steps
    before = slice(0, backend.offsets[n])
    y, z, dk = solution.y, solution.z[..., before], solution.dk
    gaps = by_side("inside", y, system_obstacles(solution)[0])
    sums, cont = skorokhod_sum(gaps, dk, backend, n), backend.continuation(y)
    yk, dk_k = y[..., before], dk[..., before]
    psi = problem.driver_table(backend).rate(before, 0.5 * (yk + cont), z)
    signs = np.reshape([_PUSH[side].sign for side in SIDES], (2, 1, 1))
    resid = (yk - cont - psi * dt - signs * dk_k) / dt
    mismatch = np.abs(y[..., backend.offsets[n] :] - problem.terminal_block(backend.state(n)))

    components = {}
    for key, index in zip(COMPONENTS, np.ndindex(2, 2)):
        components[key] = ComponentResiduals(
            max_step_residual=max(0.0, float(np.max(np.abs(resid[index])))),
            max_constraint_violation=max(0.0, float(np.max(-gaps[index]))),
            skorokhod_sum=float(sums[index]),
            k_sign_violation=max(0.0, float(np.max(-dk_k[index]))),
            max_k_density=max(0.0, float(np.max(dk_k[index])) / dt),
            terminal_mismatch=float(np.max(mismatch[index])),
        )
    return ResidualReport(dt=dt, components=components, step_residual_cap=RESIDUAL_RATE_SCALE * dt)


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
        numerical-error scale on this grid."""
        noise = max(
            self.report_family_1.max_over("max_step_residual") * self.horizon,
            self.report_family_2.max_over("max_step_residual") * self.horizon,
            SKOROKHOD_CAP,
        )
        return (
            self.report_family_1.passed
            and self.report_family_2.passed
            and self.sup_distance > 10.0 * noise
        )

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
    """Audit both closed-form solutions of the same problem on one grid.

    Two genuinely different exact solutions both passing every audited
    relation demonstrates that the system does not pin down its solution;
    the gap at t=0 grows like e^{2T} - e^{T}.
    """
    if N < 100:
        raise ValueError("need N >= 100 for meaningful residual caps")
    backend = Lattice("deterministic", TimeGrid(N, T))
    fam1, fam2 = (closed_form_family(fid, T).sample(backend) for fid in (1, 2))
    sup = float(np.max(np.abs(fam2.y - fam1.y)))
    below = float(np.max(fam1.y - fam2.y)) <= 1e-12
    return NonUniquenessReport(float(T), int(N), audit_solution(fam1), audit_solution(fam2), sup, below)
