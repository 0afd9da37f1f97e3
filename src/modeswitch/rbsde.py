"""Backward solvers.

All solvers run one explicit backward Euler recursion (``backward_pass``),
also shared by the system solver in ``scheme``: the integrand estimate
Z_k is the martingale-increment projection of Y_{k+1}, and the driver is
evaluated at (t_k, x_k, E_k[Y_{k+1}], Z_k), so no per-step fixed point is
needed; its time coefficients are tabulated once on the grid times.
Reflection is applied by projection after the Euler step, which makes the
discrete complementarity condition exact by construction: the push amount
dK_k is nonzero only where the projected value sits on the barrier, and
there the value is the barrier's own float, so contact is Y == S bit for
bit. The Snell envelope of a payoff (its smallest dominating
supermartingale) is the lower reflected solve with a zero driver, the payoff
as barrier and its horizon values as terminal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FieldSurface, Lattice

# Explicit scheme validity guard: dt * Lipschitz below this keeps the one-step
# operator a contraction in y.
STABILITY_LIMIT = 0.5

# Slack of the horizon check: a barrier may sit this far on the wrong side of
# the terminal value (float noise in the problem's own coefficients).
CONTACT_TOL = 1e-10


@dataclass(frozen=True)
class RbsdeSolution:
    """Solution triple of one (reflected) backward equation.

    ``dk`` holds the per-step reflection increments (dk at step N is zero).
    """

    y: FieldSurface
    z: FieldSurface
    dk: FieldSurface


def _check_stability(driver, backend: Lattice):
    lip = getattr(driver, "lipschitz", None)
    if lip is not None and backend.grid.dt * lip >= STABILITY_LIMIT:
        raise ValueError(
            f"time step {backend.grid.dt:g} too coarse for Lipschitz constant {lip:g}; "
            f"need dt * L < {STABILITY_LIMIT}"
        )


def _terminal_array(terminal, backend: Lattice) -> np.ndarray:
    n = backend.grid.n_steps
    term = np.asarray(terminal, dtype=float)
    if term.ndim == 0:
        term = np.full(backend.n_nodes(n), float(term))
    if term.shape != (backend.n_nodes(n),):
        raise ValueError(f"terminal values must have {backend.n_nodes(n)} nodes, got shape {term.shape}")
    return term


def solve_bsde(driver, terminal, backend: Lattice) -> tuple[FieldSurface, FieldSurface]:
    """Plain backward equation: returns the (Y, Z) surfaces.

    ``driver`` has ``tabulate(times)``, which returns the rate as a function
    of (step index k, x, y, z) on the grid times (see ``model.Driver``); an
    optional ``lipschitz`` attribute activates the step-size validity guard.
    """
    sol = _solve_reflected(driver, terminal, None, backend, lower=True)
    return sol.y, sol.z


def check_horizon(barrier_T, terminal, lower: bool):
    """Refuse a barrier that is on the wrong side of the terminal value."""
    if np.any(barrier_T > terminal + CONTACT_TOL if lower else barrier_T < terminal - CONTACT_TOL):
        where = "lower barrier exceeds" if lower else "upper barrier below"
        raise ValueError(f"{where} the terminal value at the horizon")


def backward_pass(drivers: dict, terminals: dict, project, backend: Lattice) -> dict:
    """Explicit backward Euler for several equations at once.

    At each step k the Euler values Y~_k = E_k[Y_{k+1}] + psi * dt of all
    equations go to ``project(Y~, k)``, which returns the values Y_k; the
    reflection increment is dK_k = |Y_k - Y~_k|. The equations share one
    (equations x nodes) buffer, so each step takes one conditional
    expectation and one projection for all of them. Returns one solution
    triple per key.
    """
    for driver in drivers.values():
        _check_stability(driver, backend)
    n, dt, times, off = backend.grid.n_steps, backend.grid.dt, backend.grid.times, backend.offsets
    keys = list(drivers)
    rates = [drivers[key].tabulate(times) for key in keys]
    y, z, ytilde = (np.zeros((len(keys), backend.size)) for _ in range(3))
    y[:, off[n] :] = ytilde[:, off[n] :] = [terminals[key] for key in keys]
    for k in range(n - 1, -1, -1):
        here, nxt = slice(off[k], off[k + 1]), slice(off[k + 1], off[k + 2])
        e = backend.condexp(y[:, nxt], k)
        z[:, here] = backend.martingale_projection(y[:, nxt], k)
        x = backend.state(k)
        for i, rate in enumerate(rates):
            ytilde[i, here] = e[i] + rate(k, x, e[i], z[i, here]) * dt
        settled = project({key: ytilde[i, here] for i, key in enumerate(keys)}, k)
        for i, key in enumerate(keys):
            y[i, here] = settled[key]
    dk = np.abs(y - ytilde)
    surfaces = [[FieldSurface.from_buffer(backend, row) for row in v] for v in (y, z, dk)]
    return {key: RbsdeSolution(*(s[i] for s in surfaces)) for i, key in enumerate(keys)}


def _solve_reflected(driver, terminal, obstacle, backend: Lattice, lower: bool) -> RbsdeSolution:
    term = _terminal_array(terminal, backend)
    if obstacle is None:  # no barrier: clip against an infinite one
        obstacle = FieldSurface.constant(backend, -np.inf if lower else np.inf)
    check_horizon(obstacle.at(backend.grid.n_steps), term, lower)
    clip = np.maximum if lower else np.minimum
    return backward_pass({0: driver}, {0: term}, lambda ytilde, k: {0: clip(ytilde[0], obstacle.at(k))}, backend)[0]


def solve_rbsde_lower(driver, terminal, obstacle, backend: Lattice) -> RbsdeSolution:
    """Equation reflected upward off a lower barrier: Y >= obstacle, K pushes up.

    ``obstacle`` is a FieldSurface, or None / a -inf surface for the
    unconstrained case (then the result equals the plain equation with K = 0).
    """
    return _solve_reflected(driver, terminal, obstacle, backend, lower=True)


def solve_rbsde_upper(driver, terminal, obstacle, backend: Lattice) -> RbsdeSolution:
    """Equation reflected downward off an upper barrier: Y <= obstacle, K pushes down."""
    return _solve_reflected(driver, terminal, obstacle, backend, lower=False)
