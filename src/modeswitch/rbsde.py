"""Backward solvers.

All solvers run one explicit backward Euler recursion (``backward_pass``)
on a block of equations: a single equation here, the (side, mode, node)
block of the four components in ``scheme``. The integrand estimate
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

# Explicit scheme validity guard, also the validator's A6 check: dt * Lipschitz
# below this keeps the one-step operator a contraction in y.
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


def backward_pass(rate, terminal: np.ndarray, project, backend: Lattice, keys=(0,)) -> dict:
    """Explicit backward Euler for a block of equations at once.

    ``terminal`` holds the horizon values, nodes on the last axis; its
    leading axes are the equations, one per key of ``keys`` in C order (none
    for one equation). ``rate(k, y, z)`` is the stacked driver: every
    equation's rate at the nodes of step k. Each step reads E_k[Y_{k+1}] and
    Z_k from the block Y_{k+1} the step before returned, forms the Euler
    values Y~_k = E_k[Y_{k+1}] + psi * dt, and ``project(ytilde_k, k)``
    returns the block Y_k; dK_k = |Y_k - Y~_k|. The step blocks are joined
    into Y, Z and Y~ buffers once at the end; returns one solution triple per
    key, over views of them.
    """
    dt, y = backend.grid.dt, terminal
    blocks = [(y, np.zeros_like(y), y)]
    for k in range(backend.grid.n_steps - 1, -1, -1):
        e, z = backend.moments(y, k)
        ytilde = e + rate(k, e, z) * dt
        y = project(ytilde, k)
        blocks.append((y, z, ytilde))
    y, z, ytilde = (np.concatenate(field[::-1], axis=-1) for field in zip(*blocks))
    rows = [v.reshape(len(keys), backend.size) for v in (y, z, np.abs(y - ytilde))]
    return {key: RbsdeSolution(*(FieldSurface.from_buffer(backend, r[i]) for r in rows)) for i, key in enumerate(keys)}


def _solve_reflected(driver, terminal, obstacle, backend: Lattice, lower: bool) -> RbsdeSolution:
    term = _terminal_array(terminal, backend)
    if obstacle is None:  # no barrier: clip against an infinite one
        obstacle = FieldSurface.constant(backend, -np.inf if lower else np.inf)
    check_horizon(obstacle.at(backend.grid.n_steps), term, lower)
    _check_stability(driver, backend)
    tab, clip = driver.tabulate(backend.grid.times), np.maximum if lower else np.minimum
    rate = lambda k, y, z: tab(k, backend.state(k), y, z)  # noqa: E731
    project = lambda ytilde, k: clip(ytilde, obstacle.at(k))  # noqa: E731
    return backward_pass(rate, term, project, backend)[0]


def solve_rbsde_lower(driver, terminal, obstacle, backend: Lattice) -> RbsdeSolution:
    """Equation reflected upward off a lower barrier: Y >= obstacle, K pushes up.

    ``obstacle`` is a FieldSurface, or None / a -inf surface for the
    unconstrained case (then the result equals the plain equation with K = 0).
    """
    return _solve_reflected(driver, terminal, obstacle, backend, lower=True)


def solve_rbsde_upper(driver, terminal, obstacle, backend: Lattice) -> RbsdeSolution:
    """Equation reflected downward off an upper barrier: Y <= obstacle, K pushes down."""
    return _solve_reflected(driver, terminal, obstacle, backend, lower=False)
