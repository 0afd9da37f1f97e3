"""Backward solvers.

All solvers run one explicit backward Euler recursion (``backward_pass``),
also shared by the system solver in ``scheme``: the integrand estimate
Z_k is the martingale-increment projection of Y_{k+1}, and the driver is
evaluated at (t_k, x_k, E_k[Y_{k+1}], Z_k), so no per-step fixed point is
needed; its time coefficients are tabulated once on the grid times.
Reflection is applied by projection after the Euler step, which makes the
discrete complementarity condition exact by construction: the push amount
dK_k is nonzero only where the projected value sits on the barrier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FieldSurface, Lattice

# Explicit scheme validity guard: dt * Lipschitz below this keeps the one-step
# operator a contraction in y.
STABILITY_LIMIT = 0.5

# Barrier-contact tolerance: contact is exact by construction at binding
# nodes (min/max return the barrier's value), so the tolerance only absorbs
# float noise downstream.
CONTACT_TOL = 1e-10


def hitting_tolerance(backend: Lattice, scale: float = 1.0) -> float:
    """Contact tolerance for obstacle-hitting detection.

    Absolute 1e-10 on the width-1 (deterministic) lattice; relative
    1e-3 * sqrt(dt) on the binomial lattice where surfaces carry state noise.
    """
    if not backend.down:
        return CONTACT_TOL
    return 1e-3 * np.sqrt(backend.grid.dt) * max(1.0, abs(scale))


@dataclass(frozen=True)
class RbsdeSolution:
    """Solution triple of one (reflected) backward equation.

    ``dk`` holds the per-step reflection increments (dk at step N is zero);
    cumulative K is path-dependent on a recombining lattice, so
    :meth:`k_cumulative` returns the node-conditional mean E[K_{t_k} | X_{t_k}],
    which reduces to the exact pathwise prefix sum on the deterministic
    backend.
    """

    y: FieldSurface
    z: FieldSurface
    dk: FieldSurface

    @property
    def backend(self) -> Lattice:
        return self.y.backend

    def k_cumulative(self) -> FieldSurface:
        backend = self.backend
        off = backend.offsets
        acc = np.zeros(backend.size)
        for k in range(backend.grid.n_steps):
            prev = acc[off[k] : off[k + 1]] + self.dk.at(k)
            if not backend.down:
                acc[off[k + 1] : off[k + 2]] = prev
                continue
            # Parent weights on the recombining walk: node j at step k+1 is
            # reached from up-parent j (weight (k+1-j)/(k+1), its path count
            # share) and down-parent j-1 (weight j/(k+1)).
            j = np.arange(k + 2)
            w_up = (k + 1 - j) / (k + 1)
            w_dn = j / (k + 1)
            padded = np.concatenate(([0.0], prev, [0.0]))
            acc[off[k + 1] : off[k + 2]] = w_up * padded[1:] + w_dn * padded[:-1]
        return FieldSurface.from_buffer(backend, acc)

    def k_total(self) -> float:
        """Expected terminal reflection mass E[K_T]."""
        return float(np.mean(self.k_cumulative().at(self.backend.grid.n_steps)))


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


def snell_envelope(payoff: FieldSurface, backend: Lattice):
    """Smallest supermartingale dominating a payoff surface.

    Returns (envelope, contact) where ``contact`` is a boolean surface marking
    nodes at which the envelope touches the payoff (within ``CONTACT_TOL``),
    and every horizon node; stopping at the first contact at or after the
    current step is optimal.
    """
    n = backend.grid.n_steps
    off = backend.offsets
    env = payoff.data.copy()
    for k in range(n - 1, -1, -1):
        cont = backend.condexp(env[off[k + 1] : off[k + 2]], k)
        env[off[k] : off[k + 1]] = np.maximum(payoff.at(k), cont)
    contact = env - payoff.data <= CONTACT_TOL
    contact[off[n] :] = True
    return FieldSurface.from_buffer(backend, env), FieldSurface.from_buffer(backend, contact)


def first_contact(contact, from_step: int, path=None) -> int:
    """First step index >= from_step at which a contact surface holds, else N.

    Reference implementation, one step at a time. On the width-1 lattice
    ``path`` may be omitted; on the binomial lattice the stopping time is a
    path object and a node-index path is required.
    """
    n = contact.n_steps
    for k in range(from_step, n + 1):
        mask = contact.at(k)
        if path is None:
            if mask.shape != (1,):
                raise ValueError("a node-index path is required on the lattice backend")
            hit = bool(mask[0])
        else:
            hit = bool(mask[int(path[k])])
        if hit:
            return k
    return n
