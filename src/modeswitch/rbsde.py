"""The backward pass.

``backward_pass`` runs one explicit backward Euler recursion on a block of
equations; the system solver (``scheme``) runs it on the (side, mode, node)
block of the four components. The integrand estimate Z_k is the
martingale-increment projection of Y_{k+1}, and the driver is evaluated at
(t_k, x_k, E_k[Y_{k+1}], Z_k), so no per-step fixed point is needed.
Reflection is applied by projection after the Euler step, which makes the
discrete complementarity condition exact by construction: the push amount dK_k
is nonzero only where the projected value sits on the barrier, and there the
value is the barrier's own float, so contact is Y == S bit for bit. A single
reflected equation is the one-equation case, with the projection a clip
against its barrier. It returns the Y, Z and dK buffers it joins, the
solution's only form.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grid import Lattice


class RbsdeSolution(NamedTuple):
    """Y, Z and dK of a block of (reflected) backward equations, each shaped
    like its horizon values with the node axis widened to the lattice size;
    dK at the horizon is zero."""

    y: np.ndarray
    z: np.ndarray
    dk: np.ndarray


def backward_pass(rate, terminal: np.ndarray, project, backend: Lattice) -> RbsdeSolution:
    """Explicit backward Euler for a block of equations at once.

    ``terminal`` holds the horizon values, nodes on the last axis; its
    leading axes are the equations (none for one equation). ``rate(k, y, z)``
    is the stacked driver: every equation's rate at the nodes of step k. Each
    step reads E_k[Y_{k+1}] and Z_k from the block Y_{k+1} the step before
    returned, forms the Euler values Y~_k = E_k[Y_{k+1}] + psi * dt, and
    ``project(ytilde_k, k)`` returns the block Y_k; dK_k = |Y_k - Y~_k|. The
    step blocks are joined into the Y, Z and dK buffers once at the end.
    """
    dt, y = backend.grid.dt, terminal
    blocks = [(y, np.zeros_like(y), y)]
    for k in range(backend.grid.n_steps - 1, -1, -1):
        e, z = backend.moments(y, k)
        ytilde = e + rate(k, e, z) * dt
        y = project(ytilde, k)
        blocks.append((y, z, ytilde))
    y, z, ytilde = (np.concatenate(field[::-1], axis=-1) for field in zip(*blocks))
    return RbsdeSolution(y, z, np.abs(np.subtract(y, ytilde, out=ytilde), out=ytilde))
