"""The recombining lattice: the package's one discretization of [0, T].

A lattice holds the step count N, the horizon T, the step dt = T / N and
the N + 1 step times. One lattice serves both backends. The state moves by
+-spread with probability 1/2 each; a down move shifts the node index by
``down``. The binomial kind (``down = 1``, ``spread = sqrt(dt)``) is the
standard weak-order-1 walk approximation of Brownian motion: node j at step
k carries state x = (k - 2j) * sqrt(dt), an up move keeps j, a down move
sends j to j+1. The deterministic kind is its width-1 case (``down = 0``,
``spread = 0``): one node per step, both moves land on it, and the
conditional expectation is the identity.

Node data is a flat buffer of ``size`` values (or a block of them along its
last axis); step k occupies ``offsets[k]:offsets[k+1]``, and ``step_of_node``
/ ``node_index`` map a flat index back to its step and its node within it.
Whole buffers are read in ``step_chunks`` of at most ``CHUNK_NODES`` nodes,
so a reader's temporaries stay small. The numpy arrays are built at their first read, and
``np`` imports numpy at its first use. This module imports no other module of the package.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from numbers import Integral, Real

# Down-move index offset of each lattice kind.
DOWN = {"deterministic": 0, "binomial": 1}

# Node count of one step chunk (``Lattice.step_chunks``), unless one step alone is wider.
CHUNK_NODES = 1 << 15


def node_count(kind: str, n_steps: int) -> int:
    """The number of nodes of a lattice of ``kind`` with ``n_steps`` steps, without building it."""
    return (n_steps + 1) * (DOWN[kind] * n_steps + 2) // 2


class _Numpy:
    """numpy, imported at the first read of one of its names; its namespace is then copied in."""

    def __getattr__(self, name):
        import numpy
        vars(self).update(vars(numpy))
        return getattr(numpy, name)


np = _Numpy()


def _is_horizon(horizon) -> bool:
    """Whether ``horizon`` can span a lattice: a positive and finite real; a bool, Python's or numpy's, is not."""
    return isinstance(horizon, Real) and not isinstance(horizon, bool) and 0 < horizon < float("inf")


class Lattice:
    """Recombining fair-coin lattice with 1 + down * k nodes at step k."""

    def __init__(self, kind: str, n_steps: int, horizon: float):
        if isinstance(n_steps, bool) or not isinstance(n_steps, Integral):  # numpy's integers are Integral
            raise ValueError(f"n_steps must be an int, got {n_steps!r}")
        if n_steps < 1:
            raise ValueError("need at least one time step")
        if not _is_horizon(horizon):
            raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
        if kind not in DOWN:
            raise ValueError(f"unknown backend kind {kind!r}")
        self.kind, self.n_steps, self.horizon, self.dt = kind, n_steps, horizon, horizon / n_steps
        self.down, sqrt_dt = DOWN[kind], math.sqrt(self.dt)
        self.spread, self._twice_sqrt_dt = self.down * sqrt_dt, 2.0 * sqrt_dt
        self.offsets = tuple(k + self.down * (k * (k - 1) // 2) for k in range(n_steps + 2))
        self.size = self.offsets[-1]
        # The step times as floats, k * dt and T at the horizon: the bits of ``np.linspace(0, T, N + 1)``.
        self.float_times = (*map(self.dt.__mul__, range(n_steps)), horizon)

    def __getattr__(self, name):
        """The numpy arrays, all built at the first read of one of them."""
        if name not in ("times", "step_of_node", "node_index", "states", "_up"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.times = np.array(self.float_times, dtype=float)
        self.times.flags.writeable = False  # built once and shared by every reader
        offsets = np.array(self.offsets)
        self.step_of_node = np.repeat(np.arange(self.n_steps + 1), np.diff(offsets))
        self.node_index = np.arange(self.size) - offsets[self.step_of_node]
        self.states = (self.step_of_node - 2 * self.node_index) * self.spread
        # Flat index of the up child of every node before the horizon: its step's node count further on.
        self._up = np.arange(self.offsets[-2]) + 1 + self.down * self.step_of_node[: self.offsets[-2]]
        return vars(self)[name]

    def float_states(self, k: int) -> list[float]:
        """The states (k - 2j) * spread of step k as floats: the bits of ``state(k)``."""
        return [(k - 2 * j) * self.spread for j in range(self.n_nodes(k))]

    def n_nodes(self, k: int) -> int:
        return 1 + self.down * k

    def state(self, k: int) -> np.ndarray:
        return self.states[self.offsets[k] : self.offsets[k + 1]]

    def locate(self, flat: int) -> tuple[int, int]:
        """(step, node) of a flat index."""
        return int(self.step_of_node[flat]), int(self.node_index[flat])

    def flat_index(self, steps, nodes) -> np.ndarray:
        """Flat index of each (step, node) pair, the inverse of ``locate``;
        refuses a pair that is not on the lattice."""
        steps, nodes = np.broadcast_arrays(np.asarray(steps, dtype=np.int64), np.asarray(nodes, dtype=np.int64))
        outside = (steps < 0) | (steps > self.n_steps) | (nodes < 0) | (nodes >= 1 + self.down * steps)
        if outside.any():
            i = np.unravel_index(np.argmax(outside), outside.shape)
            raise ValueError(f"step {steps[i]}, node {nodes[i]} is not on the lattice")
        return steps + self.down * (steps * (steps - 1) // 2) + nodes

    def _check(self, next_values, k):
        """Node values of step k+1 along the last axis; leading axes are separate equations."""
        next_values = np.asarray(next_values, dtype=float)
        if next_values.shape[-1:] != (self.n_nodes(k + 1),):
            raise ValueError(
                f"expected {self.n_nodes(k + 1)} node values at step {k + 1}, got shape {next_values.shape}"
            )
        return next_values

    def moments(self, next_values, k: int) -> tuple[np.ndarray, np.ndarray]:
        """E_k[V_{k+1}] and the martingale projection of V_{k+1} at the nodes
        of step k, from one shape check and one pair of child views."""
        v, m = self._check(next_values, k), self.n_nodes(k)
        up, down = v[..., :m], v[..., self.down : self.down + m]
        return (up + down) * 0.5, (up - down) / self._twice_sqrt_dt

    def flat_moments(self, data: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """``moments`` at every node of steps start..stop-1 (stop <= N) of flat buffers: the same bits."""
        up = self._up[self.offsets[start] : self.offsets[stop]]
        u, d = data[..., up], data[..., up + self.down]
        return (u + d) * 0.5, (u - d) / self._twice_sqrt_dt

    def step_chunks(self, stop: int) -> list[tuple[int, int]]:
        """Consecutive step ranges (a, b) covering steps 0..stop-1, each of at
        most ``CHUNK_NODES`` nodes unless it is one step."""
        chunks, a, off = [], 0, self.offsets
        while a < stop:
            b = min(max(bisect_right(off, off[a] + CHUNK_NODES) - 1, a + 1), stop)
            chunks.append((a, b))
            a = b
        return chunks
