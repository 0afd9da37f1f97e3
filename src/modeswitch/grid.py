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
last axis); step k occupies ``offsets[k]:offsets[k+1]``. The lattice keeps no
node-sized array: ``nodes`` computes the node data of a range of steps from
the offsets, and whole buffers are read in ``step_chunks`` of at most
``CHUNK_NODES`` nodes, so a reader's node data and temporaries stay small.
``times`` is built at its first read, and ``np`` imports numpy at its first
use. This module imports no other module of the package.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
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


def _integers(values, what: str):
    """``values`` as an array of integers, refusing a bool or a value that is not an integer (a whole
    float included) by name; numpy's integer arrays pass as they are, a list is read value by value."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    items = np.asarray(values, dtype=object)  # keeps each value's type: a bool among ints is not cast
    bad = {kind for kind in set(map(type, items.flat)) if issubclass(kind, bool) or not issubclass(kind, Integral)}
    if bad:
        raise ValueError(f"{what} {next(v for v in items.flat if type(v) in bad)!r} is not an integer")
    return items


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

    @cached_property
    def times(self) -> np.ndarray:
        """The step times as a numpy array, built at its first read and shared by every reader."""
        times = np.array(self.float_times, dtype=float)
        times.flags.writeable = False
        return times

    def nodes(self, start: int, stop: int) -> tuple[slice, np.ndarray, np.ndarray, np.ndarray]:
        """The flat slice of steps start..stop-1, and the step k, index j and state (k - 2j) * spread of its nodes."""
        lo, hi, ks = self.offsets[start], self.offsets[stop], np.arange(start, stop)
        counts = 1 + self.down * ks
        steps, firsts = np.repeat(ks, counts), np.repeat(ks + self.down * (ks * (ks - 1) // 2), counts)
        index = np.arange(lo, hi) - firsts  # each node's flat index less its step's offset
        return slice(lo, hi), steps, index, (steps - 2 * index) * self.spread

    def float_states(self, k: int) -> list[float]:
        """The states (k - 2j) * spread of step k as floats: the bits of ``state(k)``."""
        return [(k - 2 * j) * self.spread for j in range(self.n_nodes(k))]

    def n_nodes(self, k: int) -> int:
        return 1 + self.down * k

    def state(self, k: int) -> np.ndarray:
        return (k - 2 * np.arange(self.n_nodes(k))) * self.spread

    def locate(self, flat: int) -> tuple[int, int]:
        """(step, node) of a flat index, the inverse of ``flat_index``; refuses a bool, a value that is
        not an integer and an index that is not on the lattice."""
        if isinstance(flat, bool) or not isinstance(flat, Integral):  # numpy's integers are Integral, its bool is not
            raise ValueError(f"flat index {flat!r} is not an integer")
        if not 0 <= flat < self.size:
            raise ValueError(f"flat index {flat} is not on the lattice")
        k = bisect_right(self.offsets, flat) - 1
        return k, int(flat) - self.offsets[k]

    def flat_index(self, steps, nodes) -> np.ndarray:
        """Flat index of each (step, node) pair, the inverse of ``locate``;
        refuses a bool or a value that is not an integer (``_integers``), and a pair that is not on the
        lattice, one past int64 included."""
        exact = _integers(steps, "step"), _integers(nodes, "node")
        try:
            steps, nodes = np.broadcast_arrays(*(np.asarray(values, dtype=np.int64) for values in exact))
        except OverflowError:
            raise ValueError(f"step {steps}, node {nodes} is not on the lattice") from None
        outside = (steps < 0) | (steps > self.n_steps) | (nodes < 0) | (nodes >= 1 + self.down * steps)
        if outside.any():
            i = np.unravel_index(np.argmax(outside), outside.shape)
            raise ValueError(f"step {steps[i]}, node {nodes[i]} is not on the lattice")
        return steps + self.down * (steps * (steps - 1) // 2) + nodes

    def moments(self, next_values, k: int) -> tuple[np.ndarray, np.ndarray]:
        """E_k[V_{k+1}] and the martingale projection of V_{k+1} at the nodes of step k, from one pair of
        child views; node values of step k+1 along the last axis, leading axes separate equations."""
        v, m = np.asarray(next_values, dtype=float), self.n_nodes(k)
        if v.shape[-1:] != (m + self.down,):
            raise ValueError(f"expected {m + self.down} node values at step {k + 1}, got shape {v.shape}")
        up, down = v[..., :m], v[..., self.down : self.down + m]
        return (up + down) * 0.5, (up - down) / self._twice_sqrt_dt

    def flat_moments(self, data: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """``moments`` at every node of steps start..stop-1 (stop <= N) of flat buffers: the same bits."""
        counts = 1 + self.down * np.arange(start, stop)  # a node's up child is its step's node count further on
        up = np.arange(self.offsets[start], self.offsets[stop]) + np.repeat(counts, counts)
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
