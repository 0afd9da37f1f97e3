"""Time grid and the recombining lattice.

One lattice serves both backends. The state moves by +-spread with
probability 1/2 each; a down move shifts the node index by ``down``. The
binomial kind (``down = 1``, ``spread = sqrt(dt)``) is the standard
weak-order-1 walk approximation of Brownian motion: node j at step k carries
state x = (k - 2j) * sqrt(dt), an up move keeps j, a down move sends j to
j+1. The deterministic kind is its width-1 case (``down = 0``, ``spread =
0``): one node per step, both moves land on it, and the conditional
expectation is the identity.

Node data is a flat buffer of ``size`` values (or a block of them along its
last axis); step k occupies ``offsets[k]:offsets[k+1]``, and ``step_of_node``
/ ``node_index`` map a flat index back to its step and its node within it.
"""

from __future__ import annotations

import numpy as np

from .model import Record

# Down-move index offset of each lattice kind.
DOWN = {"deterministic": 0, "binomial": 1}


class TimeGrid(Record):
    n_steps: int
    horizon: float

    def __post_init__(self):
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, (int, np.integer)):
            raise ValueError(f"n_steps must be an int, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise ValueError("need at least one time step")
        if not 0 < self.horizon < float("inf"):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


class Lattice:
    """Recombining fair-coin lattice with 1 + down * k nodes at step k."""

    def __init__(self, kind: str, grid: TimeGrid):
        if kind not in DOWN:
            raise ValueError(f"unknown backend kind {kind!r}")
        self.kind = kind
        self.grid = grid
        self.down = DOWN[kind]
        sqrt_dt = np.sqrt(grid.dt)
        self.spread = self.down * sqrt_dt
        self._twice_sqrt_dt = 2.0 * sqrt_dt
        n = grid.n_steps
        counts = 1 + self.down * np.arange(n + 1)
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        self.size = int(self.offsets[-1])
        self.step_of_node = np.repeat(np.arange(n + 1), counts)
        self.node_index = np.arange(self.size) - self.offsets[self.step_of_node]
        self.states = (self.step_of_node - 2 * self.node_index) * self.spread
        # Flat index of the up child of every node before the horizon.
        self._up = np.arange(self.offsets[n]) + counts[self.step_of_node[: self.offsets[n]]]

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
        outside = (steps < 0) | (steps > self.grid.n_steps) | (nodes < 0) | (nodes >= 1 + self.down * steps)
        if outside.any():
            i = np.unravel_index(np.argmax(outside), outside.shape)
            raise ValueError(f"step {steps[i]}, node {nodes[i]} is not on the lattice")
        return self.offsets[steps] + nodes

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

    def continuation(self, data: np.ndarray) -> np.ndarray:
        """E_k[V_{k+1}] at every node before the horizon, from flat buffers along the last axis."""
        return (data[..., self._up] + data[..., self._up + self.down]) * 0.5

    def martingale_increment(self, data: np.ndarray) -> np.ndarray:
        """The martingale projection of V_{k+1} at every node before the horizon, from flat buffers."""
        return (data[..., self._up] - data[..., self._up + self.down]) / self._twice_sqrt_dt
