"""Reference kernel: how fast the benchmark's CPU runs at the moment.

The benchmark gets a few cores of a shared host, and the speed of each
drifts by tens of percent over seconds to minutes, for the program and for
any other code on that core alike. So the end-to-end run pins itself and
every command it starts to one CPU, times this fixed kernel after each
command, and scales each command's time by ``REFERENCE_S`` over the mean
kernel time of the commands around it. A scaled time reads as
seconds on this CPU at its reference speed: a change to the program moves
it in full, a slow spell of the host much less.

The kernel mixes, in roughly equal parts, the three kinds of work the
program does: Python-level calls and float arithmetic (the per-step loops
of ``model`` and ``rbsde``), numpy calls on arrays of a few hundred values
(lattice steps) and numpy passes over arrays of megabytes (path replay).
It must not change once baselines are taken with it.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

# About the kernel's median time in a quiet spell on the machine the
# baselines were taken on (2-core Intel Xeon, Python 3.11, numpy 2.4).
REFERENCE_S = 0.2


def pin_to_one_cpu() -> None:
    """Restrict this process, and every child it starts later, to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _step(y: float, z: float, rate: float) -> float:
    return y + rate * (z - 0.5 * y * y) * 1e-3


def kernel_s() -> float:
    """Wall time of one pass of the reference kernel."""
    t0 = perf_counter()
    y = 0.0
    for k in range(300_000):
        y = _step(y, (k % 7) * 0.1, 0.3)
    v = np.linspace(0.0, 1.0, 401)
    for _ in range(10_000):
        v = np.maximum(0.5 * (v[1:] + v[:-1]).repeat(2)[:401] * 0.999, v * 0.998)
    a = np.linspace(0.0, 1.0, 2_000_000).reshape(200, 10_000)
    for _ in range(2):
        a = np.sqrt(a * a + 1.0) - 0.5
        a = np.maximum(a, a[::-1])
    if not (np.isfinite(y) and np.isfinite(v).all() and np.isfinite(a).all()):
        raise ArithmeticError("reference kernel diverged")
    return perf_counter() - t0
