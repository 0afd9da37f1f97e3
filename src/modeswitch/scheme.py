"""The system solver for the coupled four-equation system.

``solve_system`` builds the minimal solution in one backward pass over the
(side, mode, node) block of ``model``: at each step it projects the block of
Euler values y~ onto its barriers from below, in rounds: the cost side
solved exactly for the profit row held (``model.closure``), then the profit
side for that cost row, from Y+ = y~+ until a profit closure changes no node.
The one-step map is monotone (the comparison check), so this gives the
smallest solution of each step and, by backward induction, the minimal
discrete solution, which the paper reaches as the limit of its Picard scheme.
The solve then certifies, without running it, that one Picard sweep from the
solution would move no node: at every node before the horizon Y must equal
its reflected Euler value better(E_k[Y_{k+1}] + psi dt, S(Y)), built from Y
itself (the discrete reflection relation of El Karoui et al., "Reflected
solutions of backward SDE's", 1997). Where it holds, every value sits inside
its barrier and every push dK = |Y - y~| meets it, so the constraint and
complementarity relations need no check of their own. The certificate runs
step chunk by step chunk (``Lattice.step_chunks``).

A solve tabulates its problem once (``SwitchingProblem.tabulate``): the
validator reads the float rows, and their numpy copy feeds the pass, the
certificate and the record (``BalanceSheetSolution.tables``).
``backward_pass`` is the binomial lattice's pass, with ``_project`` on the
costs of step k; on the width-1 (deterministic) lattice ``_width_one_pass``
runs it in Python floats, each operation spelled out in the same order, so
the same Y and round counts, bit for bit; its max and min are numpy's
(``model._max``). The solution is one record, ``BalanceSheetSolution``: the
problem, its lattice and Y, the one lattice-sized block a solve keeps. Z and
dK follow from Y by the scheme's relations: ``increments`` derives them in
the pass's bits, by step chunks; a sampled fixture family (``verify``), a
subclass, stores its analytic dK. Every reader takes the record alone.

A solve first validates its problem on its lattice; a failed check raises
``SchemeError`` (of ``model``, as is ``LocalSweepError``) with the report
attached. It runs with numpy's overflow and invalid-value warnings off; a
value or push that is not finite fails it with a ``ProblemError`` naming its
step, node and component.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .grid import Lattice
from .model import COMPONENTS, MINUS, MODES, PLUS, CostSlice, DriverTable, LocalSweepError, ProblemError, Record
from .model import SchemeError, SwitchingProblem, _max, _min, by_side, closure, evaluate_obstacles, row, validate

LOCAL_SWEEP_CAP = 500


class PassTrace(Record):
    """Projection round count of the one-pass solver at each step before the horizon."""

    local_sweeps: np.ndarray
    converged = True  # a class constant, not a field: a solve returns only once it settled and certified


class BalanceSheetSolution(Record):
    """One solution of ``problem`` on ``backend``, which spans its horizon:
    the (side, mode, node) block of Y, shaped (2, 2, backend.size), from which
    ``increments`` derives Z and dK (``z`` and ``dk``, whole), with ``tables``.
    Every block of a subclass must fit the lattice too."""

    problem: SwitchingProblem
    backend: Lattice
    y: np.ndarray

    def __post_init__(self):
        if (horizon := self.backend.horizon) != self.problem.horizon:  # a solution lives on its problem's [0, T]
            raise ValueError(f"the lattice's horizon {horizon!r} is not the problem's horizon {self.problem.horizon!r}")
        fits = (2, 2, self.backend.size)
        for name in self._fields[2:]:
            if (shape := np.shape(getattr(self, name))) != fits:
                raise ValueError(f"{name} is shaped {shape}, but its lattice needs {fits}")

    def y0(self, side: str, mode: int) -> float:
        return float(self.y[row(side, mode)][0])

    @cached_property
    def tables(self) -> tuple[DriverTable, CostSlice]:
        """The problem's driver and cost tables on the lattice's times, as numpy arrays; a solve seeds its own."""
        return tuple(rows.array() for rows in self.problem.tabulate(self.backend.float_times))

    def increments(self, start: int, stop: int, steps=None, states=None) -> tuple[np.ndarray, ...]:
        """E_k[Y_{k+1}], the Euler value y~ = E_k[Y_{k+1}] + psi dt (the record's driver table), Z (the martingale
        projection of Y_{k+1}) and dK = |Y - y~| at the nodes of steps start..stop-1 (stop <= N + 1), the pass's bits,
        +0.0 at the horizon, where E and y~ end; a chunk's reader passes its ``Lattice.nodes`` steps and states."""
        backend, off = self.backend, self.backend.offsets
        first, last = min(start, backend.n_steps), min(stop, backend.n_steps)
        if steps is None:
            _, steps, _, states = backend.nodes(first, last)
        e, z = backend.flat_moments(self.y, first, last)
        euler = e + self.tables[0].rate(steps[: e.shape[-1]], states[: e.shape[-1]], e, z) * backend.dt
        dk = np.abs(self.y[..., off[first] : off[last]] - euler)
        if stop <= backend.n_steps:  # no horizon node to pad: no copy
            return e, euler, z, dk
        horizon = np.zeros((2, 2, off[stop] - off[max(start, last)]))
        return e, euler, np.concatenate((z, horizon), axis=-1), np.concatenate((dk, horizon), axis=-1)

    def _whole(self, block: int) -> np.ndarray:
        """One block of ``increments`` (2: Z, 3: dK) at every node, filled step chunk by step chunk."""
        backend, out = self.backend, np.empty((2, 2, self.backend.size))
        for start, stop in backend.step_chunks(backend.n_steps + 1):
            out[..., backend.offsets[start] : backend.offsets[stop]] = self.increments(start, stop)[block]
        return out

    z = property(lambda self: self._whole(2))
    dk = property(lambda self: self._whole(3))


def backward_pass(table: DriverTable, costs: CostSlice, terminal: np.ndarray, backend: Lattice, rounds: np.ndarray):
    """Explicit backward Euler for the (side, mode, node) block; returns its Y.

    ``terminal`` holds the horizon values. Each step reads E_k[Y_{k+1}] and
    Z_k from the block Y_{k+1}, forms the Euler values y~_k = E_k[Y_{k+1}] +
    psi dt with the rate of ``table``, and ``_project`` on the costs of step
    k returns Y_k, written into one buffer, its round count into ``rounds``.
    No step keeps its Z or y~."""
    off, dt = backend.offsets, backend.dt
    y = np.empty((2, 2, backend.size))
    y[..., off[-2] :] = nxt = terminal
    for k in range(backend.n_steps - 1, -1, -1):
        e, z = backend.moments(nxt, k)
        ytilde = e + table.rate(slice(k, k + 1), backend.state(k), e, z) * dt
        y[..., off[k] : off[k + 1]] = nxt = _project(ytilde, costs.at(slice(k, k + 1)), k, rounds)
    return y


def _require_admissible(report):
    """Abort with the validation ``report`` of a problem on a lattice attached if it failed."""
    if not report.all_passed:
        err = SchemeError(f"assumption validation failed: {'; '.join(c.name for c in report.failures())}")
        err.report = report
        raise err


def _certify_fixed_point(solution: BalanceSheetSolution):
    """Raise SchemeError unless one Picard sweep from the solution would move
    no node (see the module notes), naming the first component that moves, at
    its first node; a push |Y - y~| that is not finite fails first, as a
    ProblemError at its last node. Each term is the expression the reference
    sweep evaluates at that node, so bitwise equality is exactly as strict."""
    backend, y, costs = solution.backend, solution.y, solution.tables[1]
    moves = [None] * len(COMPONENTS)  # (flat index, move) of each component's first moving node
    for start, stop in reversed(backend.step_chunks(backend.n_steps)):
        nodes, steps, _, states = backend.nodes(start, stop)
        here, (_, euler, _, push) = y[..., nodes], solution.increments(start, stop, steps, states)
        _require_finite(push, "push", lambda i: backend.locate(nodes.start + i))
        barrier = evaluate_obstacles(here, costs.at(steps))[0]
        settled = by_side("better", euler, barrier)
        miss = np.where(settled == here, 0.0, np.abs(settled - here))
        for c, moved in enumerate(miss.reshape(4, -1)):
            if moved[i := int(np.argmax(moved))]:
                moves[c] = (nodes.start + i, moved[i])
    for (side, mode), move in zip(COMPONENTS, moves):
        if move:
            (k, j), by = backend.locate(move[0]), move[1]
            raise SchemeError(f"one Picard sweep would move ({side},{mode}) at step {k}, node {j} by {by:g}")


def _require_finite(block: np.ndarray, what: str, locate):
    """Raise ProblemError at the last node of a (side, mode, node) block with a value that is not
    finite, naming the first such component there; ``locate`` maps a node index to its (step, node)."""
    rows = block.reshape(4, -1)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=0))
    if bad.size:
        i = int(bad[-1])
        c = int(np.argmin(np.isfinite(rows[:, i])))
        (side, mode), (k, j) = COMPONENTS[c], locate(i)
        where = f"at step {k}, node {j}: ({side},{mode}) is {rows[c, i]:g}"
        raise ProblemError(f"{what} not finite {where}; the data overflows float64")


def _project(ytilde: np.ndarray, costs: CostSlice, step: int, rounds: np.ndarray) -> np.ndarray:
    """Least solution of Y+ = max(y~+, S+(Y)), Y- = min(y~-, S-(Y)) at the
    nodes of one step, as a new block: rounds of a cost closure, then a
    profit closure, from Y+ = y~+, until a profit closure changes no node;
    the number of rounds goes to ``rounds[step]``."""
    plus, minus = ytilde
    profit = plus
    for n in range(1, LOCAL_SWEEP_CAP + 1):
        cost = closure(minus, profit, costs, MINUS)
        last, profit = profit, closure(plus, cost, costs, PLUS)
        if not np.count_nonzero(moving := profit != last):
            rounds[step] = n
            return np.array((profit, cost))
    _require_finite(ytilde, "Euler value", lambda i: (step, i))
    node = int(np.argmax(moving.any(axis=0)))
    mode = int(np.argmax(moving[:, node]))
    move = f"({PLUS},{MODES[mode]}) still moves by {profit[mode, node] - last[mode, node]:g}"
    raise LocalSweepError(f"did not converge at step {step}, node {node}: {move}")


def _width_one_pass(table: DriverTable, costs: CostSlice, terminal: np.ndarray, backend: Lattice, rounds: np.ndarray):
    """``backward_pass`` with ``_project`` on the width-1 lattice, in Python
    floats: each step spells out the same operations in the same order, so
    it returns the same Y bits and round counts. A step that reaches the
    round cap is handed to ``_project``, which raises its error."""
    n, dt, s = backend.n_steps, backend.dt, backend._twice_sqrt_dt
    bases = list(zip(*(table.c0 * np.where(table.on_state, 0.0, 1.0)).reshape(4, -1).tolist()))  # every state is 0.0
    cols = list(zip(*(r for c in costs for r in c.tolist())))
    (c1, c2, c3, c4), (d1, d2, d3, d4) = table.c1.ravel().tolist(), table.c2.ravel().tolist()
    y1, y2, y3, y4 = y = terminal.ravel().tolist()
    steps = [y]
    for k in range(n - 1, -1, -1):
        (g1, g2, g3, g4), (l1, l2, a1, a2, b1, b2) = bases[k], cols[k]
        e1, e2, e3, e4 = (y1 + y1) * 0.5, (y2 + y2) * 0.5, (y3 + y3) * 0.5, (y4 + y4) * 0.5
        z1, z2, z3, z4 = (y1 - y1) / s, (y2 - y2) / s, (y3 - y3) / s, (y4 - y4) / s
        tp1, tp2 = e1 + ((g1 + c1 * e1) + d1 * z1) * dt, e2 + ((g2 + c2 * e2) + d2 * z2) * dt
        tm1, tm2 = e3 + ((g3 + c3 * e3) + d3 * z3) * dt, e4 + ((g4 + c4 * e4) + d4 * z4) * dt
        q1, q2 = tp1, tp2
        for r in range(1, LOCAL_SWEEP_CAP + 1):  # a cost closure, then a profit closure (``model.closure``)
            r1, r2 = _min(tm1, q1 + b1), _min(tm2, q2 + b2)
            m1, m2 = _min(r1, r2 + l1), _min(r2, r1 + l2)
            u1, u2 = _max(tp1, m1 - a1), _max(tp2, m2 - a2)
            p1, p2 = _max(u1, u2 - l1), _max(u2, u1 - l2)
            if p1 == q1 and p2 == q2:
                rounds[k], y1, y2, y3, y4 = r, p1, p2, m1, m2
                break
            q1, q2 = p1, p2
        else:
            ytilde = np.reshape((tp1, tp2, tm1, tm2), (2, 2, 1))
            y1, y2, y3, y4 = _project(ytilde, costs.at(slice(k, k + 1)), k, rounds).ravel().tolist()
        steps.append((y1, y2, y3, y4))
    return np.array(steps[::-1]).T.reshape(2, 2, n + 1).copy()


def solve_system(problem: SwitchingProblem, backend: Lattice) -> tuple[BalanceSheetSolution, PassTrace]:
    """The minimal system solution in one backward pass (see the module notes)."""
    n, rows = backend.n_steps, problem.tabulate(backend.float_times)  # one tabulation per solve
    _require_admissible(validate(problem, backend, *rows))
    tables, rounds = tuple(r.array() for r in rows), np.zeros(n, dtype=int)
    terminal = problem.terminal_block(backend.float_states(n))
    with np.errstate(over="ignore", invalid="ignore"):
        y = (backward_pass if backend.down else _width_one_pass)(*tables, terminal, backend, rounds)
        _require_finite(y, "value", backend.locate)
        solution = BalanceSheetSolution(problem, backend, y)
        vars(solution)["tables"] = tables  # seeds ``BalanceSheetSolution.tables`` with the pass's own
        _certify_fixed_point(solution)
    return solution, PassTrace(rounds)
