import numpy as np
import pytest
from hypothesis import settings

from modeswitch.grid import FieldSurface, TimeGrid, make_backend
from modeswitch.model import (
    COMPONENTS,
    MINUS,
    PLUS,
    CoefficientFunction,
    Driver,
    SwitchingProblem,
    Terminal,
    row,
)
from modeswitch.scheme import LOCAL_SWEEP_CAP, _euler, solve_system

# Property tests draw a fixed, small example set: reproducible failures, no
# example database, no per-example deadline.
settings.register_profile("modeswitch", derandomize=True, deadline=None, max_examples=50, database=None)
settings.load_profile("modeswitch")


def det_backend(n_steps, horizon=1.0):
    return make_backend("deterministic", TimeGrid(n_steps, horizon))


def bin_backend(n_steps, horizon=1.0):
    return make_backend("binomial", TimeGrid(n_steps, horizon))


def surface(solution, key, field="y"):
    """One component's row of a solution's y, z or dk block, as a surface (a view)."""
    return FieldSurface(solution.backend, getattr(solution, field)[row(*key)])


def driver_rate(driver, t, x, y, z):
    """A driver's rate at times ``t``, through its table on ``t``."""
    return driver.tabulate(t)(..., x, y, z)


def build_problem(horizon=1.0, drivers=None, ell=1.0, a=0.0, b=0.0, terminals=0.0):
    """Problem builder with constant-coefficient defaults.

    ``drivers`` maps (side, mode) to (c0, c1, c2) triples or Driver objects;
    ``ell``/``a``/``b`` are constants or CoefficientFunction pairs; terminals
    a constant, a mapping, or a Terminal.
    """
    def coeff_pair(v):
        if isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], CoefficientFunction):
            return v
        if isinstance(v, CoefficientFunction):
            return (v, v)
        return (CoefficientFunction.constant(v), CoefficientFunction.constant(v))

    made = {}
    drivers = drivers or {}
    for side, mode in COMPONENTS:
        spec = drivers.get((side, mode), (0.0, 0.0, 0.0))
        if isinstance(spec, Driver):
            made[(side, mode)] = spec
        else:
            c0, c1, c2 = spec
            if not isinstance(c0, CoefficientFunction):
                c0 = CoefficientFunction.constant(c0)
            made[(side, mode)] = Driver(mode, side, c0, c1=c1, c2=c2)

    if isinstance(terminals, dict):
        terms = {key: Terminal.of(terminals[key]) for key in COMPONENTS}
    else:
        terms = {key: Terminal.of(terminals) for key in COMPONENTS}

    return SwitchingProblem(
        horizon=horizon,
        drivers=made,
        ell=coeff_pair(ell),
        a=coeff_pair(a),
        b=coeff_pair(b),
        terminals=terms,
    )


@pytest.fixture
def zero_problem():
    """Everything zero except the (required positive) switching cost."""
    return build_problem()


@pytest.fixture
def far_obstacle_problem():
    """Huge costs on every branch: barriers sit 1e3 away from the zero solution."""
    return build_problem(ell=1e3, a=1e3, b=1e3)


def smoke_problem(horizon=1.0):
    """Unit profit rate, zero cost rate, state terminal, unreachable barriers."""
    drivers = {
        (PLUS, 1): (1.0, 0.0, 0.0),
        (PLUS, 2): (1.0, 0.0, 0.0),
        (MINUS, 1): (0.0, 0.0, 0.0),
        (MINUS, 2): (0.0, 0.0, 0.0),
    }
    return build_problem(
        horizon=horizon,
        drivers=drivers,
        ell=1e3,
        a=1e3,
        b=1e3,
        terminals=Terminal(0.0, 1.0),
    )


def remark_problem(horizon):
    """The feasibility example: unit terminals, switching cost e^{-4t}, zero exits."""
    return build_problem(
        horizon=horizon,
        ell=CoefficientFunction.exponential(1.0, -4.0),
        terminals=1.0,
    )


def random_affine_driver(rng, mode=1, side=PLUS, max_slope=1.0):
    kind = rng.integers(0, 3)
    if kind == 0:
        c0 = CoefficientFunction.constant(rng.uniform(-1, 1))
    elif kind == 1:
        c0 = CoefficientFunction.exponential(rng.uniform(-1, 1), rng.uniform(-1, 1))
    else:
        c0 = CoefficientFunction.polynomial(rng.uniform(-1, 1, size=3))
    return Driver(
        mode,
        side,
        c0,
        c1=float(rng.uniform(-max_slope, max_slope)),
        c2=float(rng.uniform(-max_slope, max_slope)),
    )


def pinned_pass(problem, backend):
    """The one-pass solver's backward loop, written out as it stood before
    the per-step blocks were carried contiguously: (side, mode, node) buffers
    filled in place, E_k[Y_{k+1}] and Z_k from a strided view of step k+1,
    and a projection that writes Y_k into its view of the buffer, in rounds
    of a cost closure, then a profit closure, from Y+ = y~+, until a profit
    closure changes no node. Returns the Y, Z and dK buffers and the round
    count of each step."""
    n, dt, off, lag = backend.grid.n_steps, backend.grid.dt, backend.offsets.tolist(), backend.down
    costs, table = problem.cost_table(backend.grid.times), problem.driver_table(backend)
    y, z, ytilde = (np.zeros((2, 2, backend.size)) for _ in range(3))
    y[..., off[n] :] = ytilde[..., off[n] :] = problem.terminal_block(backend.state(n))
    rounds = np.zeros(n, dtype=int)
    for k in range(n - 1, -1, -1):
        here, m = slice(off[k], off[k + 1]), off[k + 1] - off[k]
        v = y[..., off[k + 1] : off[k + 2]]
        up, down = v[..., :m], v[..., lag : lag + m]
        e, zk = 0.5 * (up + down), (up - down) / (2.0 * np.sqrt(dt))
        z[..., here] = zk
        ytilde[..., here] = e + ((table.base[..., here] + table.c1 * e) + table.c2 * zk) * dt
        ell, a, b = (c[..., k : k + 1] for c in costs)
        profit = ytilde[0, :, here]
        while rounds[k] < LOCAL_SWEEP_CAP:
            rounds[k] += 1
            r = np.minimum(ytilde[1, :, here], profit + b)
            y[1, :, here] = cost = np.minimum(r, r[::-1] + ell)
            q = np.maximum(ytilde[0, :, here], cost - a)
            last, profit = profit, np.maximum(q, q[::-1] - ell)
            if not (profit != last).any():
                break
        y[0, :, here] = profit
    return y, z, np.abs(y - ytilde), rounds


def assert_matches_pinned(problem, backend):
    """``solve_system`` reproduces ``pinned_pass`` bit for bit: Y, Z, dK and the round counts."""
    solution, trace = solve_system(problem, backend)
    y, z, dk, rounds = pinned_pass(problem, backend)
    for field, pinned in (("y", y), ("z", z), ("dk", dk)):
        assert getattr(solution, field).tobytes() == pinned.tobytes(), field
    np.testing.assert_array_equal(trace.local_sweeps, rounds)


def assert_certificate_premise(problem, backend):
    """The pass's dK is |Y - y~| with y~ the Euler value the fixed-point
    certificate builds from Y, bit for bit, and 0 at the horizon: where the
    certificate holds, every push then sits on its barrier."""
    solution, _ = solve_system(problem, backend)
    y, dk, end = solution.y, solution.dk, backend.offsets[backend.grid.n_steps]
    assert dk[..., :end].tobytes() == np.abs(y[..., :end] - _euler(problem, backend, y)).tobytes()
    assert (dk[..., end:] == 0.0).all()
