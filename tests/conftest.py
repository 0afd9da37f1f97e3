import pytest
from hypothesis import settings

from modeswitch.grid import TimeGrid, make_backend
from modeswitch.model import (
    COMPONENTS,
    MINUS,
    PLUS,
    CoefficientFunction,
    Driver,
    SwitchingProblem,
    Terminal,
)

# Property tests draw a fixed, small example set: reproducible failures, no
# example database, no per-example deadline.
settings.register_profile("modeswitch", derandomize=True, deadline=None, max_examples=50, database=None)
settings.load_profile("modeswitch")


def det_backend(n_steps, horizon=1.0):
    return make_backend("deterministic", TimeGrid(n_steps, horizon))


def bin_backend(n_steps, horizon=1.0):
    return make_backend("binomial", TimeGrid(n_steps, horizon))


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
