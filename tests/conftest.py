import numpy as np
import pytest
from hypothesis import settings

from modeswitch.grid import Lattice
from modeswitch.model import (
    COMPONENTS,
    MINUS,
    PLUS,
    SIDES,
    CoefficientFunction,
    Driver,
    DriverTable,
    SwitchingProblem,
    Terminal,
    evaluate_obstacles,
    row,
)
from modeswitch import scheme
from modeswitch.scheme import LOCAL_SWEEP_CAP, solve_system
from modeswitch.strategy import HOLD, MIXED, SWITCH, TERMINATE, flat_path, simulate_policy

from picard_reference import tabulate

# Property tests draw a fixed, small example set: reproducible failures, no
# example database, no per-example deadline.
settings.register_profile("modeswitch", derandomize=True, deadline=None, max_examples=50, database=None)
settings.load_profile("modeswitch")


def det_backend(n_steps, horizon=1.0):
    return Lattice("deterministic", n_steps, horizon)


def bin_backend(n_steps, horizon=1.0):
    return Lattice("binomial", n_steps, horizon)


def at(values, lattice, k):
    """The node values of step k of a flat buffer, or of each buffer of a block along its last axis (a view)."""
    return values[..., lattice.offsets[k] : lattice.offsets[k + 1]]


def driver_rate(driver, t, x, y, z):
    """A driver's rate at times ``t``, through the reference's table on ``t``."""
    return tabulate(driver, t)(..., x, y, z)


def terminal_of(value) -> Terminal:
    """``value`` if it is a Terminal, else the constant Terminal of the number."""
    return value if isinstance(value, Terminal) else Terminal(float(value))


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
        terms = {key: terminal_of(terminals[key]) for key in COMPONENTS}
    else:
        terms = {key: terminal_of(terminals) for key in COMPONENTS}

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
    n, dt, off, lag = backend.n_steps, backend.dt, backend.offsets, backend.down
    table, costs = (rows.array() for rows in problem.tabulate(backend.float_times))
    y, z, ytilde = (np.zeros((2, 2, backend.size)) for _ in range(3))
    y[..., off[n] :] = ytilde[..., off[n] :] = problem.terminal_block(backend.state(n))
    rounds = np.zeros(n, dtype=int)
    for k in range(n - 1, -1, -1):
        here, m = slice(off[k], off[k + 1]), off[k + 1] - off[k]
        v = y[..., off[k + 1] : off[k + 2]]
        up, down = v[..., :m], v[..., lag : lag + m]
        e, zk = 0.5 * (up + down), (up - down) / (2.0 * np.sqrt(dt))
        z[..., here] = zk
        base = table.c0[..., k : k + 1] * np.where(table.on_state, backend.state(k), 1.0)
        ytilde[..., here] = e + ((base + table.c1 * e) + table.c2 * zk) * dt
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


def numpy_pass(problem, backend):
    """``backward_pass``, the binomial lattice's pass, on any lattice: its Y
    block; the Z and dK blocks of the Z_k and Euler values y~_k it formed at
    each step, read off its driver table's rate and joined, as the pass kept
    them before Z and dK were derived from Y (Z 0 and y~ = Y at the
    horizon); and the round count of each step."""
    n, rounds, zs, ytildes = backend.n_steps, np.zeros(backend.n_steps, dtype=int), {}, {}
    table, costs = (rows.array() for rows in problem.tabulate(backend.float_times))

    class Recorded:  # the driver table, keeping the Z_k it is given and the y~_k = E_k[Y_{k+1}] + psi dt it gives
        def rate(self, steps, x, y, z):
            psi = table.rate(steps, x, y, z)
            zs[steps.start], ytildes[steps.start] = z, y + psi * backend.dt
            return psi

    terminal = problem.terminal_block(backend.state(n))
    with np.errstate(over="ignore", invalid="ignore"):  # as in ``solve_system``
        y = scheme.backward_pass(Recorded(), costs, terminal, backend, rounds)
        z = np.concatenate([zs[k] for k in range(n)] + [np.zeros_like(terminal)], axis=-1)
        ytilde = np.concatenate([ytildes[k] for k in range(n)] + [terminal], axis=-1)
        return (y, z, np.abs(y - ytilde)), rounds


def assert_matches_pinned(problem, backend):
    """``solve_system`` reproduces ``pinned_pass`` and ``numpy_pass`` bit for
    bit: Y, the Z and dK derived from it, and the round counts."""
    solution, trace = solve_system(problem, backend)
    *pinned, rounds = pinned_pass(problem, backend)
    passed, passed_rounds = numpy_pass(problem, backend)
    for field, block, other in zip(("y", "z", "dk"), pinned, passed):
        assert getattr(solution, field).tobytes() == block.tobytes() == other.tobytes(), field
    np.testing.assert_array_equal(trace.local_sweeps, rounds)
    np.testing.assert_array_equal(passed_rounds, rounds)


def assert_certificate_premise(problem, backend):
    """The derived dK is |Y - y~| with y~ the Euler value the fixed-point
    certificate builds from Y, bit for bit, and 0 at the horizon: where the
    certificate holds, every push then sits on its barrier."""
    solution, _ = solve_system(problem, backend)
    y, dk, end = solution.y, solution.dk, backend.offsets[backend.n_steps]
    euler = solution.increments(0, backend.n_steps)[1]
    assert dk[..., :end].tobytes() == np.abs(y[..., :end] - euler).tobytes()
    assert (dk[..., end:] == 0.0).all()


def stop_block(y, barrier, backend):
    """Where a path stops, on flat node buffers (or blocks of them): every node
    where ``y`` equals its barrier bit for bit, and every horizon node."""
    mask = y == barrier
    mask[..., backend.offsets[backend.n_steps] :] = True
    return mask


def whole_block_contacts(solution):
    """The barrier, stop and switch blocks of all four components over the
    whole lattice at once: ``model.evaluate_obstacles`` on the Y block with
    the record's costs at every node, and ``stop_block``. The package reads
    them by step chunks, along one path or at one node; this is the
    reference those readers are tested against."""
    backend = solution.backend
    costs = solution.tables[1].at(backend.nodes(0, backend.n_steps + 1)[1])
    barrier, switches = evaluate_obstacles(solution.y, costs)
    return barrier, stop_block(solution.y, barrier, backend), switches


def reference_stopping_times(solution, from_step=0, path=None):
    """The first stop of each component along a path (``strategy.flat_path``),
    read from the stop block of ``whole_block_contacts``."""
    flat, stops = flat_path(solution.backend, from_step, path), whole_block_contacts(solution)[1]
    return {key: from_step + int(np.argmax(stops[row(*key)][flat])) for key in COMPONENTS}


def replay_tables(solution, start_mode):
    """The replay's node tables of each leg from ``start_mode``, built on the
    whole lattice from the whole blocks: the stop and switch blocks of
    ``whole_block_contacts``, the running rate before the horizon at
    E_k[Y_{k+1}] and the record's Z, and Y, each a (side, node) block."""
    backend, m = solution.backend, start_mode - 1
    n, before = backend.n_steps, slice(0, backend.offsets[backend.n_steps])
    table, y = DriverTable(*(f[:, m] for f in solution.tables[0])), solution.y[:, m]
    _, steps, _, states = backend.nodes(0, n)
    rates = table.rate(steps, states, backend.flat_moments(y, 0, n)[0], solution.z[:, m, before])
    stops, switches = (block[:, m] for block in whole_block_contacts(solution)[1:])
    return stops, switches, rates, y


def sample_paths(lattice, n_paths, seed):
    """Node-index paths, shape (n_paths, N+1), of the Monte Carlo walk's coin
    stream; entry k is the node at step k.

    ``seed`` is a seed or a ``np.random.Generator``. Step k draws
    ``ceil(n_paths / 8)`` bytes and unpacks them, most significant bit first,
    into one coin per path: 1 moves down (the node index grows by one), 0 up.
    The width-1 lattice draws nothing.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n = lattice.n_steps
    paths = np.zeros((n_paths, n + 1), dtype=np.int64)
    if lattice.down:
        rng = np.random.default_rng(seed)
        for k in range(n):
            coins = np.unpackbits(np.frombuffer(rng.bytes(-(-n_paths // 8)), dtype=np.uint8), count=n_paths)
            paths[:, k + 1] = paths[:, k] + coins
    return paths


def all_paths(lattice):
    """Every node-index path of the lattice: 2^N rows on the binomial kind (row
    r moves down at step k when bit k of r is set), each of probability 2^-N,
    so a plain mean over the rows is the law's expectation; one row on the
    width-1 kind, whose paths are all the same path."""
    n = lattice.n_steps
    if not lattice.down:
        return np.zeros((1, n + 1), dtype=np.int64)
    if n > 16:
        raise ValueError(f"2^{n} paths are too many to enumerate")
    coins = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return np.concatenate((np.zeros((2**n, 1), dtype=np.int64), np.cumsum(coins, axis=1)), axis=1)


# The report's probability fields (``p_<key>``) and the branch each one counts.
BRANCH_KEYS = {"switch": SWITCH, "terminate": TERMINATE, "hold": HOLD}


def replay_over_paths(solution, start_mode, paths):
    """The policy replay written out over whole paths of equal weight.

    A leg whose root is in contact (its stop mask at flat index 0) reports
    Y_0 with zero gap, error and stopping step, and the branch of the switch
    table at the root with probability 1. A leg that leaves its root reads
    every path whole: the first stop along each full row, the running rate
    gathered at its first N steps with the steps at and after the stop zeroed
    (``< tau``), and those N steps summed in step order from +0.0 (adding a
    zeroed step leaves the sum's bits as they are). Its means over the rows,
    its branch frequencies and its standard error (0 on one row) take the
    places of the law's. Returns the report in the form of ``StrategyReport.as_dict``."""
    backend, (stops, switches, rates, y) = solution.backend, replay_tables(solution, start_mode)
    n, dt, rows = backend.n_steps, backend.dt, len(paths)
    flat = paths + backend.offsets[:-1]
    legs = {}
    for s, side in enumerate(SIDES):
        y0 = float(y[s][0])
        if stops[s][0]:
            switch = bool(switches[s][0])
            leg = {"stop_step": 0.0, "action": SWITCH if switch else TERMINATE, "realized": y0, "value_gap": 0.0,
                   "std_error": 0.0, "p_switch": float(switch), "p_terminate": float(not switch), "p_hold": 0.0}
        else:
            tau = np.argmax(stops[s][flat], axis=-1)
            stop = flat[np.arange(rows), tau]
            running = rates[s][flat[:, :n]]
            running *= np.arange(n)[None, :] < tau[:, None]
            total = np.zeros(rows)
            for k in range(n):
                total += running[:, k]
            realized = total * dt + y[s][stop]
            held, prefer = tau == n, switches[s][stop]
            branches = {SWITCH: ~held & prefer, TERMINATE: ~held & ~prefer, HOLD: held}
            actions = [name for name in (HOLD, SWITCH, TERMINATE) if branches[name].any()]
            mean = float(np.mean(realized))
            leg = {
                "stop_step": float(np.mean(tau)),
                "action": actions[0] if len(actions) == 1 else MIXED,
                "realized": mean,
                "value_gap": abs(mean - y0),
                "std_error": float(np.std(realized, ddof=1) / np.sqrt(rows)) if rows > 1 else 0.0,
                **{f"p_{key}": float(np.mean(branches[name])) for key, name in BRANCH_KEYS.items()},
            }
        legs[side] = {"side": side, "mode": start_mode, **leg}
    return {"start_mode": start_mode, "legs": legs}


def pinned_replay(solution, n_paths, seed, start_mode):
    """The Monte Carlo walk the replay once ran, kept as a reference:
    ``replay_over_paths`` on ``n_paths`` paths of ``sample_paths`` from
    ``seed`` (one path on the width-1 lattice)."""
    rows = n_paths if solution.backend.down else 1
    return replay_over_paths(solution, start_mode, sample_paths(solution.backend, rows, seed))


def enumerated_replay(solution, start_mode):
    """``replay_over_paths`` on every path (``all_paths``): the law of the replay, by brute force."""
    return replay_over_paths(solution, start_mode, all_paths(solution.backend))


# Float allowance of the law against a mean over paths, relative to the larger of 1 and the value.
ROUNDING = 1e-12


def assert_law_matches_enumeration(solution, start_mode):
    """``simulate_policy`` against ``enumerated_replay``: each leg's action
    exactly, its means and probabilities to float rounding (``ROUNDING``), and
    no sampling error. Returns the law's report as a dict."""
    law = simulate_policy(solution, start_mode).as_dict()
    every = enumerated_replay(solution, start_mode)
    for side in SIDES:
        mine, theirs = law["legs"][side], every["legs"][side]
        assert mine["action"] == theirs["action"] and mine["std_error"] == 0.0, side
        for key in ("stop_step", "realized", "value_gap", *(f"p_{key}" for key in BRANCH_KEYS)):
            assert abs(mine[key] - theirs[key]) <= ROUNDING * max(1.0, abs(theirs[key])), (side, key)
    return law


def leg_moments(solution, start_mode):
    """The exact mean and variance of each leg's stopping step and realized
    value, by backward recursion on its tables: at a stop node of step k the
    step is k and the value Y; elsewhere both carry the conditional
    expectation of the next step, the value plus its rate times dt (and the
    second moments accordingly). Maps side -> {"stop_step": (mean, var),
    "realized": (mean, var)}."""
    backend, (stops, _, rates, y) = solution.backend, replay_tables(solution, start_mode)
    steps = np.broadcast_to(backend.nodes(0, backend.n_steps + 1)[1].astype(float), stops.shape)
    tau, tau_sq, value, value_sq = (np.where(stops, x, 0.0) for x in (steps, steps**2, y, y**2))
    for k in range(backend.n_steps - 1, -1, -1):
        here, gain = at(stops, backend, k), at(rates, backend, k) * backend.dt
        t, t_sq, v, v_sq = (backend.moments(at(x, backend, k + 1), k)[0] for x in (tau, tau_sq, value, value_sq))
        for table, carried in ((tau, t), (tau_sq, t_sq), (value, gain + v), (value_sq, gain**2 + 2 * gain * v + v_sq)):
            at(table, backend, k)[:] = np.where(here, at(table, backend, k), carried)
    return {
        side: {name: (mean[s, 0], max(0.0, sq[s, 0] - mean[s, 0] ** 2)) for name, mean, sq in (
            ("stop_step", tau, tau_sq), ("realized", value, value_sq))}
        for s, side in enumerate(SIDES)
    }


# Chebyshev: a mean of n i.i.d. paths lies farther than sqrt(Var / (n * delta))
# from its expectation with probability at most delta. Each comparison of
# ``assert_walk_near_law`` fails with at most this probability on a correct law.
FAILURE_PROBABILITY = 1e-3


def assert_walk_near_law(solution, n_paths, seed, start_mode):
    """A seeded walk (``pinned_replay``) against the law (``simulate_policy``):
    each mean of the walk within its Chebyshev bound at ``FAILURE_PROBABILITY``
    of the law's value, plus ``ROUNDING``. The variances are exact: the
    stopping step's and the realized value's from ``leg_moments``, a branch
    frequency's p (1 - p) from the law's p. The walk meets no branch that the
    law gives probability 0. Returns both reports as dicts."""
    law = simulate_policy(solution, start_mode).as_dict()
    walk = pinned_replay(solution, n_paths, seed, start_mode)
    rows = n_paths if solution.backend.down else 1
    moments = leg_moments(solution, start_mode)
    for side in SIDES:
        mine, theirs = law["legs"][side], walk["legs"][side]
        variances = {name: moments[side][name][1] for name in ("stop_step", "realized")}
        variances.update({f"p_{key}": mine[f"p_{key}"] * (1.0 - mine[f"p_{key}"]) for key in BRANCH_KEYS})
        for name, variance in variances.items():
            bound = np.sqrt(variance / (rows * FAILURE_PROBABILITY)) + ROUNDING * max(1.0, abs(mine[name]))
            assert abs(theirs[name] - mine[name]) <= bound, (side, name, seed)
            if name.startswith("p_"):
                assert theirs[name] == 0.0 or mine[name] > 0.0, (side, name, seed)
    return law, walk
