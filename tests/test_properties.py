"""Randomized properties over small problems on both lattice kinds.

The one-pass solver equals the Picard reference bit for bit, its fixed-point
certificate passes exactly when one Picard sweep moves no node, its solution
satisfies the audit's constraint, K-sign and complementarity relations, paths
stop exactly where Y equals its barrier (and every push is such a stop), the
width-1 replay realizes Y_0, no Y drops when the data gives more to collect
(the system's comparison ordering), and the CLI ends every run with an exit code, also on problems
the validator rejects. Examples are drawn deterministically (settings profile in
conftest.py), so failures reproduce.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from modeswitch.cli import main
from modeswitch.grid import Lattice, TimeGrid
from modeswitch.model import (
    COMPONENTS,
    MINUS,
    PLUS,
    CoefficientFunction,
    Driver,
    SwitchingProblem,
    Terminal,
    replace,
    row,
    validate_assumptions,
)
from modeswitch.scheme import SchemeError, _certify_fixed_point, solve_system, system_obstacles
from modeswitch.strategy import contact_masks, simulate_policy
from modeswitch.verify import audit_solution

from conftest import assert_certificate_premise, assert_law_matches_enumeration, assert_matches_pinned
from picard_reference import Iterate, iterate_once, picard_system

KINDS = st.sampled_from(("deterministic", "binomial"))
STEPS = st.integers(min_value=4, max_value=24)
SIGNS = {"plus": 1.0, "minus": -1.0}  # profit terminals above the common level, cost terminals below


def unit(lo=-1.0, hi=1.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


@st.composite
def coefficients(draw):
    kind = draw(st.sampled_from(("constant", "exponential", "polynomial")))
    if kind == "constant":
        return CoefficientFunction.constant(draw(unit(-3.0, 3.0)))
    if kind == "exponential":
        return CoefficientFunction.exponential(draw(unit(-3.0, 3.0)), draw(unit()))
    return CoefficientFunction.polynomial(draw(st.lists(unit(-3.0, 3.0), min_size=1, max_size=3)))


@st.composite
def admissible_problems(draw):
    """Problems the validator accepts on grids of 4..24 steps: the four
    terminals share a slope and sit within ell/2 of a common level, which
    gives the horizon inequalities whatever the exit costs, and driver slopes
    stay below 1/2, which gives the step and comparison conditions.

    When b > a the terminate chain gains b - a per local sweep, so the sweep
    count grows like gap / (b - a); the draw keeps b <= a or b >= a + 0.05,
    well inside the sweep cap."""
    ell = draw(unit(0.05, 1.5))
    a = draw(unit(0.0, 1.0))
    b = draw(st.one_of(unit(0.0, a), unit(a + 0.05, a + 0.5)))
    level, slope = draw(unit()), draw(unit(-0.5, 0.5))
    offsets = [draw(unit(0.0, ell / 2)) for _ in COMPONENTS]
    terminals = {
        (side, mode): Terminal(level + SIGNS[side] * offset, slope)
        for (side, mode), offset in zip(COMPONENTS, offsets)
    }
    drivers = {
        (side, mode): Driver(
            mode,
            side,
            draw(coefficients()),
            c1=draw(unit(-0.5, 0.5)),
            c2=draw(unit(-0.5, 0.5)),
            state_feature=draw(st.sampled_from(("one", "x"))),
        )
        for side, mode in COMPONENTS
    }
    ell, a, b = ((CoefficientFunction.constant(v),) * 2 for v in (ell, a, b))
    return SwitchingProblem(horizon=1.0, drivers=drivers, ell=ell, a=a, b=b, terminals=terminals)


def admissible_case(problem, kind, steps):
    backend = Lattice(kind, TimeGrid(steps, problem.horizon))
    assume(validate_assumptions(problem, backend).all_passed)
    return backend


@given(admissible_problems(), KINDS, STEPS)
def test_one_pass_equals_picard_reference(problem, kind, steps):
    backend = admissible_case(problem, kind, steps)
    fast, fast_trace = solve_system(problem, backend)
    ref, ref_trace = picard_system(problem, backend, tol=1e-14)
    assert fast_trace.converged and ref_trace.converged
    for field in ("y", "z", "dk"):
        np.testing.assert_array_equal(getattr(fast, field), getattr(ref, field))


@given(admissible_problems(), KINDS, STEPS)
def test_step_kernel_equals_pinned_pass(problem, kind, steps):
    assert_matches_pinned(problem, admissible_case(problem, kind, steps))


@given(admissible_problems(), KINDS, STEPS)
def test_push_is_the_certificates_euler_gap(problem, kind, steps):
    assert_certificate_premise(problem, admissible_case(problem, kind, steps))


def sweep_moves(solution) -> bool:
    """Whether one reference Picard sweep from the solution moves any node."""
    again = iterate_once(Iterate.of(solution, n=0), solution.problem, solution.backend)
    return any(np.max(np.abs(again.y(*key) - solution.y[row(*key)])) for key in COMPONENTS)


@given(admissible_problems(), KINDS, STEPS, st.data())
def test_certificate_agrees_with_one_picard_sweep(problem, kind, steps, data):
    backend = admissible_case(problem, kind, steps)
    solution, _ = solve_system(problem, backend)
    table = problem.driver_table(backend)
    _certify_fixed_point(solution, system_obstacles(solution)[0], table)
    assert not sweep_moves(solution)

    key = data.draw(st.sampled_from(COMPONENTS))
    i = data.draw(st.integers(0, backend.offsets[steps] - 1))  # a node before the horizon
    y = solution.y[row(*key)]
    y[i] = np.nextafter(y[i], data.draw(st.sampled_from((-np.inf, np.inf))))
    assert sweep_moves(solution)
    k, _ = backend.locate(i)
    with pytest.raises(SchemeError, match=rf"at step ({k}|{k - 1}), node "):
        _certify_fixed_point(solution, system_obstacles(solution)[0], table)


@given(admissible_problems(), KINDS, STEPS)
def test_audit_relations_hold(problem, kind, steps):
    backend = admissible_case(problem, kind, steps)
    solution, _ = solve_system(problem, backend)
    report = audit_solution(solution)
    caps = report.caps()
    for name in ("max_constraint_violation", "k_sign_violation", "skorokhod_sum"):
        assert report.max_over(name) <= caps[name], name


@given(admissible_problems(), KINDS, STEPS)
def test_paths_stop_exactly_on_contact(problem, kind, steps):
    backend = admissible_case(problem, kind, steps)
    solution, _ = solve_system(problem, backend)
    obstacles = system_obstacles(solution)[0]
    horizon = np.arange(backend.size) >= backend.offsets[steps]
    stops, _ = contact_masks(solution)
    rows = (b.reshape(4, -1) for b in (stops, solution.y, obstacles, solution.dk))
    for key, mask, y, barrier, dk in zip(COMPONENTS, *rows):
        np.testing.assert_array_equal(mask, (y == barrier) | horizon)
        assert mask[dk > 0].all(), key


@given(admissible_problems(), STEPS)
def test_width_one_replay_realizes_the_value(problem, steps):
    # off the stops dK = 0, so the replayed running sum telescopes to Y_0
    backend = admissible_case(problem, "deterministic", steps)
    solution, _ = solve_system(problem, backend)
    for mode in (1, 2):
        report = simulate_policy(solution, mode)
        for side in (PLUS, MINUS):
            assert report.leg(side).value_gap <= 1e-12 * max(1.0, abs(solution.y0(side, mode))), (side, mode)


@given(admissible_problems(), KINDS, st.integers(min_value=4, max_value=12), st.sampled_from((1, 2)))
def test_replay_equals_pinned_replay(problem, kind, steps, mode):
    # the law against the replay written out over every one of the 2^N paths
    solution, _ = solve_system(problem, admissible_case(problem, kind, steps))
    assert_law_matches_enumeration(solution, mode)


@st.composite
def raised_pairs(draw):
    """A problem from ``admissible_problems`` and a copy with more to collect:
    all four terminal intercepts raised by the same d >= 0, or the c0 of one
    driver with state feature "one" raised by a constant d >= 0 (a constant
    or polynomial c0 carries the constant in its own kind)."""
    problem = draw(admissible_problems())
    d = draw(unit(0.0, 2.0))
    raisable = [
        key for key, drv in problem.drivers.items() if drv.state_feature == "one" and drv.c0.kind != "exponential"
    ]
    if raisable and draw(st.booleans()):
        key = draw(st.sampled_from(raisable))
        drv = problem.drivers[key]
        c0 = CoefficientFunction(drv.c0.kind, (drv.c0.params[0] + d, *drv.c0.params[1:]))
        changes = {"drivers": {**problem.drivers, key: replace(drv, c0=c0)}}
    else:
        changes = {"terminals": {key: Terminal(t.intercept + d, t.slope) for key, t in problem.terminals.items()}}
    return problem, replace(problem, **changes)


@given(raised_pairs(), KINDS, STEPS)
def test_system_comparison_ordering(pair, kind, steps):
    low, high = pair
    backend = admissible_case(low, kind, steps)
    assume(validate_assumptions(high, backend).all_passed)
    below, _ = solve_system(low, backend)
    above, _ = solve_system(high, backend)
    for key in COMPONENTS:
        assert np.min(above.y[row(*key)] - below.y[row(*key)]) >= -1e-12, key


@st.composite
def problem_documents(draw):
    """Problem files shaped like ``admissible_problems``, each given at most
    one defect: a non-positive switching cost, a terminal off its barrier, a
    Lipschitz constant too large for the step, a z slope that breaks the
    comparison condition, an exit benefit just above the exit cost, whose
    terminate chain creeps past the local sweep cap, or a driver slope that is
    not a number."""
    ell, a = draw(unit(0.05, 1.5)), draw(unit(0.0, 1.0))
    costs = {"ell_1": ell, "ell_2": ell, "a_1": a, "a_2": a, "b_1": draw(unit(0.0, a)), "b_2": a}
    level, slope = draw(unit()), draw(unit(-0.5, 0.5))
    terminals = {
        f"{side}_{mode}": {"intercept": level + SIGNS[side] * draw(unit(0.0, ell / 2)), "slope": slope}
        for side, mode in COMPONENTS
    }
    drivers = [
        {"mode": mode, "side": side, "c0": draw(unit(-3.0, 3.0)), "c1": draw(unit(-0.5, 0.5)),
         "c2": draw(unit(-0.5, 0.5)), "state_feature": draw(st.sampled_from(("one", "x")))}
        for side, mode in COMPONENTS
    ]
    defect = draw(st.sampled_from((None, "ell", "terminal", "lipschitz", "comparison", "creep", "malformed")))
    if defect == "ell":
        costs["ell_2"] = draw(unit(-0.5, 0.0))
    elif defect == "terminal":
        terminals["plus_1"]["intercept"] = level + draw(unit(2.0, 5.0))
    elif defect == "lipschitz":
        drivers[0]["c1"] = draw(unit(10.0, 20.0))
    elif defect == "comparison":
        drivers[1]["c2"] = draw(unit(4.0, 8.0))
    elif defect == "creep":
        drivers[2]["c0"] = drivers[3]["c0"] = 10.0
        costs.update(a_1=0.0, a_2=0.0, b_1=1e-5, b_2=1e-5)
    elif defect == "malformed":
        drivers[draw(st.integers(0, 3))][draw(st.sampled_from(("c1", "c2")))] = draw(
            st.sampled_from(([1.0], {"kind": "constant"}, "fast", None))
        )
    return {"horizon": draw(unit(0.5, 2.0)), "drivers": drivers, "costs": costs, "terminals": terminals}


@given(
    problem_documents(),
    st.sampled_from(("solve", "simulate", "check-assumptions")),
    KINDS,
    st.integers(min_value=2, max_value=24),
)
def test_cli_always_exits_with_a_code(doc, command, kind, steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--problem", str(path), "--backend", kind, "--steps", str(steps)]
        if command != "check-assumptions":
            argv += ["--out", str(Path(tmp) / "out")]
        if command == "simulate":
            argv += ["--paths", "20"]
        assert main(argv) in (0, 1, 2)
