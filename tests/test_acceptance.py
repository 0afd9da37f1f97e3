"""Acceptance suite: one test per release criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

All tolerances are pinned here, not configurable.
"""

import time
from itertools import product

import numpy as np
import pytest

from modeswitch.grid import Lattice
from modeswitch.model import (
    COMPONENTS,
    MINUS,
    PLUS,
    CoefficientFunction,
    Driver,
    row,
    validate_assumptions,
)
from modeswitch.scheme import solve_system
from modeswitch.strategy import TERMINATE, simulate_policy
from modeswitch.verify import ClosedFormFamily, audit_solution, check_nonuniqueness, counterexample_problem

from conftest import at, build_problem, remark_problem, smoke_problem
from picard_reference import first_iterate, initialize_scheme, iterate_once, reflect
from test_rbsde import (
    _SumDriver,
    brute_force_optimal_stopping,
    first_stop_rule_value,
    random_lower_instance,
    snell_envelope,
)
from conftest import bin_backend, det_backend


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_fixture_audit():
    """Both closed-form families pass the audit at N=2000 and the residuals
    halve when the grid doubles; the whole check runs in under 5 seconds."""
    t0 = time.perf_counter()
    residuals = {}
    ok = True
    details = []
    for n in (2000, 4000):
        backend = Lattice("deterministic", n, 1.0)
        for fid in (1, 2):
            rep = audit_solution(ClosedFormFamily(fid, 1.0).sample(backend))
            step = rep.max_over("max_step_residual")
            residuals[(n, fid)] = step
            if n == 2000:
                ok &= step <= 5e-3
                details.append(f"fam{fid} step {step:.2e}")
            ok &= rep.max_over("max_constraint_violation") <= 1e-12
            ok &= rep.max_over("skorokhod_sum") <= 1e-10
    for fid in (1, 2):
        ratio = residuals[(4000, fid)] / residuals[(2000, fid)]
        ok &= 0.4 <= ratio <= 0.6
        details.append(f"fam{fid} halving ratio {ratio:.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report("criterion 1: fixture audit + residual halving", ok,
           "; ".join(details) + f"; {elapsed:.2f}s")


def test_criterion_2_nonuniqueness():
    """Two exact solutions of one problem both pass audits while differing by
    at least e^2 - e at the start."""
    rep = check_nonuniqueness(1.0, 2000)
    ok = rep.report_family_1.passed and rep.report_family_2.passed
    ok &= rep.sup_distance >= np.e**2 - np.e - 1e-9
    ok &= rep.distinct
    report("criterion 2: non-uniqueness reproduction", ok,
           f"sup distance {rep.sup_distance:.4f} >= {np.e**2 - np.e:.4f}")


def test_criterion_3_minimality():
    """The iteration converges to the smaller family and never steps down."""
    problem = counterexample_problem(1.0)
    backend = Lattice("deterministic", 2000, 1.0)

    start = initialize_scheme(problem, backend)
    current = first_iterate(start, problem, backend)
    monotone = all(
        float(np.min(at(current.sol[(PLUS, mode)].y, backend, k) - at(start.y_plus0[mode].y, backend, k))) >= -1e-10
        for mode in (1, 2)
        for k in range(2001)
    )
    deltas = []
    for _ in range(500):
        nxt = iterate_once(current, problem, backend)
        for key in COMPONENTS:
            worst = min(
                float(np.min(at(nxt.sol[key].y, backend, k) - at(current.sol[key].y, backend, k)))
                for k in range(2001)
            )
            monotone &= worst >= -1e-10
        deltas.append(max(np.max(np.abs(nxt.sol[key].y - current.sol[key].y)) for key in COMPONENTS))
        current = nxt
        if deltas[-1] < 1e-8:
            break
    converged = deltas[-1] < 1e-8 and len(deltas) <= 500

    y0 = float(at(current.sol[(PLUS, 1)].y, backend, 0)[0])
    below_e = y0 <= np.e + 1e-3
    fam1 = ClosedFormFamily(1, 1.0)
    times = backend.times
    below_family = all(
        float(np.max(at(current.sol[key].y, backend, k) - fam1.y(key[0], key[1], times[k]))) <= 1e-3
        for key in COMPONENTS
        for k in range(2001)
    )
    ok = converged and monotone and below_e and below_family
    report("criterion 3: minimal solution", ok,
           f"Y+1(0) = {y0:.6f} <= e + 1e-3; {len(deltas)} sweeps; monotone {monotone}")


def test_criterion_4_snell_oracle():
    """The envelope from the Picard reference's reflected solve (zero driver)
    equals exhaustive stopping enumeration on 100 random depth-4 payoff
    surfaces, and the stop rule (exact contact, first stop), evaluated in law
    by the replay's mass pass, attains it."""
    rng = np.random.default_rng(2024)
    backend = bin_backend(4)
    ok = True
    worst = 0.0
    for _ in range(100):
        payoff = np.concatenate([rng.uniform(-1, 1, k + 1) for k in range(5)])
        env, stops = snell_envelope(payoff, backend)
        best = brute_force_optimal_stopping(payoff, backend, 4)
        root = float(at(env, backend, 0)[0])
        rule = first_stop_rule_value(payoff, backend, stops)
        worst = max(worst, abs(root - best), abs(rule - best))
        ok &= abs(root - best) <= 1e-12 and abs(rule - best) <= 1e-12
    report("criterion 4: stopping oracle equivalence", ok, f"worst gap {worst:.2e}")


def test_criterion_5_comparison_suite():
    """Raising the terminal value, the running rate, or the lower barrier never
    lowers any node value, across 50 random affine instances."""
    rng = np.random.default_rng(404)
    ok = True
    worst = 0.0
    for i in range(50):
        backend = bin_backend(16) if i % 2 else det_backend(32)
        drv, xi, barrier = random_lower_instance(rng, backend)
        base = reflect(drv, xi, barrier, backend)
        bump = float(rng.uniform(0.01, 0.5))
        n = backend.n_steps

        lifted_vals = [at(barrier, backend, k) + bump for k in range(n + 1)]
        lifted_vals[n] = np.minimum(at(barrier, backend, n) + bump, xi)
        variants = (
            reflect(drv, xi + bump, barrier, backend),
            reflect(
                _SumDriver(drv, Driver(1, PLUS, CoefficientFunction.constant(bump))),
                xi, barrier, backend),
            reflect(drv, xi, np.concatenate(lifted_vals), backend),
        )
        for variant in variants:
            drop = min(
                float(np.min(at(variant.y, backend, k) - at(base.y, backend, k))) for k in range(n + 1)
            )
            worst = min(worst, drop)
            ok &= drop >= -1e-12
    report("criterion 5: comparison ordering", ok, f"worst decrease {worst:.2e}")


def test_criterion_6_strategy_optimality():
    """Immediate termination on the fixture recovers Y_0 exactly; on the
    lattice smoke test the law of the replay recovers horizon value + running
    profit to float rounding."""
    t0 = time.perf_counter()
    problem = counterexample_problem(1.0)
    backend = Lattice("deterministic", 2000, 1.0)
    solution, trace = solve_system(problem, backend)
    rep = simulate_policy(solution, 1)
    leg = rep.leg(PLUS)
    det_ok = (
        trace.converged
        and leg.action == TERMINATE
        and leg.stop_step == 0
        and leg.value_gap <= 1e-6
    )

    smoke = smoke_problem()
    lattice = bin_backend(100)
    ssol, strace = solve_system(smoke, lattice)
    srep = simulate_policy(ssol, 1)
    sleg = srep.leg(PLUS)
    # terminal pays the walk itself (mean 0) plus unit running profit over [0,1]
    exact_ok = (
        strace.converged
        and sleg.action == "hold-to-horizon"
        and abs(sleg.realized - 1.0) <= 1e-12
        and sleg.value_gap <= 1e-12
    )
    elapsed = time.perf_counter() - t0
    ok = det_ok and exact_ok and elapsed < 10.0
    report("criterion 6: strategy optimality", ok,
           f"fixture gap {leg.value_gap:.2e}; smoke gap {abs(sleg.realized - 1.0):.2e} <= 1e-12; {elapsed:.2f}s")


def test_criterion_7_reflection_density():
    """The converged cost-side reflection density tracks the closed-form
    density's maximum (factor 2) across three grid resolutions."""
    problem = counterexample_problem(1.0)
    target = np.e
    ok = True
    details = []
    for n in (500, 1000, 2000):
        backend = Lattice("deterministic", n, 1.0)
        solution, trace = solve_system(problem, backend)
        dt = backend.dt
        density = max(float(at(solution.dk[row(MINUS, 1)], backend, k)[0]) / dt for k in range(n))
        ok &= trace.converged and target / 2 <= density <= 2 * target
        details.append(f"N={n}: {density:.3f}")
    report("criterion 7: reflection density bound", ok,
           "; ".join(details) + f" vs e = {target:.3f}")


def test_criterion_8_assumption_validator():
    """The feasibility example passes; three injected defects are each caught
    by name with everything else still passing."""
    lattice = Lattice("deterministic", 64, 1.0)
    base_ok = validate_assumptions(remark_problem(1.0), lattice).all_passed

    zero_ell = validate_assumptions(build_problem(ell=0.0), lattice)
    ell_names = {c.name for c in zero_ell.failures()}
    ell_ok = ell_names == {"A2 switching cost ell_1 > 0", "A2 switching cost ell_2 > 0"}

    bad_bc = validate_assumptions(
        build_problem(terminals={(PLUS, 1): 0.0, (PLUS, 2): 10.0, (MINUS, 1): 0.0, (MINUS, 2): 0.0}),
        lattice,
    )
    bc_ok = {c.name for c in bad_bc.failures()} == {"BC terminal xi_plus_1"}

    no_ito = validate_assumptions(
        build_problem(
            b=(CoefficientFunction.constant(0.0, has_ito_data=False), CoefficientFunction.constant(0.0))
        ),
        lattice,
    )
    ito_ok = {c.name for c in no_ito.failures()} == {"A4 Ito data for b_1"}

    ok = base_ok and ell_ok and bc_ok and ito_ok
    report("criterion 8: assumption validator", ok,
           f"feasible data pass={base_ok}; ell={ell_ok}; boundary={bc_ok}; ito={ito_ok}")
