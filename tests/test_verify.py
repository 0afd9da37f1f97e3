from pathlib import Path

import numpy as np
import pytest

from modeswitch.grid import Lattice
from modeswitch.io import load_problem
from modeswitch.model import COMPONENTS, MINUS, PLUS, by_side, validate_assumptions
from modeswitch.scheme import BalanceSheetSolution, solve_system
from modeswitch.verify import (
    ClosedFormFamily,
    audit_solution,
    check_nonuniqueness,
    counterexample_problem,
)

from conftest import det_backend, driver_rate, whole_block_contacts
from picard_reference import skorokhod_sum


class TestCounterexampleProblem:
    def test_mode2_profit_rate(self):
        problem = counterexample_problem(1.0)
        drv = problem.driver(PLUS, 2)
        # at t=0 the switching cost is 1, so the rate at y=1 is 1 + 1
        assert driver_rate(drv, 0.0, 0.0, 1.0, 0.0) == pytest.approx(2.0)

    def test_switching_cost_at_horizon(self):
        problem = counterexample_problem(1.0)
        assert problem.ell[0]([1.0]) == [pytest.approx(np.exp(-4.0), abs=1e-12)]

    def test_terminal_inequalities_hold(self):
        problem = counterexample_problem(1.0)
        report = validate_assumptions(problem, det_backend(64))
        assert report.all_passed, report.lines()

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            counterexample_problem(0.0)


class TestClosedFormFamilies:
    @pytest.mark.parametrize("fid", [1, 2])
    def test_terminal_values_are_one(self, fid):
        fam = ClosedFormFamily(fid, 1.0)
        for side, mode in COMPONENTS:
            assert float(fam.y(side, mode, 1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_family_one_expressions(self):
        T = 1.0
        fam = ClosedFormFamily(1, T)
        t = np.linspace(0, T, 7)
        np.testing.assert_allclose(fam.y(PLUS, 1, t), np.exp(T - t))
        np.testing.assert_allclose(fam.y(MINUS, 1, t), np.exp(T - t))
        np.testing.assert_allclose(
            fam.y(PLUS, 2, t), np.exp(T - t) + (np.exp(-4 * t) - np.exp(-3 * T - t)) / 3
        )
        np.testing.assert_allclose(fam.k_density(PLUS, 1, t), 0.0)
        np.testing.assert_allclose(fam.k_density(MINUS, 1, t), np.exp(T - t))
        assert not fam.sample(det_backend(6)).z.any()  # Z = 0 in every component

    def test_family_two_expressions(self):
        T = 1.0
        fam = ClosedFormFamily(2, T)
        t = np.linspace(0, T, 7)
        np.testing.assert_allclose(fam.y(PLUS, 1, t), np.exp(2 * (T - t)))
        np.testing.assert_allclose(
            fam.y(MINUS, 2, t),
            np.exp(2 * (T - t)) + (np.exp(-4 * t) - np.exp(-2 * (T + t))) / 2,
        )
        np.testing.assert_allclose(fam.k_density(MINUS, 1, t), 0.0)
        np.testing.assert_allclose(fam.k_density(PLUS, 1, t), np.exp(2 * (T - t)))

    @pytest.mark.parametrize("family_id", [3, True, 1.0])
    def test_bad_family_id(self, family_id):
        # the factory alone held the rule: the record evaluated family 2 for id 3 and family 1 for True or 1.0
        with pytest.raises(ValueError, match=rf"^family_id must be the integer 1 or 2, got {family_id!r}$"):
            ClosedFormFamily(family_id, 1.0)

    @pytest.mark.parametrize("horizon", [-1.0, float("inf"), True, np.True_])
    def test_bad_horizon(self, horizon):
        with pytest.raises(ValueError, match=rf"^horizon must be positive and finite, got {horizon!r}$"):
            ClosedFormFamily(1, horizon)

    def test_a_family_sampled_on_another_horizon_is_refused(self):
        # it sampled e^{T - t} on [0, 2] as a solution of the T = 1 problem
        with pytest.raises(ValueError, match=r"^the lattice's horizon 2\.0 is not the problem's horizon 1\.0$"):
            ClosedFormFamily(1, 1.0).sample(det_backend(100, 2.0))

    def test_family_one_profit_binds_through_termination(self):
        # strictly inside the horizon the switch branch sits below the
        # termination branch, which coincides with the profit value itself
        T = 1.0
        fam = ClosedFormFamily(1, T)
        problem = counterexample_problem(T)
        t = np.linspace(0.0, T, 257)[:-1]
        for mode, other in ((1, 2), (2, 1)):
            switch_branch = fam.y(PLUS, other, t) - problem.ell[mode - 1](t)
            exit_branch = fam.y(MINUS, mode, t) - problem.a[mode - 1](t)
            assert np.all(switch_branch < exit_branch)
            np.testing.assert_array_equal(exit_branch, fam.y(PLUS, mode, t))


class TestAuditSolution:
    @pytest.mark.parametrize("fid", [1, 2])
    def test_families_pass_audit(self, fid):
        be = det_backend(500)
        candidate = ClosedFormFamily(fid, 1.0).sample(be)
        report = audit_solution(candidate)
        assert report.passed, report.failures()
        assert report.max_over("max_constraint_violation") <= 1e-12
        assert report.max_over("skorokhod_sum") <= 1e-10
        assert report.max_over("terminal_mismatch") <= 1e-12

    def test_residuals_scale_first_order(self):
        residuals = {}
        for n in (1000, 2000):
            be = det_backend(n)
            candidate = ClosedFormFamily(1, 1.0).sample(be)
            residuals[n] = audit_solution(candidate).max_over("max_step_residual")
        assert 0.4 <= residuals[2000] / residuals[1000] <= 0.6

    def test_zero_solution_audits_exactly_zero(self, zero_problem):
        be = det_backend(64)
        candidate = BalanceSheetSolution(zero_problem, be, np.zeros((2, 2, be.size)))
        report = audit_solution(candidate)
        for key in COMPONENTS:
            res = report.components[key]
            assert res.max_step_residual == 0.0
            assert res.max_constraint_violation == 0.0
            assert res.skorokhod_sum == 0.0
            assert res.k_sign_violation == 0.0
            assert res.max_k_density == 0.0
            assert res.terminal_mismatch == 0.0

    def test_scheme_output_passes_same_thresholds(self):
        problem = counterexample_problem(1.0)
        be = det_backend(500)
        solution, _ = solve_system(problem, be)
        report = audit_solution(solution)
        assert report.passed, report.failures()
        assert report.max_over("max_constraint_violation") <= 1e-12
        assert report.max_over("skorokhod_sum") <= 1e-10

    def test_tampered_family_detected(self):
        be = det_backend(500)
        candidate = ClosedFormFamily(1, 1.0).sample(be)
        candidate.y[0, 0] *= 1.01  # (plus, 1)
        report = audit_solution(candidate)
        assert not report.passed
        assert any("terminal_mismatch" in f for f in report.failures())

    def test_report_serialization(self):
        be = det_backend(200)
        report = audit_solution(ClosedFormFamily(1, 1.0).sample(be))
        doc = report.as_dict()
        assert doc["passed"] is True
        assert "10x" in doc["threshold_note"]
        assert set(doc["components"]) == {"plus_1", "plus_2", "minus_1", "minus_2"}

    def test_corrupted_integrand_inflates_lattice_residual(self):
        # with z in the running rate, doubling Z must show up in the step
        # residual even though the conditional-expectation audit drops the
        # martingale term itself
        from modeswitch.grid import Lattice
        from modeswitch.model import Driver, CoefficientFunction, Terminal
        from conftest import build_problem

        drivers = {
            (PLUS, 1): Driver(1, PLUS, CoefficientFunction.constant(0.1), c1=0.2, c2=0.3),
            (PLUS, 2): Driver(2, PLUS, CoefficientFunction.constant(0.1), c1=0.2, c2=0.3),
            (MINUS, 1): (0.0, 0.1, 0.2),
            (MINUS, 2): (0.0, 0.1, 0.2),
        }
        problem = build_problem(drivers=drivers, ell=2.0, a=2.0, b=2.0, terminals=Terminal(0.0, 1.0))
        be = Lattice("binomial", 32, 1.0)
        solution, trace = solve_system(problem, be)
        assert trace.converged
        clean = audit_solution(solution).max_over("max_step_residual")

        class DoubledZ(BalanceSheetSolution):
            def increments(self, start, stop, steps=None, states=None):
                e, euler, z, dk = super().increments(start, stop, steps, states)
                z[0, 0] *= 2.0  # (plus, 1)
                return e, euler, z, dk

        tampered = DoubledZ(problem, be, solution.y)
        assert (tampered.z[0, 0] == 2.0 * solution.z[0, 0]).all() and tampered.z[0, 0].any()
        dirty = audit_solution(tampered).max_over("max_step_residual")
        assert dirty > 10 * max(clean, 1e-12)

    def test_binomial_audit_of_constant_problem(self, zero_problem):
        # conditional-expectation form of the audit on the lattice
        from modeswitch.grid import Lattice

        be = Lattice("binomial", 16, 1.0)
        candidate = BalanceSheetSolution(zero_problem, be, np.zeros((2, 2, be.size)))
        report = audit_solution(candidate)
        assert report.passed


def whole_block_audit(solution):
    """``audit_solution`` written out on the whole blocks at once, as it ran
    before it went by step chunks: the same relations and expressions."""
    problem, backend = solution.problem, solution.backend
    dt, n, before = backend.dt, backend.n_steps, slice(0, backend.offsets[backend.n_steps])
    y, z, dk = solution.y, solution.z[..., before], solution.dk
    gaps = by_side("inside", y, whole_block_contacts(solution)[0])
    sums, cont = skorokhod_sum(gaps, dk, backend, n), backend.flat_moments(y, 0, n)[0]
    yk, dk_k = y[..., before], dk[..., before]
    _, steps, _, states = backend.nodes(0, n)
    psi = solution.tables[0].rate(steps, states, 0.5 * (yk + cont), z)
    resid = (yk - cont - psi * dt - np.reshape([1.0, -1.0], (2, 1, 1)) * dk_k) / dt
    mismatch = np.abs(y[..., backend.offsets[n] :] - problem.terminal_block(backend.state(n)))
    return {
        key: {
            "max_step_residual": max(0.0, float(np.max(np.abs(resid[index])))),
            "max_constraint_violation": max(0.0, float(np.max(-gaps[index]))),
            "skorokhod_sum": float(sums[index]),
            "k_sign_violation": max(0.0, float(np.max(-dk_k[index]))),
            "max_k_density": max(0.0, float(np.max(dk_k[index])) / dt),
            "terminal_mismatch": float(np.max(mismatch[index])),
        }
        for key, index in zip(COMPONENTS, np.ndindex(2, 2))
    }


@pytest.mark.parametrize("path, kind, n", [
    ("bench/problems/switching_lattice.json", "binomial", 400),
    ("problems/smoke_lattice.json", "binomial", 300),
    ("problems/counterexample.json", "deterministic", 2000),
])  # fmt: skip
def test_the_audit_by_step_chunks_equals_the_whole_block_audit(path, kind, n):
    # several chunks on the binomial lattices, one on the width-1 fixture; a sampled family too
    problem = load_problem(Path(__file__).resolve().parents[1] / path)
    backend = Lattice(kind, n, problem.horizon)
    solution, _ = solve_system(problem, backend)
    for candidate in (solution, ClosedFormFamily(1, 1.0).sample(Lattice(kind, n, 1.0))):
        report = audit_solution(candidate)
        assert {key: report.components[key].as_dict() for key in COMPONENTS} == whole_block_audit(candidate)


class TestNonUniqueness:
    def test_families_differ_but_both_solve(self):
        report = check_nonuniqueness(1.0, 1000)
        assert report.report_family_1.passed
        assert report.report_family_2.passed
        assert report.sup_distance >= np.e**2 - np.e - 1e-9
        assert report.family_1_below_family_2
        assert report.distinct

    def test_step_count_that_is_not_an_int_is_refused(self):
        with pytest.raises(ValueError, match="n_steps must be an int, got 150.5"):
            check_nonuniqueness(1.0, 150.5)

    def test_short_horizon_still_passes(self):
        report = check_nonuniqueness(0.1, 500)
        assert report.report_family_1.passed
        assert report.report_family_2.passed
        assert report.sup_distance > 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            check_nonuniqueness(-1.0, 500)
        with pytest.raises(ValueError):
            check_nonuniqueness(1.0, 50)

    def test_report_serialization(self):
        doc = check_nonuniqueness(1.0, 500).as_dict()
        assert doc["distinct_solutions"] is True
        assert doc["family_1"]["passed"] and doc["family_2"]["passed"]
