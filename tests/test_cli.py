import argparse
import contextlib
import csv
import errno
import gc
import importlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modeswitch
from modeswitch import cli
from modeswitch.cli import main
from modeswitch.grid import Lattice
from modeswitch.io import load_problem, read_surface_csv, write_surface_csv
from modeswitch.model import COMPONENTS, CoefficientFunction, ProblemError, row
from modeswitch.scheme import BalanceSheetSolution, solve_system
from modeswitch.verify import audit_solution, counterexample_problem

from conftest import driver_rate

def counterexample_doc():
    exp = {"kind": "exponential", "params": [1.0, -4.0]}
    return {
        "horizon": 1.0,
        "drivers": [
            {"mode": 1, "side": "plus", "c0": 0.0, "c1": 1.0},
            {"mode": 2, "side": "plus", "c0": exp, "c1": 1.0},
            {"mode": 1, "side": "minus", "c0": 0.0, "c1": 2.0},
            {"mode": 2, "side": "minus", "c0": exp, "c1": 2.0},
        ],
        "costs": {"ell_1": exp, "ell_2": exp, "a_1": 0.0, "a_2": 0.0, "b_1": 0.0, "b_2": 0.0},
        "terminals": {"plus_1": 1.0, "plus_2": 1.0, "minus_1": 1.0, "minus_2": 1.0},
    }


def smoke_doc():
    return {
        "horizon": 1.0,
        "drivers": [
            {"mode": 1, "side": "plus", "c0": 1.0},
            {"mode": 2, "side": "plus", "c0": 1.0},
            {"mode": 1, "side": "minus", "c0": 0.0},
            {"mode": 2, "side": "minus", "c0": 0.0},
        ],
        "costs": {name: 1000.0 for name in ("ell_1", "ell_2", "a_1", "a_2", "b_1", "b_2")},
        "terminals": {
            f"{side}_{mode}": {"intercept": 0.0, "slope": 1.0} for side, mode in COMPONENTS
        },
    }


def creep_doc(b):
    """Zero profit, cost rate 10, free termination and switching cost b: see ``test_nonconvergence_exits_two``."""
    doc = counterexample_doc()
    doc["drivers"] = [
        {"mode": 1, "side": "plus", "c0": 0.0},
        {"mode": 2, "side": "plus", "c0": 0.0},
        {"mode": 1, "side": "minus", "c0": 10.0},
        {"mode": 2, "side": "minus", "c0": 10.0},
    ]
    doc["terminals"] = {f"{s}_{m}": 0.0 for s, m in COMPONENTS}
    doc["costs"] = {"ell_1": 0.05, "ell_2": 0.05, "a_1": 0.0, "a_2": 0.0, "b_1": b, "b_2": b}
    return doc


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SIDE_SPELLINGS = "must be one of 'plus', 'minus', '+', '-'"
FEATURES = "must be one of 'one', 'x'"
EXP = {"kind": "exponential", "params": [1.0, -4.0]}


class TestProblemLoading:
    def test_counterexample_round_trip(self, tmp_path):
        path = write_doc(tmp_path, counterexample_doc())
        problem = load_problem(path)
        reference = counterexample_problem(1.0)
        assert problem.horizon == reference.horizon
        assert driver_rate(problem.driver("plus", 2), 0.0, 0.0, 1.0, 0.0) == pytest.approx(2.0)
        assert problem.ell[0]([1.0]) == [pytest.approx(np.exp(-4.0))]

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"horizon": 1.0,\n  "drivers": [}')
        with pytest.raises(ProblemError, match="line 2"):
            load_problem(path)

    def test_missing_cost_entry_named(self, tmp_path):
        doc = counterexample_doc()
        del doc["costs"]["ell_1"]
        with pytest.raises(ProblemError, match="ell_1"):
            load_problem(write_doc(tmp_path, doc))

    def test_bad_coefficient_named(self, tmp_path):
        doc = counterexample_doc()
        doc["costs"]["a_2"] = {"kind": "exponential", "params": [1.0]}
        with pytest.raises(ProblemError, match="costs.a_2"):
            load_problem(write_doc(tmp_path, doc))

    def test_bad_driver_slope_exits_one(self, tmp_path, capsys):
        doc = counterexample_doc()
        doc["drivers"][2]["c1"] = [1.0]
        assert main(["check-assumptions", "--problem", str(write_doc(tmp_path, doc))]) == 1
        assert "drivers[2].c1 must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda doc: doc.update(horizon=True), "'horizon' must be a number"),
            (lambda doc: doc.update(horizon="2.5"), "'horizon' must be a number"),
            (lambda doc: doc.update(horizon=10**400), "'horizon' must be a number"),
            (lambda doc: doc["drivers"][1].update(c1="1e0"), "drivers[1].c1 must be a number"),
            (lambda doc: doc["drivers"][0].update(mode=1.9), "drivers[0].mode must be the integer 1 or 2"),
            (lambda doc: doc["drivers"][0].update(mode=True), "drivers[0].mode must be the integer 1 or 2"),
            (lambda doc: doc["drivers"][0].update(side="up"), f"drivers[0].side {SIDE_SPELLINGS}"),
            (lambda doc: doc["drivers"][0].update(side=1), f"drivers[0].side {SIDE_SPELLINGS}"),
            (lambda doc: doc["drivers"][3].update(side=["plus"]), f"drivers[3].side {SIDE_SPELLINGS}"),
            (lambda doc: doc["terminals"].update(plus_2=True), "terminals.plus_2 must be a number"),
            (
                lambda doc: doc["costs"].update(ell_2={"kind": "constant", "params": [1.0], "ito": "false"}),
                "costs.ell_2.ito must be true or false",
            ),
            (lambda doc: doc["drivers"][0].update(state_feature=True), f"drivers[0].state_feature {FEATURES}"),
            (lambda doc: doc["drivers"][1].update(state_feature=None), f"drivers[1].state_feature {FEATURES}"),
            (lambda doc: doc["drivers"][2].update(state_feature=1), f"drivers[2].state_feature {FEATURES}"),
            (lambda doc: doc["drivers"][3].update(state_feature="y"), f"drivers[3].state_feature {FEATURES}"),
            (lambda doc: doc.update(name="fixture"), "unknown field 'name'"),
            (lambda doc: doc["drivers"][0].update(c_1=1.0), "drivers[0]: unknown field 'c_1'"),
            (lambda doc: doc["costs"].update(ell_3=1.0), "costs: unknown field 'ell_3'"),
            (lambda doc: doc["terminals"].update(plus_3=1.0), "terminals: unknown field 'plus_3'"),
            (lambda doc: doc["costs"].update(ell_1={**EXP, "rate": 2.0}), "costs.ell_1: unknown field 'rate'"),
            (
                lambda doc: doc["drivers"][1].update(c0={**EXP, "ito_data": True}),
                "drivers[1].c0: unknown field 'ito_data'",
            ),
            (
                lambda doc: doc["terminals"].update(plus_1={"intercept": 1.0, "slop": 2.0}),
                "terminals.plus_1: unknown field 'slop'",
            ),
            (lambda doc: doc.pop("horizon"), "missing field 'horizon'"),
            (lambda doc: doc["drivers"].__setitem__(2, 1.0), "drivers[2]: expected an object"),
            (lambda doc: doc["drivers"][0].pop("mode"), "drivers[0]: missing field 'mode'"),
            (lambda doc: doc["drivers"][1].update(mode=1), "drivers[1]: duplicate driver for (plus, 1)"),
            (lambda doc: doc.update(costs=[]), "'costs' must be an object with keys ell_1..b_2"),
            (lambda doc: doc.update(terminals=1.0), "'terminals' must be an object with keys plus_1..minus_2"),
            (lambda doc: doc["terminals"].pop("minus_2"), "'terminals' missing entry 'minus_2'"),
            (
                lambda doc: doc["costs"].update(a_1={"kind": "constant"}),
                "costs.a_1: expected an object with 'kind' and a 'params' list",
            ),
            (
                lambda doc: doc["costs"].update(b_1={"kind": "constant", "params": [1.0, 2.0]}),
                "costs.b_1: constant coefficient takes one parameter",
            ),
            (
                lambda doc: doc["drivers"][1].update(c0={"kind": "polynomial", "params": []}),
                "drivers[1].c0: polynomial coefficient needs coefficients",
            ),
            (lambda doc: doc["terminals"].update(plus_1={"slope": 1.0}), "terminals.plus_1: missing field 'intercept'"),
        ],
        ids=[
            "horizon-true",
            "horizon-string",
            "horizon-huge-int",
            "c1-string",
            "mode-float",
            "mode-true",
            "side-unknown",
            "side-int",
            "side-list",
            "terminal-true",
            "ito-string",
            "feature-true",
            "feature-null",
            "feature-int",
            "feature-unknown",
            "unknown-top-level",
            "unknown-driver-field",
            "unknown-cost",
            "unknown-terminal",
            "unknown-coefficient-field",
            "unknown-driver-coefficient-field",
            "unknown-terminal-field",
            "no-horizon",
            "driver-not-object",
            "driver-without-mode",
            "duplicate-driver",
            "costs-not-object",
            "terminals-not-object",
            "terminal-missing",
            "coefficient-without-params",
            "constant-two-params",
            "polynomial-no-params",
            "terminal-without-intercept",
        ],
    )
    def test_ill_typed_field_exits_one_naming_it(self, tmp_path, capsys, edit, named):
        # JSON booleans and numeric strings are refused, not read as numbers
        doc = counterexample_doc()
        edit(doc)
        assert main(["check-assumptions", "--problem", str(write_doc(tmp_path, doc))]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_document_not_an_object_or_not_there(self, tmp_path, capsys):
        listed, missing = tmp_path / "list.json", tmp_path / "missing.json"
        listed.write_text("[]")
        for path, named in (
            (listed, "problem document must be a JSON object"),
            (missing, f"cannot read problem file {missing}: [Errno 2] No such file or directory: '{missing}'"),
        ):
            assert main(["check-assumptions", "--problem", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {named}\n"

    @staticmethod
    def undecodable(case) -> bytes:
        # the fixture's document with one value the decoder cannot take, or in bytes that are not UTF-8
        doc = counterexample_doc()
        if case == "nested-too-deep":
            doc["drivers"] = "DEEP"
            return json.dumps(doc).replace('"DEEP"', "[" * 200_000 + "]" * 200_000).encode()
        if case == "integer-past-digit-limit":
            doc["horizon"] = "DIGITS"
            return json.dumps(doc).replace('"DIGITS"', "1" * 5000).encode()
        return b"\xff\xfe" + json.dumps(doc).encode()

    @pytest.mark.parametrize("case, reason", [
        ("nested-too-deep", "maximum recursion depth exceeded while decoding a JSON array"),
        ("integer-past-digit-limit", "Exceeds the limit (4300 digits) for integer string conversion"),
        ("utf-16-byte-order-mark", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["nested-too-deep", "integer-past-digit-limit", "utf-16-byte-order-mark"])  # fmt: skip
    def test_undecodable_document_exits_one_naming_the_file(self, tmp_path, capsys, case, reason):
        path = tmp_path / f"{case}.json"
        path.write_bytes(self.undecodable(case))
        assert main(["check-assumptions", "--problem", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}: {reason}")
        assert captured.err.count("\n") == 1

    def test_missing_driver_entry(self, tmp_path):
        doc = counterexample_doc()
        doc["drivers"] = doc["drivers"][:3]
        with pytest.raises(ProblemError, match="drivers"):
            load_problem(write_doc(tmp_path, doc))


class TestSolveCommand:
    def test_counterexample_solve(self, tmp_path):
        path = write_doc(tmp_path, counterexample_doc())
        out = tmp_path / "run"
        code = main(["solve", "--problem", path, "--steps", "400", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["y0"]["plus_1"] == pytest.approx(np.e, abs=1e-2)
        assert summary["y0"]["plus_1"] <= np.e + 1e-3
        for side, mode in COMPONENTS:
            for prefix in ("Y", "Z", "K"):
                assert (out / f"{prefix}_{side}_{mode}.csv").exists()
        trace_lines = (out / "trace.csv").read_text().strip().splitlines()
        assert trace_lines[0] == "step,local_sweeps"
        assert len(trace_lines) == 401
        assert summary["max_local_sweeps"] == max(int(line.split(",")[1]) for line in trace_lines[1:])

    def test_release_scale_solve(self, tmp_path):
        path = write_doc(tmp_path, counterexample_doc())
        out = tmp_path / "full"
        code = main(["solve", "--problem", path, "--steps", "2000", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert abs(summary["y0"]["plus_1"] - np.e) <= 1e-3

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        path = write_doc(tmp_path, counterexample_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--problem", path, "--steps", "200", "--out", str(out1)]) == 0
        assert main(["solve", "--problem", path, "--steps", "200", "--out", str(out2)]) == 0
        for name in ("summary.json", "Y_plus_1.csv", "K_minus_2.csv", "trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_problem_solves_to_zero(self, tmp_path):
        doc = counterexample_doc()
        for drv in doc["drivers"]:
            drv["c0"], drv["c1"] = 0.0, 0.0
        doc["costs"] = {
            "ell_1": 1.0, "ell_2": 1.0, "a_1": 0.0, "a_2": 0.0, "b_1": 0.0, "b_2": 0.0
        }
        doc["terminals"] = {f"{s}_{m}": 0.0 for s, m in COMPONENTS}
        path = write_doc(tmp_path, doc)
        out = tmp_path / "zero"
        assert main(["solve", "--problem", path, "--steps", "100", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(v == 0.0 for v in summary["y0"].values())

    @pytest.mark.parametrize("steps", ["1", "0"])
    def test_too_few_steps_exits_one(self, tmp_path, capsys, steps):
        path = write_doc(tmp_path, counterexample_doc())
        assert main(["solve", "--problem", path, "--steps", steps, "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == "error: need at least 2 time steps\n"
        assert not (tmp_path / "s").exists()

    def test_zero_switching_cost_exits_one_naming_check(self, tmp_path, capsys):
        doc = counterexample_doc()
        doc["costs"]["ell_1"] = 0.0
        doc["costs"]["ell_2"] = 0.0
        path = write_doc(tmp_path, doc)
        code = main(["solve", "--problem", path, "--steps", "50", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "A2" in err and "ell" in err

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code = main(["solve", "--problem", str(path), "--steps", "50", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_nonconvergence_exits_two(self, tmp_path, capsys):
        # Zero profit, cost rate 10, free termination (a = 0): at each step the
        # switch/terminate chain lifts the cost value by b - a per local sweep
        # until it meets the Euler value, about 0.1 / b sweeps. At b = 1e-4
        # that passes the sweep cap; at b = 1e-3 it settles.
        runs = {}
        for b in (1e-4, 1e-3):
            path = write_doc(tmp_path, creep_doc(b), name=f"creep-{b}.json")
            out = tmp_path / f"nc-{b}"
            runs[b] = main(["solve", "--problem", path, "--steps", "100", "--out", str(out)]), out
            runs[b] += (capsys.readouterr().err,)
        code, out, err = runs[1e-4]
        assert code == 2
        assert "did not converge at step 99, node 0" in err
        assert not (out / "summary.json").exists()

        code, out, err = runs[1e-3]
        assert code == 0 and err == ""
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert 50 <= summary["max_local_sweeps"] <= 500
        problem = load_problem(tmp_path / "creep-0.001.json")
        solution, _ = solve_system(problem, Lattice("deterministic", 100, 1.0))
        report = audit_solution(solution)
        assert report.max_over("max_constraint_violation") <= 1e-10
        assert report.max_over("skorokhod_sum") <= 1e-8
        assert report.max_over("k_sign_violation") == 0.0


class TestVerifyCommand:
    def test_default_scale_passes(self, tmp_path):
        out = tmp_path / "v"
        code = main(["verify-fixtures", "--steps", "1000", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "fixtures.json").read_text())
        assert doc["distinct_solutions"] is True

    def test_coarse_grid_thresholds_scale(self, tmp_path):
        # residuals grow ~10x at N=200 vs N=2000 but caps scale with dt
        out = tmp_path / "vc"
        assert main(["verify-fixtures", "--steps", "200", "--out", str(out)]) == 0
        doc = json.loads((out / "fixtures.json").read_text())
        assert doc["family_1"]["components"]["plus_2"]["max_step_residual"] > 1e-3

    def test_too_few_steps_is_an_input_error(self, tmp_path, capsys):
        code = main(["verify-fixtures", "--steps", "10", "--out", str(tmp_path / "v")])
        assert code == 1
        assert "N >= 100" in capsys.readouterr().err

    def test_backend_is_not_an_option(self, tmp_path, capsys):
        # the fixtures are deterministic; the command takes --seed like every other
        with pytest.raises(SystemExit) as exc:
            main(["verify-fixtures", "--backend", "binomial", "--out", str(tmp_path / "v")])
        assert exc.value.code == 2 and "unrecognized arguments: --backend binomial" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()
        assert cli.parse_args(["verify-fixtures", "--seed", "3"]).seed == 3


class TestOneTabulationPerRecord:
    """Each command evaluates each of its problem's ten coefficients (four driver c0 and six costs)
    once per solution record: the record carries its tables, and no reader builds them again."""

    @staticmethod
    def counted(monkeypatch) -> list:
        called, call = [], CoefficientFunction.__call__
        counted = lambda self, times: called.append(self) or call(self, times)  # noqa: E731
        monkeypatch.setattr(CoefficientFunction, "__call__", counted)
        return called

    @staticmethod
    def coefficients(problem) -> Counter:
        return Counter([problem.driver(*key).c0 for key in COMPONENTS] + [*problem.ell, *problem.a, *problem.b])

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    @pytest.mark.parametrize("path, kind, n", [
        ("problems/counterexample.json", "deterministic", 2000),
        ("bench/problems/switching_lattice.json", "binomial", 100),
    ])  # fmt: skip
    def test_solve_and_simulate_evaluate_each_coefficient_once(self, tmp_path, monkeypatch, command, path, kind, n):
        called = self.counted(monkeypatch)
        args = [command, "--problem", str(ROOT / path), "--backend", kind, "--steps", str(n), "--out", str(tmp_path)]
        assert main(args) == 0
        assert len(called) == 10 and Counter(called) == self.coefficients(load_problem(ROOT / path))

    def test_verify_fixtures_evaluates_each_coefficient_once_per_family(self, tmp_path, monkeypatch):
        called = self.counted(monkeypatch)
        assert main(["verify-fixtures", "--steps", "200", "--out", str(tmp_path)]) == 0
        once = self.coefficients(counterexample_problem(1.0))
        assert len(called) == 10 and Counter(called) == once  # the second family record reads the first's tables


class TestSimulateCommand:
    def test_counterexample_immediate_termination(self, tmp_path):
        path = write_doc(tmp_path, counterexample_doc())
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--problem", path, "--steps", "400", "--mode", "1",
             "--paths", "1", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "strategy.json").read_text())
        leg = doc["legs"]["plus"]
        assert leg["action"] == "terminate"
        assert leg["stop_step"] == 0
        assert abs(leg["realized"] - np.e) < 1e-2
        assert leg["value_gap"] <= 1e-6

    def test_binomial_runs_byte_identical(self, tmp_path):
        path = write_doc(tmp_path, smoke_doc())
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        args = ["simulate", "--problem", path, "--backend", "binomial", "--steps", "30",
                "--paths", "500", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "strategy.json").read_bytes() == (out2 / "strategy.json").read_bytes()

    @pytest.mark.parametrize("backend", ["deterministic", "binomial"])
    def test_path_count_and_seed_are_not_read(self, tmp_path, backend):
        # the replay computes the law: --paths and --seed are accepted and change no byte
        path = write_doc(tmp_path, switching_doc())
        args = ["simulate", "--problem", path, "--backend", backend, "--steps", "20"]
        outs = [tmp_path / name for name in ("default", "zero", "many")]
        for out, extra in zip(outs, ([], ["--paths", "0", "--seed", "-1"], ["--paths", "100000", "--seed", "7"])):
            assert main(args + extra + ["--out", str(out)]) == 0
        first, *others = ((out / "strategy.json").read_bytes() for out in outs)
        assert others == [first, first]
        assert json.loads(first)["legs"]["plus"]["action"] != "terminate"  # a leg that moves


class TestCheckAssumptionsCommand:
    def test_valid_problem_passes(self, tmp_path, capsys):
        path = write_doc(tmp_path, counterexample_doc())
        assert main(["check-assumptions", "--problem", path, "--steps", "50"]) == 0
        assert "[pass]" in capsys.readouterr().out

    def test_invalid_problem_fails(self, tmp_path, capsys):
        doc = counterexample_doc()
        doc["costs"]["ell_1"] = 0.0
        path = write_doc(tmp_path, doc)
        assert main(["check-assumptions", "--problem", path, "--steps", "50"]) == 1
        assert "[FAIL]" in capsys.readouterr().out


class TestSurfaceRoundTrip:
    @pytest.mark.parametrize("path, kind, n", [
        (None, "deterministic", 300),
        ("bench/problems/switching_lattice.json", "binomial", 400),  # 80 601 nodes: the audit crosses two chunk ends
    ], ids=["fixture", "switching-binomial-400"])  # fmt: skip
    def test_reaudit_from_csv_matches(self, tmp_path, path, kind, n):
        # the read-back record tabulates its own tables at its first read
        problem = counterexample_problem(1.0) if path is None else load_problem(ROOT / path)
        be = Lattice(kind, n, 1.0)
        assert len(be.step_chunks(n)) == (1 if path is None else 3)
        solution, _ = solve_system(problem, be)
        original = audit_solution(solution)

        fields = {"Y": "y", "Z": "z", "K": "dk"}
        for side, mode in COMPONENTS:
            for name, field in fields.items():
                write_surface_csv(tmp_path / f"{name}_{side}_{mode}.csv", be, getattr(solution, field)[row(side, mode)])

        blocks = {
            name: np.array([read_surface_csv(tmp_path / f"{name}_{side}_{mode}.csv", be) for side, mode in COMPONENTS])
            .reshape(2, 2, -1) for name in fields
        }
        reread = BalanceSheetSolution(problem, be, blocks["Y"])  # Z and dK follow from Y, as written
        for name, field in fields.items():
            assert blocks[name].tobytes() == getattr(reread, field).tobytes(), name
        again = audit_solution(reread)
        for key in COMPONENTS:
            a, b = original.components[key].as_dict(), again.components[key].as_dict()
            for name in a:
                assert abs(a[name] - b[name]) <= 1e-12

    def test_surfaces_read_onto_another_horizon_are_refused(self, tmp_path):
        # a surface file names steps and nodes only, so it reads onto any lattice of its size
        problem, be, longer = counterexample_problem(1.0), Lattice("binomial", 20, 1.0), Lattice("binomial", 20, 2.0)
        solution, _ = solve_system(problem, be)
        reread = []
        for name, block in (("Y", solution.y), ("Z", solution.z), ("K", solution.dk)):
            for side, mode in COMPONENTS:
                write_surface_csv(tmp_path / f"{name}_{side}_{mode}.csv", be, block[row(side, mode)])
                reread.append(read_surface_csv(tmp_path / f"{name}_{side}_{mode}.csv", longer))
        with pytest.raises(ValueError, match=r"^the lattice's horizon 2\.0 is not the problem's horizon 1\.0$"):
            BalanceSheetSolution(problem, longer, np.reshape(reread, (3, 2, 2, -1))[0])

    @pytest.mark.parametrize("kind, n", [("binomial", 3), ("deterministic", 9)])
    def test_bytes_are_csv_writer_bytes_and_read_back_bit_for_bit(self, tmp_path, kind, n):
        be = Lattice(kind, n, 1.0)  # 10 nodes either way
        data = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e300, 0.1, -2.5, 1 / 3, 7.0])
        path = tmp_path / "Y.csv"
        write_surface_csv(path, be, data)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["step", "node", "value"])
        _, steps, index, _ = be.nodes(0, n + 1)
        writer.writerows(zip(steps.tolist(), index.tolist(), map(repr, data.tolist())))
        assert path.read_bytes() == expected.getvalue().encode()
        assert read_surface_csv(path, be).tobytes() == data.tobytes()

    def test_solve_writes_csv_writer_bytes_across_step_chunks(self, tmp_path):
        # N = 400 binomial: 80 601 nodes in three step chunks, so the writer hands over chunk boundaries
        path = Path(__file__).resolve().parents[1] / "bench/problems/switching_lattice.json"
        out, be = tmp_path / "out", Lattice("binomial", 400, 1.0)
        assert be.step_chunks(401) == [(0, 255), (255, 361), (361, 401)]
        args = ["solve", "--problem", str(path), "--backend", "binomial", "--steps", "400", "--out", str(out)]
        assert main(args) == 0
        solution, _ = solve_system(load_problem(path), be)
        places = [(k, j) for k in range(401) for j in range(k + 1)]
        for name, block in (("Y", solution.y), ("Z", solution.z), ("K", solution.dk)):
            for side, mode in COMPONENTS:
                file, values = out / f"{name}_{side}_{mode}.csv", block[row(side, mode)]
                expected = io.StringIO(newline="")
                writer = csv.writer(expected)
                writer.writerow(["step", "node", "value"])
                writer.writerows((k, j, repr(v)) for (k, j), v in zip(places, values.tolist()))
                assert file.read_bytes() == expected.getvalue().encode(), file.name
                assert read_surface_csv(file, be).tobytes() == values.tobytes(), file.name

    def test_refuses_a_buffer_of_the_wrong_shape(self, tmp_path):
        be = Lattice("binomial", 3, 1.0)
        path = tmp_path / "Y.csv"
        for shape in ((8,), (9,), (1, be.size)):
            with pytest.raises(ValueError, match=rf"needs 10 node values, got shape \({shape[0]},"):
                write_surface_csv(path, be, np.zeros(shape))
        assert not path.exists()

    @staticmethod
    def written_lines(tmp_path, be):
        path = tmp_path / "Y.csv"
        write_surface_csv(path, be, np.arange(be.size, dtype=float))
        return path, path.read_text().splitlines(keepends=True)

    def test_missing_row_is_named(self, tmp_path):
        be = Lattice("binomial", 4, 1.0)
        path, lines = self.written_lines(tmp_path, be)
        path.write_text("".join(lines[:-1]))  # drop the last horizon node
        with pytest.raises(ValueError, match="step 4, node 4 is missing"):
            read_surface_csv(path, be)
        path.write_text("".join(lines[:2] + lines[3:]))  # drop (1, 0), the second node
        with pytest.raises(ValueError, match="step 1, node 0 is missing"):
            read_surface_csv(path, be)

    @pytest.mark.parametrize("edit, line", [
        (lambda lines: lines[1:], 1),  # no header: the first data row is read as one
        (lambda lines: ["step,node\r\n", *lines[1:]], 1),  # a missing column
        (lambda lines: [*lines[:3], "1,1\r\n", *lines[4:]], 4),  # a short row
        (lambda lines: [*lines[:2], "1,0,abc\r\n", *lines[3:]], 3),  # a field that is not a number
    ], ids=["no-header", "missing-column", "short-row", "not-a-number"])
    def test_malformed_file_names_the_path_and_line(self, tmp_path, edit, line):
        be = Lattice("binomial", 4, 1.0)
        path, lines = self.written_lines(tmp_path, be)
        path.write_text("".join(edit(lines)))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {line}: "):
            read_surface_csv(path, be)

    def test_repeated_or_stray_row_is_named(self, tmp_path):
        be = Lattice("binomial", 4, 1.0)
        path, lines = self.written_lines(tmp_path, be)
        path.write_text("".join(lines[:6] + [lines[5].replace(",4.0", ",-1.0")] + lines[6:]))  # (2, 1) again
        with pytest.raises(ValueError, match="step 2, node 1 is repeated"):
            read_surface_csv(path, be)
        path.write_text("".join(lines + ["2,3,0.5\r\n"]))  # step 2 has nodes 0..2
        with pytest.raises(ValueError, match="step 2, node 3 is not on the lattice"):
            read_surface_csv(path, be)
        path.write_text("".join(lines[:4] + ["99999999999999999999,0,1.0\r\n"] + lines[4:]))  # past int64
        past = rf"^{re.escape(str(path))}: line 5: step 99999999999999999999, node 0 is not on the lattice$"
        with pytest.raises(ValueError, match=past):
            read_surface_csv(path, be)

    def test_the_first_failing_line_is_named_whatever_its_fault(self, tmp_path):
        # the rows are parsed, then mapped by batches: a row off the lattice before a malformed one is
        # named, and so is a malformed row before one off the lattice; a row off the lattice is named before
        # its value is read
        be = Lattice("binomial", 4, 1.0)
        path, lines = self.written_lines(tmp_path, be)
        for edit, message in (
            ([*lines[:3], "9,0,1.0\r\n", *lines[4:7], "1,0,abc\r\n", *lines[7:]], "line 4: step 9, node 0 is not on"),
            ([*lines[:3], "1,0,abc\r\n", *lines[4:7], "9,0,1.0\r\n", *lines[7:]], "line 4: could not convert"),
            ([*lines[:3], "9,0,abc\r\n", *lines[4:]], "line 4: step 9, node 0 is not on"),
        ):
            path.write_text("".join(edit))
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}"):
                read_surface_csv(path, be)


def switching_doc():
    """The bench switching problem: state-scaled profit rates, small switching
    cost, zero terminals."""
    return {
        "horizon": 1.0,
        "drivers": [
            {"mode": 1, "side": "plus", "c0": 1.0, "state_feature": "x", "c1": 0.5},
            {"mode": 2, "side": "plus", "c0": -1.0, "state_feature": "x", "c1": 0.5},
            {"mode": 1, "side": "minus", "c0": 0.5, "c1": 0.2},
            {"mode": 2, "side": "minus", "c0": 0.3, "c1": 0.2},
        ],
        "costs": {"ell_1": 0.05, "ell_2": 0.05, "a_1": 0.5, "a_2": 0.5, "b_1": 0.5, "b_2": 0.5},
        "terminals": {f"{s}_{m}": 0.0 for s, m in COMPONENTS},
    }


def state_terminal_doc():
    """Terminal inequalities hold at x = 0 but fail far out on the lattice."""
    doc = switching_doc()
    for drv in doc["drivers"]:
        drv.pop("c1")
    doc["terminals"]["plus_1"] = {"intercept": 0.0, "slope": 3.0}
    doc["terminals"]["plus_2"] = {"intercept": 0.0, "slope": -3.0}
    return doc


class TestErrorBoundary:
    def test_state_terminal_reproduction_exits_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, state_terminal_doc())
        args = ["solve", "--problem", path, "--backend", "binomial", "--steps", "20"]
        assert main(args + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "BC terminal xi_plus_" in err

    def test_step_too_coarse_exits_one(self, tmp_path, capsys):
        doc = counterexample_doc()
        doc["drivers"][0]["c1"] = 10.0
        path = write_doc(tmp_path, doc)
        assert main(["solve", "--problem", path, "--steps", "10", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too coarse" in err

    def test_validator_refuses_a_step_too_coarse(self, tmp_path, capsys):
        # dt (|c1| + |c2|) = 0.01 * 60 passes the comparison check (1 - 0.6 >= 0)
        # but not the step guard of the solver
        doc = counterexample_doc()
        doc["drivers"][0]["c1"] = -60.0
        path = write_doc(tmp_path, doc)
        common = ["--problem", path, "--steps", "100", "--out", str(tmp_path / "x")]
        assert main(["check-assumptions", *common]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] A6 step size psi_plus_1 (value 0.6): " in out and "too coarse" in out
        assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
            line for line in out.splitlines() if "A6 step size psi_plus_1" in line
        ]
        assert main(["solve", *common]) == 1
        assert "[FAIL] A6 step size psi_plus_1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_horizon_is_refused_at_load(self, tmp_path, capsys, value):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(counterexample_doc()).replace('"horizon": 1.0', f'"horizon": {value}'))
        for command in ("check-assumptions", "solve"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, "--problem", str(path), "--out", str(tmp_path / "x")]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.splitlines() == [
                f"error: 'horizon' must be positive and finite, got {value.lower()[:3]}"
            ]

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_overflow_exits_one_with_one_error_line(self, tmp_path, command):
        # every check passes (dt c1 = 0.4995 < 1/2), but Y grows by 1 + c1 dt a
        # step and leaves float64 a few hundred steps before t = 0
        doc = counterexample_doc()
        doc["drivers"] = [{**driver, "c1": 999.0} for driver in doc["drivers"]]
        done = run_python("-m", "modeswitch.cli", command, "--problem", write_doc(tmp_path, doc), "--out", str(tmp_path))
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.splitlines() == [
            "error: Euler value not finite at step 263, node 0: (plus,1) is nan; the data overflows float64"
        ]

    # data whose catalog or terminals leave float64, on the switching problem, binomial, N = 50
    OVERFLOWS = {
        "ell_1": (lambda doc: doc["costs"].update(ell_1={"kind": "exponential", "params": [1.0, 800.0]}),
                  ["[FAIL] A2 switching cost ell_1 > 0 at t=0.9 (value inf): strictly positive at every grid time"]),
        "a_1": (lambda doc: doc["costs"].update(a_1={"kind": "polynomial", "params": [1e308, 1e308]}),
                ["[FAIL] A2 cost a_1 finite at t=0.8 (value inf)"]),
        "plus_1": (lambda doc: doc["terminals"].update(plus_1={"intercept": 0.0, "slope": 1e308}), [
            "[FAIL] A3 terminal xi_plus_1 square integrable (value inf): not finite at node 0",
            "[FAIL] BC terminal xi_plus_1 at t=1 (value -2.82843e+307): margin -2.83e+307 at node 26",
            "[FAIL] BC terminal xi_plus_2 at t=1 (value -inf): margin -inf at node 0",
            "[FAIL] BC terminal xi_minus_1 at t=1 (value -2.82843e+307): margin -2.83e+307 at node 26",
        ]),
    }  # fmt: skip

    @pytest.mark.parametrize("warnings_flag", [[], ["-W", "error::RuntimeWarning"]], ids=["default", "strict"])
    @pytest.mark.parametrize("case", list(OVERFLOWS))
    def test_data_that_overflows_fails_its_check_and_warns_nothing(self, tmp_path, case, warnings_flag):
        # the catalog, the terminals and the validator run in Python floats: an overflow is inf, not a
        # numpy warning, so stderr holds the failing checks' report alone, and no traceback under strict warnings
        change, failing = self.OVERFLOWS[case]
        doc = switching_doc()
        change(doc)
        args = ["--problem", write_doc(tmp_path, doc), "--backend", "binomial", "--steps", "50", "--out", str(tmp_path)]
        check = run_python(*warnings_flag, "-m", "modeswitch.cli", "check-assumptions", *args)
        assert check.returncode == 1 and check.stderr == ""
        report = check.stdout.splitlines()
        assert [line for line in report if line.startswith("[FAIL]")] == failing and len(report) == 31
        solve = run_python(*warnings_flag, "-m", "modeswitch.cli", "solve", *args)
        names = "; ".join(line[len("[FAIL] "):].split(" at t=")[0].split(" (value")[0] for line in failing)
        assert solve.returncode == 1 and solve.stdout == ""
        assert solve.stderr.splitlines() == [f"error: assumption validation failed: {names}", *report]

    # numpy's message for the int64 index array of the binomial lattice of N = 200 000 (20 000 300 001 nodes)
    NO_MEMORY = "Unable to allocate 149. GiB for an array with shape (20000300001,) and data type int64"

    @pytest.mark.parametrize("command", ["check-assumptions", "solve", "simulate"])
    def test_a_lattice_too_large_to_allocate_exits_one(self, tmp_path, capsys, monkeypatch, command):
        # the allocation is refused by a stand-in, so no test asks for the memory
        def refuse(*args):
            raise MemoryError(self.NO_MEMORY)

        monkeypatch.setattr(cli, "Lattice", refuse)
        args = [command, "--problem", write_doc(tmp_path, counterexample_doc()), "--backend", "binomial"]
        assert main([*args, "--steps", "200000", "--out", str(tmp_path / "x")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            f"error: out of memory on the binomial lattice of N = 200000 steps (20000300001 nodes): {self.NO_MEMORY}"
        ]

    @pytest.mark.parametrize("command, module, name", [
        ("solve", "modeswitch.scheme", "solve_system"), ("verify-fixtures", "modeswitch.verify", "check_nonuniqueness")
    ])  # fmt: skip
    def test_out_of_memory_after_the_lattice_exits_one(self, tmp_path, capsys, monkeypatch, command, module, name):
        reason = "Unable to allocate 61.1 MiB for an array with shape (2, 2, 2001000) and data type float64"

        def refuse(*args, **kwargs):
            raise MemoryError(reason)

        monkeypatch.setattr(importlib.import_module(module), name, refuse)
        args = [command, "--problem", write_doc(tmp_path, counterexample_doc())] if command == "solve" else [command]
        assert main([*args, "--steps", "2000", "--out", str(tmp_path / "x")]) == 1
        where = "the deterministic lattice of N = 2000 steps (2001 nodes)"
        assert capsys.readouterr().err == f"error: out of memory on {where}: {reason}\n"

    def test_simulate_prints_validation_report(self, tmp_path, capsys):
        doc = counterexample_doc()
        doc["costs"]["ell_1"] = 0.0
        path = write_doc(tmp_path, doc)
        assert main(["simulate", "--problem", path, "--steps", "50", "--out", str(tmp_path / "x")]) == 1
        assert "[FAIL] A2 switching cost ell_1 > 0" in capsys.readouterr().err


class TestValidatorGaps:
    def test_terminal_inequalities_checked_at_every_node(self, tmp_path, capsys):
        path = write_doc(tmp_path, state_terminal_doc())
        assert main(["check-assumptions", "--problem", path, "--backend", "binomial", "--steps", "20"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] BC terminal xi_plus_1" in out
        assert "[FAIL] BC terminal xi_plus_2" in out

    def test_comparison_condition_refuses_coarse_lattice(self, tmp_path, capsys):
        doc = switching_doc()
        doc["drivers"][0]["c2"] = 4.0
        path = write_doc(tmp_path, doc)
        common = ["--problem", path, "--backend", "binomial", "--steps", "10"]
        assert main(["check-assumptions", *common]) == 1
        assert "[FAIL] A5 comparison psi_plus_1" in capsys.readouterr().out
        assert main(["solve", *common, "--out", str(tmp_path / "x")]) == 1
        assert "A5 comparison psi_plus_1" in capsys.readouterr().err
        # finer steps restore the condition: 4 * sqrt(1/40) <= 1 + 0.5 / 40
        assert main(["check-assumptions", "--problem", path, "--backend", "binomial", "--steps", "40"]) == 0


class TestFailedWrites:
    """An output that cannot be written exits 1 with one ``error:`` line naming
    its path, in a new interpreter, so a traceback would show on stderr."""

    SOLVE = ["solve", "--problem", "problems/counterexample.json"]
    SIMULATE = ["simulate", "--problem", "problems/counterexample.json", "--paths", "10"]

    @staticmethod
    def refused(command, out):
        done = run_python("-m", "modeswitch.cli", *command, "--steps", "100", "--out", str(out))
        assert done.returncode == 1 and done.stdout == "" and "Traceback" not in done.stderr
        return done.stderr.splitlines()

    @pytest.mark.parametrize(
        "command, blocked",
        [
            (SOLVE, "Y_plus_1.csv"),
            (SOLVE, "summary.json"),
            (SIMULATE, "strategy.json"),
            (["verify-fixtures"], "fixtures.json"),
        ],
        ids=["solve-surface", "solve-summary", "simulate", "verify"],
    )
    def test_a_directory_in_place_of_an_output_file(self, tmp_path, command, blocked):
        (tmp_path / blocked).mkdir()
        assert self.refused(command, tmp_path) == [
            f"error: cannot write {tmp_path / blocked}: {os.strerror(errno.EISDIR)}"
        ]

    def test_a_blocked_summary_leaves_no_surface(self, tmp_path):
        (tmp_path / "summary.json").mkdir()
        self.refused(self.SOLVE, tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["summary.json"]

    def test_a_failed_solve_removes_a_stale_summary(self, tmp_path):
        # a summary.json sits only beside the whole of the run that wrote it
        (tmp_path / "summary.json").write_text("{}")
        (tmp_path / "Y_plus_1.csv").mkdir()
        assert self.refused(self.SOLVE, tmp_path) == [
            f"error: cannot write {tmp_path / 'Y_plus_1.csv'}: {os.strerror(errno.EISDIR)}"
        ]
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("command", [SOLVE, SIMULATE, ["verify-fixtures"]], ids=["solve", "simulate", "verify"])
    def test_an_output_directory_below_a_regular_file(self, tmp_path, command):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert self.refused(command, out) == [f"error: cannot write {out}: {os.strerror(errno.ENOTDIR)}"]


ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv) -> subprocess.CompletedProcess:
    """``python argv...`` in a new interpreter on this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True)


def fresh_interpreter(code: str, *args) -> str:
    """Last line of stdout of ``code`` run in a new interpreter on this source tree."""
    done = run_python("-c", code, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


class TestImportScope:
    """A command loads only the modules it runs, in a fresh interpreter; ``csv``
    is read by ``read_surface_csv`` alone, which no command calls, no
    command loads ``dataclasses``: a record generates no code (``model.Record``),
    nor ``argparse``, ``gettext`` or ``locale``: ``cli.parse_args`` reads the option table,
    and ``check-assumptions`` loads no numpy: it validates in Python floats."""

    REPORT = (
        "import json, sys\n"
        "from modeswitch.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "watched = ('modeswitch.strategy', 'modeswitch.verify', 'numpy', 'numpy.random', 'csv', 'dataclasses',\n"
        "           'argparse', 'gettext', 'locale')\n"
        "print(json.dumps([code, [name for name in watched if name in sys.modules]]))"
    )
    FIXTURE = ["--problem", "problems/counterexample.json"]
    LATTICE = ["--problem", "bench/problems/switching_lattice.json", "--backend", "binomial"]

    @pytest.mark.parametrize(
        "command, loaded",
        [
            (["check-assumptions", *FIXTURE], []),
            (["solve", *FIXTURE], ["numpy"]),
            (["simulate", *FIXTURE, "--paths", "100"], ["modeswitch.strategy", "numpy"]),
            (["verify-fixtures"], ["modeswitch.verify", "numpy"]),
            (["check-assumptions", *LATTICE], []),
        ],
    )
    def test_fixture_command_loads_only_what_it_runs(self, tmp_path, command, loaded):
        args = [*command, "--steps", "200", "--out", str(tmp_path)]
        assert json.loads(fresh_interpreter(self.REPORT, *args)) == [0, loaded]

    PACKAGE = (
        "import json, sys\n"
        "from modeswitch.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(name for name in sys.modules if name.startswith('modeswitch.'))]))"
    )

    @pytest.mark.parametrize("command, runs", [
        (["check-assumptions", *FIXTURE], []),
        (["solve", *FIXTURE], ["scheme"]),
        (["simulate", *FIXTURE], ["scheme", "strategy"]),
        (["verify-fixtures"], ["scheme", "verify"]),
    ])  # fmt: skip
    def test_each_command_loads_the_package_modules_it_runs(self, tmp_path, command, runs):
        # check-assumptions validates a problem on a lattice and loads no solver
        args = [*command, "--steps", "100", "--out", str(tmp_path)]
        loaded = sorted(f"modeswitch.{name}" for name in ("cli", "grid", "io", "model", *runs))
        assert json.loads(fresh_interpreter(self.PACKAGE, *args)) == [0, loaded]

    def test_a_replay_that_moves_draws_nothing(self, tmp_path):
        # the profit leg of the switching problem leaves its root: the law needs no generator
        args = ["simulate", "--problem", "bench/problems/switching_lattice.json", "--backend", "binomial",
                "--steps", "50", "--paths", "100000", "--out", str(tmp_path)]
        assert json.loads(fresh_interpreter(self.REPORT, *args)) == [0, ["modeswitch.strategy", "numpy"]]

    def test_every_public_name_resolves_lazily(self):
        code = (
            "import json, sys, modeswitch\n"
            "before = sorted(m for m in sys.modules if m.startswith('modeswitch.'))\n"
            "from modeswitch import *\n"
            "missing = [name for name in modeswitch.__all__ if name not in globals()]\n"
            "print(json.dumps([before, missing, len(modeswitch.__all__)]))"
        )
        assert json.loads(fresh_interpreter(code)) == [[], [], 25]
        for name in modeswitch.__all__:
            module = importlib.import_module(f"modeswitch.{modeswitch._EXPORTS[name]}")
            assert getattr(modeswitch, name) is getattr(module, name), name
        with pytest.raises(AttributeError, match="has no attribute 'solve'"):
            modeswitch.solve  # noqa: B018


class TestProcessEntry:
    """``run`` is the process entry: ``main``'s exit code, after ``gc.freeze()``, so the collections at
    interpreter shutdown skip what the command made. ``main`` leaves the collector alone."""

    FIXTURE = ["--problem", str(ROOT / "problems/counterexample.json"), "--steps", "100"]

    def commands(self, tmp_path):
        """An exit-0, an exit-1 and an exit-2 command line, by their code."""
        creep = write_doc(tmp_path, creep_doc(1e-4), name="creep.json")
        return {
            0: ["solve", *self.FIXTURE, "--out", str(tmp_path / "ok")],
            1: ["solve", *self.FIXTURE[:2], "--steps", "1", "--out", str(tmp_path / "one")],
            2: ["solve", "--problem", creep, "--steps", "100", "--out", str(tmp_path / "creep")],
        }

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for code, argv in self.commands(tmp_path).items():
                before = gc.get_freeze_count()
                assert main(argv) == code
                assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, before), code
        finally:
            (gc.enable if was_enabled else gc.disable)()

    RUN = (
        "import gc, json, sys\n"
        "from modeswitch.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "print(json.dumps([code, gc.get_freeze_count() > 0, gc.isenabled()]))"
    )

    @pytest.mark.parametrize("code", [0, 1])
    def test_run_returns_mains_code_and_freezes(self, tmp_path, code):
        argv = self.commands(tmp_path)[code]
        assert json.loads(fresh_interpreter(self.RUN, *argv)) == [code, True, True]
        assert main(argv) == code

    def test_module_exits_with_runs_code(self, tmp_path):
        for code, argv in self.commands(tmp_path).items():
            assert run_python("-m", "modeswitch.cli", *argv).returncode == code

    def test_the_installed_script_is_run(self):
        # read as text: Python 3.10 has no tomllib
        scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert scripts.strip().splitlines() == ['modeswitch = "modeswitch.cli:run"']


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``cli.OPTIONS`` and ``cli.COMMANDS`` replaced, less its help text and
    with no abbreviations: the reference that ``cli.parse_args`` is held to."""
    parser = argparse.ArgumentParser(prog="modeswitch", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify-fixtures", "simulate", "check-assumptions"):
        command = sub.add_parser(name, allow_abbrev=False)
        if name != "verify-fixtures":
            command.add_argument("--problem", required=True)
            command.add_argument("--backend", choices=("deterministic", "binomial"), default="deterministic")
        command.add_argument("--steps", type=int, default=2000)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--out", default="out")
        if name == "simulate":
            command.add_argument("--mode", type=int, choices=(1, 2), default=1)
            command.add_argument("--paths", type=int, default=10000)
    return parser


def parsed(parse, argv):
    """``(0, namespace dict)``, or ``(exit code, the lines of stderr that hold "error:")``."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            return 0, vars(parse(argv))
    except SystemExit as exc:
        return exc.code, [line for line in err.getvalue().splitlines() if "error:" in line]


COMMAND_WORDS = ["solve", "verify-fixtures", "simulate", "check-assumptions", "bogus"]
OPTION_WORDS = ["--problem", "--backend", "--steps", "--seed", "--out", "--mode", "--paths",
                "--prob", "--verbose", "-x"]
VALUE_WORDS = ["p.json", "deterministic", "binomial", "gpu", "1", "2", "3", "-1", "0x1", " 7", "1.5", "-2.5", "", "x",
               "a b", "-a b", "-"]


@st.composite
def argvs(draw) -> list:
    """A command line: maybe a stray word before the command, maybe a command, then options with good or bad
    values, ``=`` forms, options with no value, repeats and stray words."""
    one = st.sampled_from
    items = st.one_of(
        st.tuples(one(OPTION_WORDS), one(VALUE_WORDS)).map(list),
        st.tuples(one(OPTION_WORDS), one(VALUE_WORDS)).map(lambda pair: ["=".join(pair)]),
        st.lists(one(OPTION_WORDS + VALUE_WORDS + COMMAND_WORDS), min_size=1, max_size=1),
    )
    head = draw(st.lists(one(OPTION_WORDS + VALUE_WORDS), max_size=1)) + draw(st.lists(one(COMMAND_WORDS), max_size=1))
    return head + [word for item in draw(st.lists(items, max_size=6)) for word in item]


class TestOptionTable:
    """``cli.parse_args`` reads ``cli.OPTIONS`` and ``cli.COMMANDS`` as argparse read the parser it replaced:
    the same namespace, or exit 2 with the same error line; ``-h`` prints help from the table."""

    REFERENCE = reference_parser()

    @settings(max_examples=1000)
    @given(argv=argvs())
    def test_same_namespace_or_same_error_as_argparse(self, argv):
        assert parsed(cli.parse_args, argv) == parsed(self.REFERENCE.parse_args, argv)

    @pytest.mark.parametrize("argv, namespace", [
        (["solve", "--problem=p", "--steps", "5", "--steps=7", "--out", "a", "--out", "b"],
         {"command": "solve", "problem": "p", "backend": "deterministic", "steps": 7, "seed": 0, "out": "b"}),
        (["verify-fixtures", "--seed", "-1", "--steps", "-3"],
         {"command": "verify-fixtures", "steps": -3, "seed": -1, "out": "out"}),
        (["simulate", "--problem", "p", "--mode=2", "--backend=binomial", "--paths", "0", "--out="],
         {"command": "simulate", "problem": "p", "backend": "binomial", "steps": 2000, "seed": 0, "out": "",
          "mode": 2, "paths": 0}),
    ])  # fmt: skip
    def test_accepted_forms(self, argv, namespace):
        assert vars(cli.parse_args(argv)) == namespace

    def test_abbreviations_are_unrecognized(self):
        argv = ["solve", "--problem", "p", "--st", "5"]
        assert parsed(cli.parse_args, argv) == (2, ["modeswitch: error: unrecognized arguments: --st 5"])

    FIXTURE = ["--problem", "problems/counterexample.json"]

    @pytest.mark.parametrize("argv, error", [
        (["solve", *FIXTURE, "--steps", "x"], "modeswitch solve: error: argument --steps: invalid int value: 'x'"),
        (["solve", *FIXTURE, "--backend", "gpu"],
         "modeswitch solve: error: argument --backend: invalid choice: 'gpu' "
         "(choose from 'deterministic', 'binomial')"),
        (["simulate", *FIXTURE, "--mode", "3"],
         "modeswitch simulate: error: argument --mode: invalid choice: 3 (choose from 1, 2)"),
        (["solve", "--steps", "100"], "modeswitch solve: error: the following arguments are required: --problem"),
        ([], "modeswitch: error: the following arguments are required: command"),
    ])  # fmt: skip
    def test_usage_error_through_the_process_entry(self, tmp_path, argv, error):
        out = tmp_path / "out"
        done = run_python("-m", "modeswitch.cli", *argv, f"--out={out}")  # one word: no command reads it as one
        assert (done.returncode, done.stdout) == (2, "")
        usage, message = done.stderr.splitlines()
        assert usage.startswith("usage: modeswitch ") and message == error
        assert not out.exists()

    @pytest.mark.parametrize("argv, listed", [
        (["-h"], list(cli.COMMANDS)),
        (["--help"], list(cli.COMMANDS)),
        *(([command, "stray", "-h"], list(cli.COMMANDS[command][1])) for command in cli.COMMANDS),
    ])  # fmt: skip
    def test_help_lists_the_table(self, argv, listed):
        done = run_python("-m", "modeswitch.cli", *argv)
        assert (done.returncode, done.stderr) == (0, "")
        rows = [line.split()[0] for line in done.stdout.splitlines()[1:] if line]
        assert done.stdout.startswith("usage: modeswitch ") and rows == listed
