"""Self-check of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/tests

Every metric named in BENCHMARK.json must come out with its unit, a wrong
reference value must show up as failed command runs, and a directory without
the program must make the harness fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = BENCH / ".work" / "selfcheck"


def run_harness(workload: str, trace: int, *extra: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def scratch():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, group):
    result = result_of(run_harness(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_sweep_counts_per_solve():
    result = result_of(run_harness("fixture_cli", 1))
    assert result["metrics"]["scheme.sweeps"]["value"] == 1


@pytest.mark.parametrize("workload, problem_id", [
    ("switching_lattice", "switching_lattice/binomial/20"),
    ("replay_switching", "switching_lattice/binomial/20"),
    ("fixture_cli", "counterexample/deterministic/100"),
])
def test_wrong_reference_value_counts_as_failure(scratch, workload, problem_id):
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["y0"][problem_id]["plus_1"] += 1e-6
    path = scratch / "reference.json"
    path.write_text(json.dumps(reference))
    result = result_of(run_harness(workload, 0, "--reference", str(path)))
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_fails_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(BENCH, scratch / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_harness("fixture_cli", 0, root=scratch)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
