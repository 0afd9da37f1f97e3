"""Benchmark workloads: the CLI command lines they run and the checks on their outputs.

Each workload is a fixed problem, backend and grid, plus the commands a user
runs on it. ``check-assumptions`` on the same problem, backend and steps is
the set-up command that every workload pays first. Output checks compare
the command's result files against reference values recorded from the seed
commit (``reference.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SETUP = "check-assumptions"
# Root values are an exact fixed point of the minimal-solution iteration, so
# any correct solver reproduces them up to float noise.
Y0_TOL = 1e-9
# Monte Carlo acceptance for the replayed value: within this many standard
# errors of the solved root value, plus one time step. The replay evaluates
# the driver at Y_k along the path where the backward scheme uses
# E_k[Y_{k+1}], an O(dt) bias: on replay_switching (N = 100, 1e5 paths) the
# profit leg reads about 1.7 standard errors above Y0 on average, so a bare
# 3-sigma test fails for roughly one seed in twelve.
REPLAY_SIGMAS = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # problem file, relative to the repository root
    backend: str
    steps: int
    commands: tuple[str, ...]
    paths: int = 10000
    mode: int = 1
    horizon: float = 1.0  # T of the problem file

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def problem_id(self) -> str:
        return f"{Path(self.problem).stem}/{self.backend}/{self.steps}"

    def argv(self, command: str, seed: int, out: Path) -> list[str]:
        """Command line handed to ``python -m modeswitch.cli``."""
        args = [command]
        if command != "verify-fixtures":
            args += ["--problem", self.problem, "--backend", self.backend]
        args += ["--steps", str(self.steps), "--seed", str(seed), "--out", str(out)]
        if command == "simulate":
            args += ["--paths", str(self.paths), "--mode", str(self.mode)]
        return args


FIXTURE = "problems/counterexample.json"
LATTICE = "bench/problems/switching_lattice.json"

SCALES = {
    "full": {
        "fixture_cli": Workload(
            "fixture_cli", FIXTURE, "deterministic", 2000, ("solve", "verify-fixtures", "simulate")
        ),
        "switching_lattice": Workload("switching_lattice", LATTICE, "binomial", 400, ("solve",)),
        "replay_switching": Workload(
            "replay_switching", LATTICE, "binomial", 100, ("simulate",), paths=100000
        ),
    },
    # Small sizes for the harness self-check; verify-fixtures needs N >= 100.
    "tiny": {
        "fixture_cli": Workload(
            "fixture_cli", FIXTURE, "deterministic", 100, ("solve", "verify-fixtures", "simulate"), paths=1000
        ),
        "switching_lattice": Workload("switching_lattice", LATTICE, "binomial", 20, ("solve",)),
        "replay_switching": Workload(
            "replay_switching", LATTICE, "binomial", 20, ("simulate",), paths=1000
        ),
    },
}


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def check_outputs(workload: Workload, command: str, out: Path, reference: dict) -> list[str]:
    """Problems found in one command's output directory; empty when it is correct."""
    try:
        if command == SETUP:
            return []
        if command == "verify-fixtures":
            doc = _read_json(out / "fixtures.json")
            return [] if doc.get("distinct_solutions") is True else ["fixtures: distinct_solutions is not true"]
        y0 = reference["y0"][workload.problem_id]
        if command == "solve":
            doc = _read_json(out / "summary.json")
            errors = [] if doc.get("converged") is True else ["summary: not converged"]
            for key, want in y0.items():
                got = doc["y0"][key]
                if not abs(got - want) <= Y0_TOL:
                    errors.append(f"summary: y0 {key} = {got!r}, reference {want!r}")
            return errors
        if command == "simulate":
            doc = _read_json(out / "strategy.json")
            actions = reference["actions"][workload.name][workload.problem_id]
            errors = []
            for side, want_action in actions.items():
                leg = doc["legs"][side]
                want = y0[f"{side}_{workload.mode}"]
                miss = abs(leg["realized"] - want)
                if not miss <= REPLAY_SIGMAS * leg["std_error"] + workload.dt + Y0_TOL:
                    errors.append(f"strategy {side}: realized {leg['realized']!r} is {miss:.3g} from Y0 {want!r}")
                # value_gap is |realized - solved Y0|, so it pins the solved root too.
                if not abs(leg["value_gap"] - miss) <= Y0_TOL:
                    errors.append(f"strategy {side}: solved Y0 differs from reference {want!r}")
                if leg["action"] != want_action:
                    errors.append(f"strategy {side}: action {leg['action']!r}, reference {want_action!r}")
            return errors
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command}: unreadable output ({type(exc).__name__}: {exc})"]
    raise ValueError(f"no output check for command {command!r}")
