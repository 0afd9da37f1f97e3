"""modeswitch benchmark: run a workload through the real CLI and print its metrics.

    python3 bench/run.py --workload fixture_cli --seed 7 --seconds 60 --trace 0

``--trace 0`` runs every command in a fresh child process, one at a time,
and reports the end-to-end metrics: set-up time (``check-assumptions``),
wall time and peak RSS, read from each child's own rusage. The benchmark
and its children stay on one CPU, and each child's wall time is scaled to
that CPU's reference speed, timed with the fixed kernel of ``calibrate.py``
after every child (see there); the unscaled times are printed and recorded
beside the scaled ones. ``--trace 1``
runs the same commands inside this process, once with spans around every
layer boundary (see ``tracing.py``) and then untraced, and reports the
per-layer metrics and the tracing overhead.

Every command's outputs are checked against ``reference.json``. Earlier
lines of standard output are a readable report; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record, with the machine and the code version, goes to
``bench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, kernel_s, pin_to_one_cpu
from tracing import MOVES, Tracer, instrument, layer_metrics
from workloads import SCALES, SETUP, Workload, check_outputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
# Set-up runs taken before the first repetition and after each one.
SETUP_BURST = 2
# Repetitions of the workload's commands in every end-to-end run, at least.
MIN_REPETITIONS = 3
# A child's speed is the mean kernel time of the children up to this many
# places before and after it: one kernel pass is short and noisy, and the
# CPU's speed moves more slowly than a few children take.
KERNEL_WINDOW = 2
# Every run ends well inside the 180 s a run is allowed.
RUN_LIMIT_S = 165.0


@dataclass
class Sample:
    command: str
    wall_s: float
    rss_mb: float
    index: int = -1  # place among the run's children, and of the kernel pass after it
    errors: list = field(default_factory=list)


class Runner:
    """Runs one workload's commands, checks their outputs and counts failures."""

    def __init__(self, workload: Workload, seed: int, reference: dict, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.kernel: list[float] = []  # reference kernel times, one after each child
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def _outdir(self, command: str) -> Path:
        out = self.work / command
        shutil.rmtree(out, ignore_errors=True)
        return out

    def _record(self, sample: Sample) -> Sample:
        self.attempted += 1
        if sample.errors:
            self.failures.append(f"{sample.command}: " + "; ".join(sample.errors))
        return sample

    def child(self, command: str) -> Sample:
        """One command in a fresh interpreter; wall time and its own peak RSS."""
        out = self._outdir(command)
        argv = [sys.executable, "-m", "modeswitch.cli", *self.workload.argv(command, self.seed, out)]
        log = self.work / f"{command}.log"
        timeout = self.deadline - perf_counter()
        with log.open("wb") as fh:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            code, usage = _wait4(proc, timeout)
            wall = perf_counter() - t0
        self.kernel.append(kernel_s())
        index = len(self.kernel) - 1
        if code is None:
            return self._record(Sample(command, wall, 0.0, index, [f"killed after {timeout:.0f} s"]))
        errors = [] if code == 0 else [f"exit code {code}: {_tail(log)}"]
        errors = errors or check_outputs(self.workload, command, out, self.reference)
        return self._record(Sample(command, wall, usage.ru_maxrss / 1024.0, index, errors))

    def in_process(self, command: str, cli) -> Sample:
        """One command through ``cli.main`` in this process, output captured."""
        out = self._outdir(command)
        argv = self.workload.argv(command, self.seed, out)
        captured = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed command, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        errors = [] if code == 0 else [f"exit {code}: {captured.getvalue()[-300:]}"]
        errors = errors or check_outputs(self.workload, command, out, self.reference)
        return self._record(Sample(command, wall, 0.0, errors=errors))

    def scaled(self, sample: Sample) -> float:
        """``sample.wall_s`` at the CPU's reference speed."""
        near = self.kernel[max(0, sample.index - KERNEL_WINDOW): sample.index + KERNEL_WINDOW + 1]
        return sample.wall_s * REFERENCE_S / statistics.fmean(near)

    def out_of_time(self, next_cost: float) -> bool:
        return perf_counter() + next_cost > self.deadline


def _wait4(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its own rusage: (exit code, usage), or (None, None)
    if it outlived ``timeout`` and had to be killed."""

    def expire(_signum, _frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException as exc:  # timed out, interrupted or terminated: take the child down
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        if isinstance(exc, TimeoutError):
            return None, None
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _tail(path: Path, limit: int = 300) -> str:
    return path.read_text(errors="replace")[-limit:].strip()


def _spread(values) -> str:
    return f"n={len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def _repeat(run_once, seconds: float, runner: Runner, at_least: int = 1) -> list:
    """Call ``run_once`` ``at_least`` times, then again while another call still
    fits in ``seconds``, judged by the last call's duration.

    The fixed minimum keeps a slow first call from also being the only one.
    """
    results, started = [], perf_counter()
    while True:
        t0 = perf_counter()
        results.append(run_once())
        last = perf_counter() - t0
        if runner.out_of_time(last):
            return results
        if len(results) >= at_least and perf_counter() - started + last > seconds:
            return results


def run_end_to_end(runner: Runner, seconds: float):
    """The workload's commands, repeated for ``seconds``, with set-up runs
    spread over the whole run.

    The machine's speed drifts over a few seconds, so set-up samples taken
    between repetitions see the same mix of fast and slow spells as the
    commands do.
    """
    workload = runner.workload
    runner.child(SETUP)  # warm-up: bytecode caches and the file cache, not timed
    setup = [runner.child(SETUP) for _ in range(SETUP_BURST)]

    def repetition():
        rep = [runner.child(command) for command in workload.commands]
        setup.extend(runner.child(SETUP) for _ in range(SETUP_BURST))
        return rep

    reps = _repeat(repetition, seconds, runner, at_least=MIN_REPETITIONS)
    runs = {c: [s for rep in reps for s in rep if s.command == c] for c in workload.commands}
    times = {c: [s.wall_s for s in r] for c, r in runs.items()}
    scaled = {c: [runner.scaled(s) for s in r] for c, r in runs.items()}
    peaks = {c: [s.rss_mb for s in r] for c, r in runs.items()}
    setup_raw, setup_scaled = [s.wall_s for s in setup], [runner.scaled(s) for s in setup]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "wall_s": (sum(statistics.median(t) for t in scaled.values()), "s"),
        "peak_rss_mb": (max(statistics.median(p) for p in peaks.values()), "MB"),
    }
    raw_wall = sum(statistics.median(t) for t in times.values())
    report = [
        f"setup_s       {metrics['setup_s'][0]:.4f} s    median of check-assumptions, scaled ({_spread(setup_scaled)});"
        f" unscaled {statistics.median(setup_raw):.4f} s",
        f"wall_s        {metrics['wall_s'][0]:.4f} s    sum of the commands' median scaled wall times;"
        f" unscaled {raw_wall:.4f} s",
        f"peak_rss_mb   {metrics['peak_rss_mb'][0]:.1f} MB   largest median child ru_maxrss",
    ]
    for command, values in scaled.items():
        name = {"verify-fixtures": "verify_s"}.get(command, f"{command}_s")
        report.append(f"{name:<13} {statistics.median(values):.4f} s    scaled child wall time ({_spread(values)});"
                      f" unscaled {statistics.median(times[command]):.4f} s,"
                      f" peak RSS {statistics.median(peaks[command]):.1f} MB")
    report.append(f"kernel        {statistics.median(runner.kernel):.4f} s    reference kernel, {REFERENCE_S} s at"
                  f" reference speed ({_spread(runner.kernel)})")
    samples = {"setup_s": setup_raw, "setup_scaled_s": setup_scaled, "wall_s": times, "scaled_s": scaled,
               "rss_mb": peaks, "kernel_s": runner.kernel,
               "unscaled": {"setup_s": statistics.median(setup_raw), "wall_s": raw_wall}}
    return metrics, report, samples


def run_traced(runner: Runner, seconds: float, stem: str):
    """One traced pass in this process, then untraced passes for the overhead."""
    sys.path.insert(0, str(ROOT / "src"))
    from modeswitch import cli

    commands = (SETUP, *runner.workload.commands)
    started = perf_counter()
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        traced = 0.0
        for run_id, command in enumerate(commands):
            tracer.run_id = run_id
            traced += runner.in_process(command, cli).wall_s
    finally:
        restore()
    remaining = seconds - (perf_counter() - started)
    untraced = _repeat(lambda: sum(runner.in_process(c, cli).wall_s for c in commands), remaining, runner)
    tracer.write(WORK / f"spans-{stem}.csv")

    metrics = layer_metrics(tracer)
    base = statistics.median(untraced)
    metrics["trace.overhead_s"] = (traced - base, "s")
    metrics["trace.overhead_frac"] = ((traced - base) / base, "fraction")
    report = [
        f"{name:<24} {value:<12.6g} {unit:<8} -> {MOVES.get(name, 'tracing cost, all workloads')}"
        for name, (value, unit) in metrics.items()
    ]
    report.append(f"traced pass {traced:.4f} s; untraced passes ({_spread(untraced)})")
    if tracer.missing:
        report.append("not traced, absent from this version: " + ", ".join(tracer.missing))
    samples = {"traced_s": traced, "untraced_s": untraced, "spans": tracer.stats(), "missing": tracer.missing}
    return metrics, report, samples


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES["full"]))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full", help="tiny: harness self-check sizes")
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    pin_to_one_cpu()
    deadline = perf_counter() + RUN_LIMIT_S
    workload = SCALES[args.scale][args.workload]
    missing = [p for p in ("src/modeswitch/cli.py", workload.problem) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a modeswitch checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # workload problem paths are relative to the repository root
    reference = json.loads(args.reference.read_text())

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, args.seed, reference, work, deadline)
    try:
        if args.trace:
            metrics, report, samples = run_traced(runner, args.seconds, stem)
        else:
            metrics, report, samples = run_end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload.name, "scale": args.scale, "trace": args.trace, "environment": env,
              "fail_frac": failed / runner.attempted, "failures": runner.failures, **result, "samples": samples}
    (WORK / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {workload.name} ({args.scale}): {workload.problem_id}, commands {', '.join(workload.commands)}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in report:
        print(line)
    print(f"fail_frac     {failed / runner.attempted:.4f}      {failed} of {runner.attempted} command runs failed")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
