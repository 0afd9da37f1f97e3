"""Command-line entry point.

Commands: ``solve`` (run the system solver and persist surfaces/summary),
``verify-fixtures`` (audit the closed-form fixtures and the non-uniqueness
check), ``simulate`` (solve, then replay the extracted policy), and
``check-assumptions`` (run the validator and print its report).

Exit codes: 0 success, 1 input or validation error (a field of the wrong JSON
type included, and data whose solve overflows float64), an output that
cannot be written (``error: cannot write <path>: <reason>``) or a lattice too
large for the memory (``error: out of memory on the <kind> lattice of N =
<steps> steps (<nodes> nodes): <reason>``), 2 a node whose projection did
not settle in ``scheme.LOCAL_SWEEP_CAP`` rounds.

Each command imports what it runs: ``scheme`` loads with ``solve``,
``simulate`` and ``verify-fixtures``, ``strategy`` with ``simulate`` and
``verify`` with ``verify-fixtures``, so ``check-assumptions`` loads none of
them, nor numpy. ``solve`` writes Z and K from Y, step chunk by step chunk.

``run`` is the process entry (``python -m modeswitch.cli`` and the installed
``modeswitch`` script): it returns ``main``'s exit code after ``gc.freeze()``.
At exit the interpreter runs full collections over every object the command
created, numpy and its results included, and that buys nothing once the
process ends; frozen objects are skipped. ``main`` is the in-process API: it
leaves the collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .grid import Lattice, node_count
from .io import load_problem, write_json, write_surfaces, write_trace_csv
from .model import COMPONENTS, LocalSweepError, ProblemError, SchemeError, row, validate_assumptions

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2


def _prepare(args):
    problem = load_problem(args.problem)
    return problem, Lattice(args.backend, args.steps, problem.horizon)


def _ensure_outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _summary_payload(solution, trace, args) -> dict:
    return {
        "backend": args.backend,
        "steps": args.steps,
        "max_local_sweeps": int(trace.local_sweeps.max()),
        "converged": trace.converged,
        "y0": {f"{side}_{mode}": solution.y0(side, mode) for side, mode in COMPONENTS},
    }


def cmd_solve(args) -> int:
    from .scheme import solve_system

    problem, backend = _prepare(args)
    solution, trace = solve_system(problem, backend)
    out = _ensure_outdir(args)
    (out / "summary.json").unlink(missing_ok=True)  # written last, so it sits only beside a whole run's files

    def rows(start, stop, nodes, steps, states):  # Y, Z and K of each component in turn, Z and K derived from Y
        blocks = (solution.y[..., nodes], *solution.increments(start, stop, steps, states)[2:])
        return [block[row(*key)] for key in COMPONENTS for block in blocks]

    write_surfaces([out / f"{name}_{side}_{mode}.csv" for side, mode in COMPONENTS for name in "YZK"], backend, rows)
    write_trace_csv(out / "trace.csv", trace)
    write_json(out / "summary.json", _summary_payload(solution, trace, args))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import check_nonuniqueness

    out = _ensure_outdir(args)
    report = check_nonuniqueness(T=1.0, N=args.steps)
    write_json(out / "fixtures.json", report.as_dict())
    for name, rep in (("family 1", report.report_family_1), ("family 2", report.report_family_2)):
        status = "pass" if rep.passed else "FAIL"
        print(f"[{status}] {name}: max step residual {rep.max_over('max_step_residual'):.3g}")
        for failure in rep.failures():
            print(f"    {failure}")
    print(f"sup distance between families: {report.sup_distance:.6g}")
    return EXIT_OK if report.distinct else EXIT_INPUT


def cmd_simulate(args) -> int:
    from .scheme import solve_system
    from .strategy import simulate_policy

    problem, backend = _prepare(args)
    solution, _ = solve_system(problem, backend)
    out = _ensure_outdir(args)
    report = simulate_policy(solution, args.mode)
    write_json(out / "strategy.json", report.as_dict())
    for side, leg in report.legs.items():
        print(
            f"{side} leg: action {leg.action} at mean step {leg.stop_step:g}, "
            f"realized {leg.realized:.6g} (gap {leg.value_gap:.3g})"
        )
    return EXIT_OK


def cmd_check(args) -> int:
    problem, backend = _prepare(args)
    report = validate_assumptions(problem, backend)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.all_passed else EXIT_INPUT


def _add_common(parser, needs_problem: bool):
    if needs_problem:
        parser.add_argument("--problem", required=True, help="problem definition file (JSON)")
        parser.add_argument("--backend", choices=("deterministic", "binomial"), default="deterministic")
    parser.add_argument("--steps", type=int, default=2000, help="number of time steps N")
    parser.add_argument("--seed", type=int, default=0, help="accepted and not read: every command is deterministic")
    parser.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    description = "Two-modes switch/terminate valuation on the full balance sheet"
    parser = argparse.ArgumentParser(prog="modeswitch", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve", "solve the coupled system and write surfaces"),
        ("verify-fixtures", "audit the closed-form fixtures"),
        ("simulate", "solve, then replay the extracted policy"),
        ("check-assumptions", "run the problem validator"),
    ):
        command = sub.add_parser(name, help=text)
        _add_common(command, needs_problem=name != "verify-fixtures")
        if name == "simulate":
            command.add_argument("--mode", type=int, choices=(1, 2), default=1, help="starting mode")
            command.add_argument("--paths", type=int, default=10000, help="accepted and not read: the replay is exact")
    return parser


def main(argv=None) -> int:
    """Run one command. Input, validation and solver errors (including any
    ``ValueError``) print ``error: ...`` plus the attached validation report,
    if any, and exit 1; a node that did not settle exits 2. Any ``OSError``
    comes from writing the outputs (``load_problem`` reports a problem file
    it cannot read itself) and prints ``error: cannot write <path>: <reason>``,
    exit 1; a failed write that names no file names ``--out``. A
    ``MemoryError`` names the lattice it ran out on, its kind, step count
    and node count, and exits 1."""
    args = build_parser().parse_args(argv)
    dispatch = {
        "solve": cmd_solve,
        "verify-fixtures": cmd_verify,
        "simulate": cmd_simulate,
        "check-assumptions": cmd_check,
    }
    try:
        if args.steps < 2:
            raise ProblemError("need at least 2 time steps")
        return dispatch[args.command](args)
    except (SchemeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        for line in report.lines() if report is not None else ():
            print(line, file=sys.stderr)
        return EXIT_NO_CONVERGENCE if isinstance(exc, LocalSweepError) else EXIT_INPUT
    except OSError as exc:
        print(f"error: cannot write {exc.filename or args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        kind = getattr(args, "backend", "deterministic")  # verify-fixtures runs on the width-1 lattice
        where = f"the {kind} lattice of N = {args.steps} steps ({node_count(kind, args.steps)} nodes)"
        print(f"error: out of memory on {where}: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run(argv=None) -> int:
    """``main(argv)``'s exit code, for a process that exits next: everything the command created is frozen,
    so the collections at interpreter shutdown skip it."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
