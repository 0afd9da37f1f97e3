"""Command-line entry point.

Commands: ``solve`` (run the system solver and persist surfaces/summary),
``verify-fixtures`` (audit the closed-form fixtures and the non-uniqueness
check), ``simulate`` (solve, then replay the extracted policy), and
``check-assumptions`` (run the validator and print its report).

Exit codes: 0 success, 1 input or validation error (a field of the wrong JSON
type included, and data whose solve overflows float64), 2 a node whose
projection did not settle in LOCAL_SWEEP_CAP rounds.

Each command imports what it runs: ``strategy`` is loaded by ``simulate``
only and ``verify`` by ``verify-fixtures`` only, so ``solve`` and
``check-assumptions`` load neither.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .grid import FieldSurface, TimeGrid, make_backend
from .io import load_problem, write_json, write_surface_csv, write_trace_csv
from .model import COMPONENTS, ProblemError, row, validate_assumptions
from .scheme import LocalSweepError, SchemeError, solve_system

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2


def _prepare(args):
    problem = load_problem(args.problem)
    return problem, make_backend(args.backend, TimeGrid(args.steps, problem.horizon))


def _ensure_outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ProblemError(f"cannot create output directory {out}: {exc}") from None
    return out


def _summary_payload(solution, args) -> dict:
    return {
        "backend": args.backend,
        "steps": args.steps,
        "max_local_sweeps": int(solution.trace.local_sweeps.max()),
        "converged": solution.trace.converged,
        "y0": {f"{side}_{mode}": solution.y0(side, mode) for side, mode in COMPONENTS},
    }


def cmd_solve(args) -> int:
    problem, backend = _prepare(args)
    solution, trace = solve_system(problem, backend)
    out = _ensure_outdir(args)
    for side, mode in COMPONENTS:
        for name, block in (("Y", solution.y), ("Z", solution.z), ("K", solution.dk)):
            write_surface_csv(out / f"{name}_{side}_{mode}.csv", FieldSurface(backend, block[row(side, mode)]))
    write_trace_csv(out / "trace.csv", trace)
    write_json(out / "summary.json", _summary_payload(solution, args))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import check_nonuniqueness

    out = _ensure_outdir(args)
    report = check_nonuniqueness(T=1.0, N=args.steps)
    write_json(out / "fixtures.json", report.as_dict())
    ok = report.report_family_1.passed and report.report_family_2.passed and report.distinct
    for name, rep in (("family 1", report.report_family_1), ("family 2", report.report_family_2)):
        status = "pass" if rep.passed else "FAIL"
        print(f"[{status}] {name}: max step residual {rep.max_over('max_step_residual'):.3g}")
        for failure in rep.failures():
            print(f"    {failure}")
    print(f"sup distance between families: {report.sup_distance:.6g}")
    return EXIT_OK if ok else EXIT_INPUT


def cmd_simulate(args) -> int:
    from .strategy import simulate_policy

    if args.paths < 1:  # refused before the solve it would otherwise wait for
        raise ValueError("n_paths must be >= 1")
    problem, backend = _prepare(args)
    solution, _ = solve_system(problem, backend)
    out = _ensure_outdir(args)
    report = simulate_policy(solution, n_paths=args.paths, seed=args.seed, start_mode=args.mode)
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
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modeswitch",
        description="Two-modes switch/terminate valuation on the full balance sheet",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the coupled system and write surfaces")
    _add_common(p_solve, needs_problem=True)

    p_verify = sub.add_parser("verify-fixtures", help="audit the closed-form fixtures")
    _add_common(p_verify, needs_problem=False)

    p_sim = sub.add_parser("simulate", help="solve, then replay the extracted policy")
    _add_common(p_sim, needs_problem=True)
    p_sim.add_argument("--mode", type=int, choices=(1, 2), default=1, help="starting mode")
    p_sim.add_argument(
        "--paths", type=int, default=10000, help="Monte Carlo path count (>= 1; the deterministic backend replays one)"
    )

    p_check = sub.add_parser("check-assumptions", help="run the problem validator")
    _add_common(p_check, needs_problem=True)
    return parser


def main(argv=None) -> int:
    """Run one command. Input, validation and solver errors (including any
    ``ValueError``) print ``error: ...`` plus the attached validation report,
    if any, and exit 1; a node that did not settle exits 2."""
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


if __name__ == "__main__":
    sys.exit(main())
