"""Command-line entry point.

Commands: ``solve`` (run the system solver and persist surfaces/summary),
``verify-fixtures`` (audit the closed-form fixtures and the non-uniqueness
check), ``simulate`` (solve, then replay the extracted policy), and
``check-assumptions`` (run the validator and print its report). ``parse_args``
reads them from ``COMMANDS`` and ``OPTIONS``: ``--name value`` or
``--name=value``, the last one wins, no abbreviations; ``-h`` prints help.

Exit codes: 0 success, 1 input or validation error (a field of the wrong JSON
type included, and data whose solve overflows float64), an output that
cannot be written (``error: cannot write <path>: <reason>``) or a lattice too
large for the memory (``error: out of memory on the <kind> lattice of N =
<steps> steps (<nodes> nodes): <reason>``), 2 a node whose projection did
not settle in ``scheme.LOCAL_SWEEP_CAP`` rounds or a usage error, which alone
prints a ``usage:`` line.

Each command imports what it runs: ``scheme`` loads with ``solve``,
``simulate`` and ``verify-fixtures``, ``strategy`` with ``simulate`` and
``verify`` with ``verify-fixtures``, so ``check-assumptions`` loads none of
them, nor numpy. ``solve`` writes Z and K from Y, step chunk by step chunk.

``run`` is the process entry (``python -m modeswitch.cli`` and the installed
``modeswitch`` script) and owns the process: no collection runs from its entry,
numpy's import included, and once both streams are flushed ``os._exit`` ends
it with no interpreter teardown (a command leaves no array in reference cycles).
Code that embeds the package calls ``main``: it leaves the collector alone.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

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


# The CLI's one declaration: each option's conversion (int, str, or its choices, checked after converting to
# their type), default (None: required) and help; each command's help and options.
OPTIONS = {
    "--problem": (str, None, "problem definition file (JSON)"),
    "--backend": (("deterministic", "binomial"), "deterministic", "lattice kind: deterministic or binomial"),
    "--steps": (int, 2000, "number of time steps N"),
    "--seed": (int, 0, "accepted and not read: every command is deterministic"),
    "--out": (str, "out", "output directory"),
    "--mode": ((1, 2), 1, "starting mode: 1 or 2"),
    "--paths": (int, 10000, "accepted and not read: the replay is exact"),
}
_LATTICE = ("--problem", "--backend", "--steps", "--seed", "--out")
COMMANDS = {
    "solve": ("solve the coupled system and write surfaces", _LATTICE),
    "verify-fixtures": ("audit the closed-form fixtures", _LATTICE[2:]),
    "simulate": ("solve, then replay the extracted policy", (*_LATTICE, "--mode", "--paths")),
    "check-assumptions": ("run the problem validator", _LATTICE),
}


def _usage(command=None) -> str:
    if command is None:
        return f"usage: modeswitch {{{','.join(COMMANDS)}}} ..."
    words = [(f"{n} {n[2:].upper()}", OPTIONS[n][1]) for n in COMMANDS[command][1]]
    return " ".join([f"usage: modeswitch {command} [-h]", *(w if d is None else f"[{w}]" for w, d in words)])


def _refuse(message: str, command=None):
    print(_usage(command), f"modeswitch{f' {command}' if command else ''}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _convert(kind, name: str, value: str, command=None):
    try:
        converted = (type(kind[0]) if isinstance(kind, tuple) else kind)(value)
    except ValueError:
        _refuse(f"argument {name}: invalid int value: {value!r}", command)
    if isinstance(kind, tuple) and converted not in kind:
        _refuse(f"argument {name}: invalid choice: {converted!r} (choose from {', '.join(map(repr, kind))})", command)
    return converted


def _is_option(token: str, names) -> bool:
    """Whether argparse reads ``token`` as an option, so as no value and no command: it names one of ``names``,
    alone or before ``=``, or it starts with ``-`` and is neither ``-`` alone, a negative number nor holds a space."""
    dash = token[:1] == "-" and len(token) > 1 and not re.fullmatch(r"-\d+|-\d*\.\d+", token) and " " not in token
    return dash or token.partition("=")[0] in names


def parse_args(argv=None) -> SimpleNamespace:
    """``command`` and each of its options, from ``argv`` (default ``sys.argv[1:]``), read left to right
    as argparse does. ``-h`` prints help and exits 0; a usage error exits 2 with argparse's message."""
    tokens, extras, args, names = list(sys.argv[1:] if argv is None else argv), [], None, ()
    while tokens:
        token = tokens.pop(0)
        name, explicit, value = token.partition("=")
        if token in ("-h", "--help"):
            rows = {n: text for n, (text, _) in COMMANDS.items()} if args is None else {n: OPTIONS[n][2] for n in names}
            print(_usage(args and args.command), "", *(f"  {n:<19} {text}" for n, text in rows.items()), sep="\n")
            raise SystemExit(EXIT_OK)
        if args is None and not _is_option(token, ()):  # the command, checked as argparse checks a choice
            names = COMMANDS[_convert(tuple(COMMANDS), "command", token)][1]
            args = SimpleNamespace(command=token, **{n[2:]: OPTIONS[n][1] for n in names})
        elif name not in names:
            extras.append(token)
        elif not explicit and (not tokens or _is_option(tokens[0], names)):
            _refuse(f"argument {name}: expected one argument", args.command)
        else:
            value = value if explicit else tokens.pop(0)
            setattr(args, name[2:], _convert(OPTIONS[name][0], name, value, args.command))
    if args is None:
        _refuse("the following arguments are required: command")
    missing = [name for name in names if getattr(args, name[2:]) is None]
    if missing:
        _refuse(f"the following arguments are required: {', '.join(missing)}", args.command)
    if extras:
        _refuse(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one command. Input, validation and solver errors (including any
    ``ValueError``) print ``error: ...`` plus the attached validation report,
    if any, and exit 1; a node that did not settle exits 2. Any ``OSError``
    comes from writing the outputs (``load_problem`` reports a problem file
    it cannot read itself) and prints ``error: cannot write <path>: <reason>``,
    exit 1; a failed write that names no file names ``--out``. A
    ``MemoryError`` names the lattice it ran out on, its kind, step count
    and node count, and exits 1. A usage error (``parse_args``) exits 2, ``-h`` 0."""
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code
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
    """End the process with ``main(argv)``'s code: no collection runs, and ``os._exit`` skips the teardown once
    both streams are flushed. If one cannot be (closed, a broken pipe), return the code; the interpreter reports it."""
    gc.disable()
    code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # stdout is None when fd 1 is closed
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
