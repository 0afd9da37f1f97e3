"""Traced in-process run: spans around the calls into each modeswitch layer.

The wrappers are installed from the benchmark's own files, on the name each
caller looks up at call time. The package binds most names with
``from .x import y``, so ``solve_rbsde_lower`` is wrapped in ``scheme`` and
``solve_system`` in ``cli``. Methods are wrapped on their class. Nothing
under ``src/`` changes, and :func:`instrument` returns a function that puts
every original back.

Each span is (name, start, end, parent, run id), kept in memory in flat
arrays and written out when the run ends. The hot callables
(``Driver.__call__``, ``CoefficientFunction.__call__`` and
``evaluate_obstacles``) are only counted, so the traced run stays close to
the untraced one.
"""

from __future__ import annotations

import csv
import os
import resource
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

HOOK = "bench.hook"


def maxrss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans held in flat arrays, plus plain counters and totals."""

    def __init__(self):
        self.codes: dict[str, int] = {}
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.stack = [-1]
        self.run_id = 0
        self.counts = Counter()
        self.totals = Counter()
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        sid = len(self.code)
        self.code.append(self.codes.setdefault(name, len(self.codes)))
        self.parent.append(self.stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span. ``after(result, *args, **kwargs)`` runs in a
        child span of its own, so its cost is no layer's self time."""

        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                hook = self.open(HOOK)
                try:
                    after(result, *args, **kwargs)
                finally:
                    self.close(hook)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def stats(self) -> dict:
        """Per span name: call count, total, self and median duration."""
        code = np.frombuffer(self.code, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        children = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)[1:]
        own = dur - children
        out = {}
        for name, c in self.codes.items():
            sel = code == c
            out[name] = {
                "count": int(np.count_nonzero(sel)),
                "total": float(dur[sel].sum()),
                "self": float(own[sel].sum()),
                "median": float(np.median(dur[sel])),
            }
        return out

    def write(self, path: Path):
        names = {c: name for name, c in self.codes.items()}
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "run"])
            for sid in range(len(self.code)):
                writer.writerow(
                    [sid, names[self.code[sid]], f"{self.start[sid]:.9f}", f"{self.end[sid]:.9f}",
                     self.parent[sid], self.run[sid]]
                )


def instrument(tracer: Tracer):
    """Wrap the layer boundaries of an imported modeswitch; returns the undo function."""
    from modeswitch import cli, grid, model, scheme, strategy, verify

    totals = tracer.totals
    undo = []

    def patch(module, path, make):
        """Replace ``module.path`` (``name`` or ``Class.name``) by ``make(original)``."""
        owner, _, attr = path.rpartition(".")
        owner = getattr(module, owner, None) if owner else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:  # boundary absent from this version: its metrics read 0
            tracer.missing.append(f"{module.__name__}.{path}")
            return
        setattr(owner, attr, make(original))
        undo.append((owner, attr, original))

    def count_bytes(_result, path, *_args, **_kwargs):
        totals["io.bytes_written"] += os.path.getsize(path)

    def nodes(surface):
        return np.concatenate([surface.at(k) for k in range(surface.n_steps + 1)])

    def count_changed(result, prev, *_args, **_kwargs):
        for key in result.sol:
            new, old = nodes(result.sol[key].y), nodes(prev.sol[key].y)
            totals["scheme.changed_nodes"] += int(np.count_nonzero(new != old))
            totals["scheme.recomputed_nodes"] += new.size

    def replay(fn):
        def simulate_policy(solution, *args, **kwargs):
            before = maxrss_mb()
            try:
                return fn(solution, *args, **kwargs)
            finally:
                n_paths = kwargs["n_paths"] if "n_paths" in kwargs else args[0]
                totals["strategy.replay_rss_mb"] += maxrss_mb() - before
                totals["strategy.path_steps"] += n_paths * (solution.backend.grid.n_steps + 1)

        return tracer.span("strategy.simulate_policy", simulate_policy)

    def span(name, after=None):
        return lambda fn: tracer.span(name, fn, after)

    def count(name):
        return lambda fn: tracer.counter(name, fn)

    for attr in ("main", "cmd_solve", "cmd_verify", "cmd_simulate", "cmd_check"):
        patch(cli, attr, span(f"cli.{attr}"))
    patch(cli, "load_problem", span("io.load_problem"))
    for attr in ("write_surface_csv", "write_trace_csv", "write_json"):
        patch(cli, attr, span(f"io.{attr}", count_bytes))
    patch(cli, "validate_assumptions", span("model.validate_assumptions"))
    patch(scheme, "validate_assumptions", span("model.validate_assumptions"))
    patch(cli, "solve_system", span("scheme.solve_system"))
    patch(scheme, "initialize_scheme", span("scheme.initialize_scheme"))
    patch(scheme, "first_iterate", span("scheme.first_iterate"))
    patch(scheme, "iterate_once", span("scheme.iterate_once", count_changed))
    patch(scheme, "system_obstacles", span("scheme.system_obstacles"))
    patch(verify, "system_obstacles", span("scheme.system_obstacles"))
    for attr in ("solve_bsde", "solve_rbsde_lower", "solve_rbsde_upper"):
        patch(scheme, attr, span(f"rbsde.{attr}"))
    for cls in ("DeterministicBackend", "BinomialBackend"):
        for attr in ("condexp", "martingale_projection", "sample_paths"):
            patch(grid, f"{cls}.{attr}", span(f"grid.{attr}"))
    patch(grid, "FieldSurface.__init__", span("grid.FieldSurface"))
    patch(cli, "simulate_policy", replay)
    patch(strategy, "contact_masks", span("strategy.contact_masks"))
    patch(cli, "check_nonuniqueness", span("verify.check_nonuniqueness"))
    patch(verify, "audit_solution", span("verify.audit_solution"))
    patch(verify, "ClosedFormFamily.sample", span("verify.sample"))
    patch(model, "Driver.__call__", count("model.driver_calls"))
    patch(model, "CoefficientFunction.__call__", count("model.coef_calls"))
    patch(model, "evaluate_obstacles", count("model.obstacle_calls"))
    patch(scheme, "evaluate_obstacles", count("model.obstacle_calls"))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# The end-to-end figure each per-layer metric should move, and where. solve_s,
# verify_s and simulate_s are the per-command child wall times that the
# end-to-end report prints and that add up to wall_s.
MOVES = {
    "model.validate_s": "setup_s, all workloads",
    "model.driver_calls": "solve_s and verify_s, fixture_cli",
    "model.coef_calls": "solve_s and verify_s, fixture_cli",
    "model.obstacle_calls": "solve_s, fixture_cli",
    "grid.condexp_calls": "solve_s, switching_lattice",
    "grid.condexp_s": "solve_s, switching_lattice",
    "grid.surfaces_built": "solve_s, fixture_cli and switching_lattice",
    "grid.surface_s": "solve_s, fixture_cli and switching_lattice",
    "grid.sample_paths_s": "simulate_s, replay_switching",
    "rbsde.reflected_solves": "solve_s, switching_lattice",
    "rbsde.reflected_s": "solve_s, switching_lattice",
    "rbsde.plain_solves": "solve_s, fixture_cli",
    "rbsde.plain_s": "solve_s, fixture_cli",
    "scheme.sweeps": "solve_s, switching_lattice",
    "scheme.sweep_s": "solve_s, switching_lattice",
    "scheme.changed_frac": "solve_s, switching_lattice",
    "scheme.warmstart_s": "solve_s, fixture_cli",
    "scheme.obstacles_s": "solve_s, simulate_s and verify_s, fixture_cli",
    "scheme.solve_self_s": "solve_s, switching_lattice",
    "strategy.replay_s": "simulate_s, replay_switching and fixture_cli",
    "strategy.replay_self_s": "simulate_s, replay_switching and fixture_cli",
    "strategy.masks_s": "simulate_s, replay_switching and fixture_cli",
    "strategy.path_steps": "peak_rss_mb, replay_switching and fixture_cli",
    "strategy.replay_rss_mb": "peak_rss_mb, replay_switching and fixture_cli",
    "verify.audit_s": "verify_s, fixture_cli",
    "verify.sample_s": "verify_s, fixture_cli",
    "verify.nonuniq_self_s": "verify_s, fixture_cli",
    "io.load_s": "setup_s, all workloads",
    "io.write_s": "solve_s, switching_lattice",
    "io.bytes_written": "solve_s, switching_lattice",
    "cli.self_s": "wall_s, all workloads",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass; a layer the workload never calls reads 0."""
    st = tracer.stats()
    zero = {"count": 0, "total": 0.0, "self": 0.0, "median": 0.0}

    def get(name, field):
        return st.get(name, zero)[field]

    def total(*names):
        return sum(get(name, "total") for name in names)

    def count(*names):
        return sum(get(name, "count") for name in names)

    totals = tracer.totals
    solves = count("scheme.solve_system")
    recomputed = totals["scheme.recomputed_nodes"]
    cli_self = sum(v["self"] for name, v in st.items() if name.startswith("cli."))
    return {
        "model.validate_s": (total("model.validate_assumptions"), "s"),
        "model.driver_calls": (tracer.counts["model.driver_calls"], "count"),
        "model.coef_calls": (tracer.counts["model.coef_calls"], "count"),
        "model.obstacle_calls": (tracer.counts["model.obstacle_calls"], "count"),
        "grid.condexp_calls": (count("grid.condexp", "grid.martingale_projection"), "count"),
        "grid.condexp_s": (total("grid.condexp", "grid.martingale_projection"), "s"),
        "grid.surfaces_built": (count("grid.FieldSurface"), "count"),
        "grid.surface_s": (total("grid.FieldSurface"), "s"),
        "grid.sample_paths_s": (total("grid.sample_paths"), "s"),
        "rbsde.reflected_solves": (count("rbsde.solve_rbsde_lower", "rbsde.solve_rbsde_upper"), "count"),
        "rbsde.reflected_s": (total("rbsde.solve_rbsde_lower", "rbsde.solve_rbsde_upper"), "s"),
        "rbsde.plain_solves": (count("rbsde.solve_bsde"), "count"),
        "rbsde.plain_s": (total("rbsde.solve_bsde"), "s"),
        "scheme.sweeps": (count("scheme.iterate_once") / solves if solves else 0.0, "count"),
        "scheme.sweep_s": (get("scheme.iterate_once", "median"), "s"),
        "scheme.changed_frac": (totals["scheme.changed_nodes"] / recomputed if recomputed else 0.0, "fraction"),
        "scheme.warmstart_s": (total("scheme.initialize_scheme", "scheme.first_iterate"), "s"),
        "scheme.obstacles_s": (total("scheme.system_obstacles"), "s"),
        "scheme.solve_self_s": (get("scheme.solve_system", "self"), "s"),
        "strategy.replay_s": (total("strategy.simulate_policy"), "s"),
        "strategy.replay_self_s": (get("strategy.simulate_policy", "self"), "s"),
        "strategy.masks_s": (total("strategy.contact_masks"), "s"),
        "strategy.path_steps": (totals["strategy.path_steps"], "count"),
        "strategy.replay_rss_mb": (totals["strategy.replay_rss_mb"], "MB"),
        "verify.audit_s": (total("verify.audit_solution"), "s"),
        "verify.sample_s": (total("verify.sample"), "s"),
        "verify.nonuniq_self_s": (get("verify.check_nonuniqueness", "self"), "s"),
        "io.load_s": (total("io.load_problem"), "s"),
        "io.write_s": (total("io.write_surface_csv", "io.write_trace_csv", "io.write_json"), "s"),
        "io.bytes_written": (totals["io.bytes_written"], "bytes"),
        "cli.self_s": (cli_self, "s"),
    }

