"""Problem files and result persistence.

The problem file is a declarative JSON document (schema in
docs/problem_schema.md): a horizon, four drivers, six cost coefficients, and
four terminal values. Surfaces are persisted as step/node/value CSV with
full-precision floats so that re-reading them reproduces audits exactly;
structured results (summary, strategy, fixture reports) are JSON with sorted
keys so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache
from pathlib import Path

import numpy as np

from .grid import FieldSurface, Lattice
from .model import (
    COMPONENTS,
    MINUS,
    MODES,
    PLUS,
    CoefficientFunction,
    Driver,
    ProblemError,
    SwitchingProblem,
    Terminal,
)

_SIDES = {PLUS: PLUS, MINUS: MINUS, "+": PLUS, "-": MINUS}


def _number(value, where: str) -> float:
    """A JSON number; a boolean, a numeric string or an integer beyond the
    float range is refused, not converted."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ProblemError(f"{where} must be a number")


def _coefficient(spec, where: str) -> CoefficientFunction:
    if not isinstance(spec, dict):
        return CoefficientFunction.constant(_number(spec, where))
    if "kind" not in spec or not isinstance(spec.get("params"), list):
        raise ProblemError(f"{where}: expected an object with 'kind' and a 'params' list")
    if not isinstance(has_ito := spec.get("ito", True), bool):
        raise ProblemError(f"{where}.ito must be true or false")
    params = tuple(_number(p, f"{where}.params") for p in spec["params"])
    try:
        return CoefficientFunction(str(spec["kind"]), params, has_ito)
    except ProblemError as exc:
        raise ProblemError(f"{where}: {exc}") from None


def _terminal(spec, where: str) -> Terminal:
    if not isinstance(spec, dict):
        return Terminal(_number(spec, where))
    if "intercept" not in spec:
        raise ProblemError(f"{where}: missing field 'intercept'")
    return Terminal(_number(spec["intercept"], f"{where}.intercept"), _number(spec.get("slope", 0.0), f"{where}.slope"))


def problem_from_dict(doc: dict) -> SwitchingProblem:
    if not isinstance(doc, dict):
        raise ProblemError("problem document must be a JSON object")
    if "horizon" not in doc:
        raise ProblemError("missing field 'horizon'")
    horizon = _number(doc["horizon"], "'horizon'")

    raw_drivers = doc.get("drivers")
    if not isinstance(raw_drivers, list) or len(raw_drivers) != 4:
        raise ProblemError("'drivers' must be a list of four entries")
    drivers = {}
    for i, entry in enumerate(raw_drivers):
        where = f"drivers[{i}]"
        if not isinstance(entry, dict):
            raise ProblemError(f"{where}: expected an object")
        for name in ("mode", "side"):
            if name not in entry:
                raise ProblemError(f"{where}: missing field {name!r}")
        mode, side = entry["mode"], entry["side"]
        if not isinstance(side, str) or side not in _SIDES:
            raise ProblemError(f"{where}.side must be one of {', '.join(map(repr, _SIDES))}")
        side = _SIDES[side]
        if isinstance(mode, bool) or not isinstance(mode, int) or mode not in MODES:
            raise ProblemError(f"{where}.mode must be the integer 1 or 2")
        drv = Driver(
            mode,
            side,
            _coefficient(entry.get("c0", 0.0), f"{where}.c0"),
            c1=_number(entry.get("c1", 0.0), f"{where}.c1"),
            c2=_number(entry.get("c2", 0.0), f"{where}.c2"),
            state_feature=str(entry.get("state_feature", "one")),
        )
        if (side, mode) in drivers:
            raise ProblemError(f"{where}: duplicate driver for ({side}, {mode})")
        drivers[(side, mode)] = drv
    for key in COMPONENTS:
        if key not in drivers:
            raise ProblemError(f"'drivers' missing entry for ({key[0]}, {key[1]})")

    raw_costs = doc.get("costs")
    if not isinstance(raw_costs, dict):
        raise ProblemError("'costs' must be an object with keys ell_1..b_2")
    cost = {}
    for name in ("ell_1", "ell_2", "a_1", "a_2", "b_1", "b_2"):
        if name not in raw_costs:
            raise ProblemError(f"'costs' missing entry {name!r}")
        cost[name] = _coefficient(raw_costs[name], f"costs.{name}")

    raw_terms = doc.get("terminals")
    if not isinstance(raw_terms, dict):
        raise ProblemError("'terminals' must be an object with keys plus_1..minus_2")
    terminals = {}
    for side, mode in COMPONENTS:
        name = f"{side}_{mode}"
        if name not in raw_terms:
            raise ProblemError(f"'terminals' missing entry {name!r}")
        terminals[(side, mode)] = _terminal(raw_terms[name], f"terminals.{name}")

    try:
        return SwitchingProblem(
            horizon=horizon,
            drivers=drivers,
            ell=(cost["ell_1"], cost["ell_2"]),
            a=(cost["a_1"], cost["a_2"]),
            b=(cost["b_1"], cost["b_2"]),
            terminals=terminals,
        )
    except ProblemError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProblemError(str(exc)) from None


def load_problem(path) -> SwitchingProblem:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemError(f"cannot read problem file {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return problem_from_dict(doc)


@lru_cache(maxsize=1)
def _row_prefixes(backend: Lattice) -> tuple:
    """The ``step,node,`` start of every row of a surface file on ``backend``, in flat node order."""
    return tuple(f"{k},{j}," for k, j in zip(backend.step_of_node.tolist(), backend.node_index.tolist()))


def write_surface_csv(path, surface: FieldSurface):
    """One ``step,node,value`` row per node, as one string: CRLF line ends and
    ``repr`` values, the bytes ``csv.writer`` writes for these rows."""
    rows = [p + repr(v) + "\r\n" for p, v in zip(_row_prefixes(surface.backend), surface.data.tolist())]
    Path(path).write_text("".join(["step,node,value\r\n", *rows]), newline="")


def read_surface_csv(path, backend: Lattice) -> FieldSurface:
    """A surface written by ``write_surface_csv``: every lattice node exactly once."""
    path = Path(path)
    data, rows = np.zeros(backend.size), np.zeros(backend.size, dtype=np.int64)
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            k, j = int(row["step"]), int(row["node"])
            try:
                i = int(backend.flat_index(k, j))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            data[i], rows[i] = float(row["value"]), rows[i] + 1
    i = int(np.argmax(rows != 1))
    if rows[i] != 1:
        k, j = backend.locate(i)
        raise ValueError(f"{path}: step {k}, node {j} is {'missing' if rows[i] == 0 else 'repeated'}")
    return FieldSurface(backend, data)


def write_trace_csv(path, trace):
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "local_sweeps"])
        writer.writerows(enumerate(trace.local_sweeps.tolist()))


def write_json(path, payload: dict):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
