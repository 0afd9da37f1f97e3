"""Problem files and result persistence.

The problem file is a declarative JSON document (schema in
docs/problem_schema.md): a horizon, four drivers, six cost coefficients, and
four terminal values. Surfaces are persisted as step/node/value CSV with
full-precision floats so that re-reading them reproduces audits exactly,
written by step chunks, with no string per node of the whole lattice;
structured results (summary, strategy, fixture reports) are JSON with sorted
keys so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from itertools import islice
from pathlib import Path

from .grid import CHUNK_NODES, Lattice, np
from .model import COMPONENTS, MINUS, PLUS, CoefficientFunction, Driver, ProblemError, SwitchingProblem, Terminal

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


def _known(spec: dict, fields, where: str = ""):
    """Refuse the first key of ``spec`` that is not one of ``fields``, by name."""
    for key in spec:
        if key not in fields:
            raise ProblemError(f"{where}: unknown field {key!r}" if where else f"unknown field {key!r}")


def _coefficient(spec, where: str) -> CoefficientFunction:
    if not isinstance(spec, dict):
        return CoefficientFunction.constant(_number(spec, where))
    _known(spec, ("kind", "params", "ito"), where)
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
    _known(spec, ("intercept", "slope"), where)
    if "intercept" not in spec:
        raise ProblemError(f"{where}: missing field 'intercept'")
    return Terminal(_number(spec["intercept"], f"{where}.intercept"), _number(spec.get("slope", 0.0), f"{where}.slope"))


def _entries(doc: dict, key: str, names, parse) -> list:
    """The entries ``names`` of the object ``doc[key]``, parsed in turn; one missing or unknown is refused by name."""
    raw = doc.get(key)
    if not isinstance(raw, dict):
        raise ProblemError(f"{key!r} must be an object with keys {names[0]}..{names[-1]}")
    _known(raw, names, key)
    entries = []
    for name in names:
        if name not in raw:
            raise ProblemError(f"{key!r} missing entry {name!r}")
        entries.append(parse(raw[name], f"{key}.{name}"))
    return entries


def problem_from_dict(doc: dict) -> SwitchingProblem:
    if not isinstance(doc, dict):
        raise ProblemError("problem document must be a JSON object")
    _known(doc, ("horizon", "drivers", "costs", "terminals"))
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
        _known(entry, ("mode", "side", "c0", "c1", "c2", "state_feature"), where)
        for name in ("mode", "side"):
            if name not in entry:
                raise ProblemError(f"{where}: missing field {name!r}")
        side = entry["side"]
        if not isinstance(side, str) or side not in _SIDES:
            raise ProblemError(f"{where}.side must be one of {', '.join(map(repr, _SIDES))}")
        c0 = _coefficient(entry.get("c0", 0.0), f"{where}.c0")
        c1, c2 = (_number(entry.get(name, 0.0), f"{where}.{name}") for name in ("c1", "c2"))
        try:
            drv = Driver(entry["mode"], _SIDES[side], c0, c1, c2, entry.get("state_feature", "one"))
        except ProblemError as exc:
            raise ProblemError(f"{where}.{exc}") from None
        if (drv.side, drv.mode) in drivers:
            raise ProblemError(f"{where}: duplicate driver for ({drv.side}, {drv.mode})")
        drivers[(drv.side, drv.mode)] = drv

    names = ("ell_1", "ell_2", "a_1", "a_2", "b_1", "b_2")
    ell_1, ell_2, a_1, a_2, b_1, b_2 = _entries(doc, "costs", names, _coefficient)
    terminals = _entries(doc, "terminals", [f"{side}_{mode}" for side, mode in COMPONENTS], _terminal)
    return SwitchingProblem(horizon, drivers, (ell_1, ell_2), (a_1, a_2), (b_1, b_2), dict(zip(COMPONENTS, terminals)))


def load_problem(path) -> SwitchingProblem:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ProblemError(f"cannot read problem file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, an integer past the digit limit, or nested too deep
        raise ProblemError(f"{path}: {exc}") from None
    return problem_from_dict(doc)


def write_surface_csv(path, lattice: Lattice, values: np.ndarray):
    """One ``step,node,value`` row per node of a flat buffer of node values (``write_surfaces``, one file)."""
    if values.shape != (lattice.size,):
        raise ValueError(f"flat surface needs {lattice.size} node values, got shape {values.shape}")
    write_surfaces([path], lattice, lambda start, stop, nodes, *_: [values[nodes]])


def write_surfaces(paths, lattice: Lattice, rows):
    """Surface files side by side, by step chunks (``Lattice.step_chunks``): ``rows(start, stop, nodes,
    steps, states)`` gives each file's values at the nodes of steps start..stop-1, whose flat slice, steps
    and states (``Lattice.nodes``) it is handed, in the order of ``paths``. A file
    holds one ``step,node,value`` row per node, the bytes ``csv.writer`` writes (CRLF line ends,
    ``repr`` values); the ``step,node,`` heads of a chunk's rows are built once for all files."""
    with ExitStack() as stack:
        files = [stack.enter_context(Path(path).open("w", newline="")) for path in paths]
        for fh in files:
            fh.write("step,node,value\r\n")
        for start, stop in lattice.step_chunks(lattice.n_steps + 1):
            nodes, steps, index, states = lattice.nodes(start, stop)
            heads = [f"{k},{j}," for k, j in zip(steps.tolist(), index.tolist())]
            for fh, values in zip(files, rows(start, stop, nodes, steps, states)):
                fh.write("".join([head + repr(v) + "\r\n" for head, v in zip(heads, values.tolist())]))


def read_surface_csv(path, lattice: Lattice) -> np.ndarray:
    """The flat buffer written by ``write_surface_csv``: every lattice node exactly once, mapped by
    ``CHUNK_NODES`` rows per ``Lattice.flat_index`` call. A wrong header and a row that is short, long,
    not numeric or off the lattice raise ``ValueError`` naming the file and the first such line."""
    import csv  # the one reader of CSV; the commands write their files as strings

    path = Path(path)
    data, rows = np.zeros(lattice.size), np.zeros(lattice.size, dtype=np.int64)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["step", "node", "value"]:
            raise ValueError(f"{path}: line 1: expected the header step,node,value")
        lines = ((reader.line_num, line) for line in reader if line)  # blank lines skipped
        while batch := list(islice(lines, CHUNK_NODES)):
            try:
                steps, nodes, values = zip(*[(int(k), int(j), float(value)) for _, (k, j, value) in batch])
                flat = lattice.flat_index(steps, nodes)
            except ValueError:  # the first failing row names its line, read alone as in a row-by-row read
                for number, line in batch:
                    try:
                        k, j, value = line
                        lattice.flat_index(int(k), int(j)), float(value)
                    except ValueError as exc:
                        raise ValueError(f"{path}: line {number}: {exc}") from None
            data[flat] = values
            np.add.at(rows, flat, 1)
    i = int(np.argmax(rows != 1))
    if rows[i] != 1:
        k, j = lattice.locate(i)
        raise ValueError(f"{path}: step {k}, node {j} is {'missing' if rows[i] == 0 else 'repeated'}")
    return data


def write_trace_csv(path, trace):
    """One ``step,local_sweeps`` row per step, as one string, with the line ends of ``write_surface_csv``."""
    rows = [f"{k},{n}\r\n" for k, n in enumerate(trace.local_sweeps.tolist())]
    Path(path).write_text("".join(["step,local_sweeps\r\n", *rows]), newline="")


def write_json(path, payload: dict):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
