"""The README's library quick start runs as written and prints the values its
comments give, every command line of its CLI section runs and exits 0, and
the code its package section and docs/ name exists."""

import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import modeswitch
from modeswitch.cli import main

ROOT = Path(__file__).resolve().parents[1]


def quick_start() -> str:
    """The ``python`` block of the README's "Library quick start" section."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_its_commented_values():
    code = quick_start()
    for comment in ("# 1, ~2.71760", "# True, ~0.00202", "# terminate, 0.0", "# ~4.786 >= e^2 - e"):
        assert comment in code, comment
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", code]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    (sweeps, y0), (passed, residual), action, (distance,) = (line.split() for line in done.stdout.splitlines())
    assert sweeps == "1" and round(float(y0), 4) == 2.7176
    assert passed == "True" and round(float(residual), 5) == 0.00202
    assert action == ["terminate", "0.0"]
    assert float(distance) >= np.e**2 - np.e and round(float(distance), 3) == 4.786


def cli_block() -> list[list[str]]:
    """The ``modeswitch ...`` command lines of the ``bash`` block of the README's
    "CLI" section, continuation lines joined, each split as a shell would."""
    section = (ROOT / "README.md").read_text().split("## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines() if line.startswith("modeswitch ")]


def test_cli_block_runs_every_command(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the problem paths are relative to the repository root
    lines = cli_block()
    assert [argv[1] for argv in lines] == ["solve", "verify-fixtures", "simulate", "simulate", "check-assumptions"]
    for argv in lines:
        args = argv[1:]
        if "--out" in args:
            i = args.index("--out") + 1
            args[i] = str(tmp_path / args[i])
        assert main(args) == 0, shlex.join(argv)


def documented_names() -> list[tuple[str, str]]:
    """Every backticked ``Class.attr`` or ``module.name`` (a call's arguments
    aside) of the README's "What's here" section and of docs/*.md; file names
    such as ``strategy.json`` are not names."""
    readme = (ROOT / "README.md").read_text().split("## What's here\n", 1)[1].split("\n## ", 1)[0]
    texts = [readme, *(path.read_text() for path in sorted((ROOT / "docs").glob("*.md")))]
    spans = [span for text in texts for span in re.findall(r"`([^`]+)`", text)]
    dotted = (re.match(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span) for span in spans)
    return [m.groups() for m, span in zip(dotted, spans) if m and not re.search(r"\.(json|csv|py|md)$", span)]


def resolves(head: str, attr: str, modules: dict) -> bool:
    """Whether ``head.attr`` is a name of the package: ``head`` a module of
    ``modeswitch`` (or the package), or a class one of them defines."""
    if head == "modeswitch":
        return attr in modules or hasattr(modeswitch, attr)
    if head in modules:
        return hasattr(modules[head], attr)
    classes = [vars(module)[head] for module in modules.values() if isinstance(vars(module).get(head), type)]
    return any(hasattr(cls, attr) for cls in classes)


def test_docs_name_only_code_that_exists():
    modules = {
        info.name: importlib.import_module(f"modeswitch.{info.name}") for info in pkgutil.iter_modules(modeswitch.__path__)
    }
    names = documented_names()
    assert ("DriverTable", "rate") in names and ("model", "closure") in names  # the sections are read
    checked = [(head, attr) for head, attr in names if head == "modeswitch" or head in modules or head[0].isupper()]
    assert [f"{head}.{attr}" for head, attr in checked if not resolves(head, attr, modules)] == []
