"""The README's library quick start runs as written and prints the values its comments give."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
