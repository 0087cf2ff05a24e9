"""``import repro`` and the four default CLIs must not load scipy.

scipy.signal alone costs over a second of import time, several times the
rest of a cold CLI run.  Only a few non-default paths call it (the
direct-form ``FIRFilter`` and the Kaiser design), and they import it
themselves.  Wall-clock guards are too noisy on shared runners to hold this
line, so these tests check ``sys.modules`` in a fresh interpreter instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Runs ``import repro`` (no arguments) or one CLI module through runpy,
#: then prints the scipy modules it left behind as the last stdout line.
PROBE = """
import runpy, sys
sys.argv = sys.argv[1:]
if sys.argv:
    try:
        runpy.run_module(sys.argv[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise
else:
    import repro
print(",".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["repro.sweep"],
        ["repro.explore"],
        ["repro.montecarlo", "--seed", "0"],
        ["repro.paper", "--check", "tests/goldens"],
    ],
    ids=["import", "sweep", "explore", "montecarlo", "paper"],
)
def test_default_path_loads_no_scipy(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1]
    assert loaded == "", f"scipy modules loaded: {loaded}"
