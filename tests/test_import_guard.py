"""``import repro`` and the four default CLIs must not load scipy, and
``import repro`` and the three study CLIs no pool machinery.

scipy.signal alone costs over a second of import time, several times the
rest of a cold CLI run.  Only a few non-default paths call it (the
direct-form ``FIRFilter`` and the Kaiser design), and they import it
themselves.  A run is one process: ``repro.parallel`` is a thread pool,
so ``multiprocessing`` is import cost with no use, and a serial run
(the default) needs no ``concurrent.futures`` either.  Wall-clock guards are too noisy on shared runners to
hold this line, so these tests check ``sys.modules`` in a fresh
interpreter instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Runs ``import repro`` (no arguments) or one CLI module through runpy,
#: then prints the scipy and pool modules it left behind as the
#: last stdout line.
PROBE = """
import runpy, sys
FORBIDDEN = tuple(sys.argv[1].split(","))
sys.argv = sys.argv[2:]
if sys.argv:
    try:
        runpy.run_module(sys.argv[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise
else:
    import repro
print(",".join(sorted(m for m in sys.modules if m.startswith(FORBIDDEN))))
"""


SCIPY = ("scipy",)
#: ``concurrent.futures`` pulls in ``logging`` and ``queue``; only a
#: pooled run (``--workers N``) needs it.
POOLS = ("multiprocessing", "concurrent.futures")


@pytest.mark.parametrize(
    "argv, forbidden",
    [
        ([], SCIPY + POOLS),
        (["repro.sweep"], SCIPY + POOLS),
        (["repro.explore"], SCIPY + POOLS),
        (["repro.montecarlo", "--seed", "0"], SCIPY + POOLS),
        (["repro.paper", "--check", "tests/goldens"], SCIPY),
    ],
    ids=["import", "sweep", "explore", "montecarlo", "paper"],
)
def test_default_path_loads_no_scipy(argv, forbidden):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, ",".join(forbidden), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1]
    assert loaded == "", f"forbidden modules loaded: {loaded}"
