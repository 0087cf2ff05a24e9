"""Run one ``repro`` CLI as ``python -m repro.<cli>`` would, and record
where its time went: importing the CLI module, its ``main``, and for
the paper CLI the ``render_tables`` call inside ``main``.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/clichild.py CLI TIMES_JSON [CLI ARGS...]

The CLI's stdout and exit code are passed through unchanged; the times
go to ``TIMES_JSON``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path


def main() -> int:
    cli, times_path, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    module = importlib.import_module(f"repro.{cli}.__main__")
    imported = time.perf_counter()
    times = {"cli": cli, "import_s": imported - start, "render_tables_s": 0.0}
    if cli == "paper":
        render_tables = module.render_tables

        def timed_render_tables():
            begin = time.perf_counter()
            try:
                return render_tables()
            finally:
                times["render_tables_s"] += time.perf_counter() - begin

        module.render_tables = timed_render_tables
    try:
        return module.main(argv)
    finally:
        times["main_s"] = time.perf_counter() - imported
        times_path.write_text(json.dumps(times))


if __name__ == "__main__":
    raise SystemExit(main())
