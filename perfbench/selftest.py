"""Self-test of the benchmark, on tiny inputs (about two minutes).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` declares exactly the metrics of
``layers.py``; that a tiny run of every workload prints every end-to-end
metric (``--trace 0``) and every per-layer metric (``--trace 1``) with
its unit and no failed operation; that one flipped output byte
(``--corrupt``) is counted as a failed operation; and that in a copy
holding only ``BENCHMARK.json`` and this directory the command exits
non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from layers import END_TO_END, MOVES, PER_LAYER, WORK_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, *extra: str, cwd: Path = ROOT):
    """(exit code, figures line, result line) of one tiny run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_declarations() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
        == list(END_TO_END),
        "BENCHMARK.json end_to_end differs from layers.END_TO_END",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
        == list(PER_LAYER),
        "BENCHMARK.json per_layer differs from layers.PER_LAYER",
    )
    expect(
        [w["name"] for w in bench["workloads"]] == list(WORK_UNITS),
        "BENCHMARK.json workloads differ from layers.WORK_UNITS",
    )
    for name, _, _ in PER_LAYER:
        expect(any(name.startswith(p) for p in MOVES),
               f"{name}: no end-to-end figure recorded in layers.MOVES")


def check_metrics(result: dict, declared, label: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {name: unit for name, unit, _ in declared}
    expect(got == want, f"{label}: metrics {sorted(set(got) ^ set(want))}")
    for name, metric in result["metrics"].items():
        expect(isinstance(metric["value"], float), f"{label}: {name} value")


def check_workload(workload: str) -> None:
    code, figures, result = run(workload, "--trace", "0")
    expect(code == 0 and result is not None, f"{workload}: run failed")
    expect(result["correct"] and result["failed"] == 0,
           f"{workload}: {result['failed']} wrong output(s)")
    check_metrics(result, END_TO_END, workload)
    named = figures["figures"]
    expect(WORK_UNITS[workload][1] in named and named["failed_frac"] == 0,
           f"{workload}: named figures {sorted(named)}")
    for key in ("python", "numpy", "scipy", "nproc", "git_describe", "seed"):
        expect(key in figures["fingerprint"], f"{workload}: fingerprint {key}")

    code, _, result = run(workload, "--trace", "1")
    expect(code == 0 and result is not None, f"{workload}: traced run failed")
    expect(result["correct"], f"{workload}: traced run wrong output")
    check_metrics(result, PER_LAYER, f"{workload} traced")

    code, figures, result = run(workload, "--trace", "0", "--corrupt")
    expect(code == 0 and result is not None, f"{workload}: corrupt run failed")
    expect(not result["correct"] and result["failed"] >= 1
           and figures["figures"]["failed_frac"] > 0,
           f"{workload}: a flipped output byte was not counted")
    print(f"{workload}: ok", flush=True)


def check_missing_program() -> None:
    copy = ROOT / ".perfbench_tmp" / "selftest-copy"
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        shutil.copytree(HERE, copy / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, _, result = run("population", cwd=copy)
        expect(code != 0 and result is None,
               "a checkout without the package still printed a result")
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    print("missing package: ok", flush=True)


def main() -> int:
    check_declarations()
    check_missing_program()
    for workload in WORK_UNITS:
        check_workload(workload)
    print("selftest OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
