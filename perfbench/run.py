"""End-to-end benchmark of the repro package.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads: ``cli_cold`` (the four default CLIs as cold processes),
``design_space`` (sweep/explore/store studies), ``population``
(Monte-Carlo populations) and ``bit_true_stream`` (the bit-true
simulators on a DRM-like stimulus).  Every run of a workload is a fresh
worker process (``worker.py``) driven closed-loop, one operation at a
time.

``--trace 0`` prints the end-to-end metrics of ``layers.END_TO_END``:
the median of three set-ups (two set-up-only processes plus the timed
one), the peak RSS after set-up plus one pass, and the median wall time
of the timed passes after the first.  Set-ups and passes are each
divided by the worker's calibration job timed next to them and scaled by
``CALIBRATION_REF_S``: the times they would take on the reference host
at full speed (raw times go to the figures line).  ``--trace 1``
prints the per-layer metrics of ``layers.PER_LAYER`` from a traced
worker plus one ``-X importtime`` import of the package.  The line
before the result holds the environment fingerprint and the workload's
named figures (``cli_s.p50``,
``cells_per_s``, ``users_per_s``, ``adc_samples_per_s``,
``failed_frac``); the last line is the result object.  Exits non-zero,
printing no result, when the package sources are missing or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from layers import END_TO_END, PER_LAYER, WORK_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up-only processes started before the timed one.
SETUP_PROBES = 2
#: Wall-clock limit of one worker process.
WORKER_TIMEOUT_S = 150
#: The time of ``worker.calibration_s`` on the reference host, a 2-vCPU
#: Intel Xeon VM (CPython 3.11, numpy 2.4), when it ran at full speed.
CALIBRATION_REF_S = 0.12


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(tmp: Path) -> dict[str, str]:
    """The environment every child runs in: the checkout's sources, no
    ``REPRO_*`` overrides, temporary files inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def build(env: dict[str, str]) -> None:
    """Byte-compile the sources once, so no run pays for compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
         str(HERE)],
        env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        timeout=WORKER_TIMEOUT_S,
    )


def run_worker(args, mode: str, env: dict[str, str], tmp: Path) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--tmp", str(tmp),
    ]
    if args.size == "tiny":
        command.append("--tiny")
    if args.corrupt:
        command.append("--corrupt")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [*command, "--t0", repr(t0)], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def import_figures(env: dict[str, str]) -> dict[str, float]:
    """``import repro`` under ``-X importtime``: total, scipy share, modules."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=env, cwd=ROOT, stderr=subprocess.PIPE, timeout=WORKER_TIMEOUT_S,
        check=True,
    )
    # Lines are "import time: self | cumulative | name", children before
    # their parent and indented two spaces per level below it.
    roots: list[dict] = []
    for line in proc.stderr.decode().splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, raw_name = line[len("import time:"):].split("|")
        depth = (len(raw_name) - len(raw_name.lstrip())) // 2
        node = {"name": raw_name.strip(), "us": int(cumulative),
                "depth": depth, "children": []}
        while roots and roots[-1]["depth"] > depth:
            node["children"].insert(0, roots.pop())
        roots.append(node)

    def walk(nodes):
        for node in nodes:
            yield node
            yield from walk(node["children"])

    def outermost_scipy(nodes) -> int:
        total = 0
        for node in nodes:
            if node["name"].split(".")[0] == "scipy":
                total += node["us"]
            else:
                total += outermost_scipy(node["children"])
        return total

    repro_us = sum(n["us"] for n in walk(roots) if n["name"] == "repro")
    return {
        "import.repro_s": repro_us / 1e6,
        "import.scipy_s": outermost_scipy(roots) / 1e6,
        "import.modules": float(sum(1 for _ in walk(roots))),
    }


def fingerprint(args) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        describe = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "git_describe": describe,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, env: dict[str, str], tmp: Path) -> tuple[dict, dict, dict]:
    """(result metrics, named figures, raw main-worker record)."""
    if args.trace:
        main = run_worker(args, "trace", env, tmp)
        layers = dict(main["layers"])
        layers.update(import_figures(env))
        metrics = {
            name: {"value": float(layers[name]), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
        return metrics, {}, main
    probes = [run_worker(args, "setup", env, tmp) for _ in range(SETUP_PROBES)]
    main = run_worker(args, "run", env, tmp)
    pass_ops = main["pass_ops"]
    pass_walls = [sum(ops) for ops in pass_ops]
    # The shared host's slow spells outlast a run, so every timing is
    # divided by the calibration job timed next to it and expressed at
    # the reference host's speed.  Each pass after pass 0 takes the faster
    # of the calibrations just before and just after it.
    calibrations = [*main["pass_calibrations"][1:],
                    main["calibration_after_s"]]
    around = [min(pair) for pair in zip(calibrations, calibrations[1:])]
    setups = [(probe["setup_s"], probe["calibration_s"]) for probe in probes]
    setups.append((main["setup_s"], calibrations[0]))
    values = {
        "setup_s": CALIBRATION_REF_S
        * statistics.median(wall / cal for wall, cal in setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "pass_s.ref": CALIBRATION_REF_S
        * statistics.median(
            wall / cal for wall, cal in zip(pass_walls[1:], around)
        ),
    }
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in END_TO_END
    }
    unit, figure = WORK_UNITS[args.workload]
    q1, median, q3 = statistics.quantiles(pass_walls, n=4)
    named = {
        "setup_s.raw": [wall for wall, _ in setups],
        "calibration_s.p50": statistics.median(calibrations),
        "pass_s.p25": q1,
        "pass_s.p50": median,
        "pass_s.p75": q3,
        "passes": len(pass_walls),
        f"{unit}_per_pass": main["units_per_pass"],
    }
    if args.workload == "cli_cold":
        invocations = [wall for ops in pass_ops for wall in ops]
        named[figure] = statistics.median(invocations)
        named["invocations"] = len(invocations)
    else:
        named[figure] = main["units_per_pass"] / statistics.median(pass_walls)
    return metrics, named, main


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", choices=sorted(WORK_UNITS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one output byte per run, for the self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env(tmp)
        build(env)
        metrics, named, main_record = measure(args, env, tmp)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    attempted, failed = main_record["attempted"], main_record["failed"]
    named.update(failed_frac=failed / attempted, attempted=attempted,
                 failed=failed)
    print(json.dumps({"fingerprint": fingerprint(args), "figures": named}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
