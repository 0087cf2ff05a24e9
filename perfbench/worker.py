"""One fresh benchmark process: set up one workload, then time passes.

``run.py`` starts this script; it is not meant to be run by hand::

    python3 perfbench/worker.py --workload NAME --seed N --seconds T \\
        --mode {run,setup,trace} --t0 SPAWN_TIME --tmp DIR [--tiny] [--corrupt]

``--t0`` is the parent's ``time.perf_counter()`` just before the spawn
(the monotonic clock is system-wide), so ``setup_s`` runs from process
start to the first timed operation.  ``--mode setup`` stops there.  The
last stdout line is one JSON object with the raw measurements.

From the second pass on, the worker also times :func:`calibration_s`, a
fixed numpy job that touches none of the package, before every untraced
pass and once after the last, so ``run.py`` can tell how fast the host
ran around each pass (``--mode setup`` times it once after set-up).
Pass 0 and the set-up run without it, so it never sets ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from layers import PER_LAYER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
#: Calibration timings taken at each point; their minimum is kept.
CALIBRATION_REPS = 2


def calibration_s() -> float:
    """Wall time of a fixed numpy job on fresh 32 MB arrays (~0.12 s).

    The shared host's speed drifts by up to 2x over minutes.  Timed next
    to a pass, this job's time moves in step with the pass on every
    workload (a pure-Python loop tracked them far worse), so the ratio
    of the two stays put while each of them drifts.
    """
    import numpy as np

    start = time.perf_counter()
    x = np.arange(4_000_000, dtype=np.float64)
    y = np.sqrt(x) * 1.5 + x
    np.partition(y, 2_000_000)
    np.bincount((x % 977).astype(np.int64))
    return time.perf_counter() - start


def calibrate() -> float:
    return min(calibration_s() for _ in range(CALIBRATION_REPS))


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    traced = args.mode == "trace"
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # imports every traced module during set-up
        tracer.uninstall()
    workload = WORKLOADS[args.workload](args.seed, args.tiny, ROOT, args.tmp)
    workload.setup(traced)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"repro imported from {repro.__file__}, not {ROOT}")
    first = time.perf_counter()
    result = {"setup_s": first - args.t0}
    if args.mode == "setup":
        result["calibration_s"] = calibrate()
        print(json.dumps(result))
        return 0

    # Trace mode alternates untraced and traced passes (pass 0, which
    # sets the references, is untraced and left out of the overhead).
    min_passes = 5 if traced else 2
    deadline = first + args.seconds
    # pass_calibrations[i] is the calibration taken just before pass_ops[i].
    pass_ops, pass_calibrations, untraced_walls = [], [], []
    attempted = failed = 0
    index = 0
    while index < min_passes or time.perf_counter() < deadline:
        trace_this = traced and index % 2 == 1
        outputs = None
        gc.collect()  # no pass pays for the previous pass's garbage
        calibration = calibrate() if index and not traced else None
        start = time.perf_counter()
        try:
            if trace_this:
                with tracer.traced_pass():
                    walls, outputs = workload.run_pass(True)
                workload.probe(tracer)
            else:
                walls, outputs = workload.run_pass(False)
                if traced and index:
                    untraced_walls.append(time.perf_counter() - start)
        except Exception:  # a failed pass is a failed operation, not a crash
            traceback.print_exc()
            verdicts = {"pass": False}
        else:
            pass_ops.append(walls)
            pass_calibrations.append(calibration)
            if args.corrupt and index == 1:
                workload.corrupt(outputs)
            verdicts = workload.check(index, outputs)
        if index == 0:
            # Set-up plus exactly one pass: a fixed operation sequence.
            result["peak_rss_mb"] = _peak_rss_mb(workload.children_rss)
        attempted += len(verdicts)
        for op, ok in verdicts.items():
            if not ok:
                failed += 1
                print(f"wrong output: pass {index}, {op}", file=sys.stderr)
        index += 1

    result.update(
        passes=index,
        pass_ops=pass_ops,
        pass_calibrations=pass_calibrations,
        calibration_after_s=None if traced else calibrate(),
        attempted=attempted,
        failed=failed,
        units_per_pass=workload.units_per_pass,
    )
    if traced:
        layers = {name: 0.0 for name, _, _ in PER_LAYER}
        layers.update(tracer.layer_metrics())
        layers.update(workload.trace_figures())
        layers["trace.overhead_frac"] = (
            statistics.median(tracer.pass_walls)
            / statistics.median(untraced_walls) - 1.0
        )
        known = {name for name, _, _ in PER_LAYER}
        result["layers"] = {k: v for k, v in layers.items() if k in known}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
