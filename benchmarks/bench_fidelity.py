#!/usr/bin/env python
"""Fidelity-dial benchmark: cycle-accurate vs calibrated fast replay.

Calibrates the fast paths, replays the bundled sample trace at both
fidelity levels, and checks the two contract numbers of the dial —

* **speed**: the calibrated fast replay must cost at most
  ``MAX_FAST_REPLAY_S`` host seconds at the reference host speed: the
  median of ``RUNS`` in-process replays, each scaled to the reference
  host by perfbench's frozen host-speed probe (``perfbench/hostspeed.py``);
* **accuracy**: fast fig3/fig5 must stay within ``MAX_ERROR`` (5%)
  relative error of the checked-in golden figures, and the fast replay's
  throughput/latency must stay within the same bound of cycle-accurate.

The cycle/fast wall-clock ratio is reported too, as information only: it
measures how slow the golden model is as much as how fast the fast one
is, so an exact, cheaper cycle path lowers it.

Writes the measurements to ``BENCH_fidelity.json`` at the repo root so
the speed/accuracy trajectory accumulates across PRs; exits nonzero if
either contract regresses.

Usage::

    make fidelity                                 # or:
    PYTHONPATH=src python benchmarks/bench_fidelity.py
"""

import json
import os
import platform
import statistics
import sys
import time

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.append(os.path.join(REPO_ROOT, "perfbench"))

from hostspeed import REFERENCE_S, probe_seconds  # noqa: E402
from repro.core import calibrate, fidelity_error_report  # noqa: E402
from repro.core.tracereplay import (TraceWorkload,  # noqa: E402
                                    replay_trace)
from repro.ssd import SsdArchitecture  # noqa: E402

OUT_PATH = os.path.join(REPO_ROOT, "BENCH_fidelity.json")
TRACE = os.path.join(REPO_ROOT, "examples", "sample_msr.csv")

#: Replays behind the speed gate's median.
RUNS = 10
#: Ceiling on the fast replay's median normalized seconds: 28.7 ms, the
#: median of ten gate runs on a 2-vCPU x86_64 VM (Python 3.11.7; their
#: medians spread 26.2-30.5 ms), plus perfbench's 25% ``run_s`` bound.
MAX_FAST_REPLAY_S = 0.036
MAX_ERROR = 0.05


def timed_replay(arch):
    """One replay's outputs and its unrounded ``perf_counter`` seconds
    (the cycle/fast ratio is taken from these; only the JSON rounds)."""
    workload = TraceWorkload.from_file(TRACE)
    started = time.perf_counter()
    outcome = replay_trace(workload, arch=arch)
    wall = time.perf_counter() - started
    result = outcome.result
    return {
        "wall_seconds": wall,
        "events": result.events,
        "sustained_mbps": result.sustained_mbps,
        "throughput_mbps": result.throughput_mbps,
        "mean_latency_us": result.mean_latency_us,
    }


def normalized_seconds(replay, runs=RUNS, clock=time.perf_counter,
                       probe=probe_seconds):
    """Every run of ``replay()``: its ``clock`` seconds, scaled to the
    reference host speed by the mean of ``probe`` just before and just
    after it."""
    samples = []
    for __ in range(runs):
        before = probe()
        started = clock()
        replay()
        seconds = clock() - started
        samples.append(seconds * REFERENCE_S / ((before + probe()) / 2))
    return samples


def speed_failure(samples, ceiling=MAX_FAST_REPLAY_S):
    """Why the fast replay's median cost fails the gate, or None."""
    median = statistics.median(samples)
    if median > ceiling:
        return (f"fast replay {median * 1e3:.1f} ms (normalized median of "
                f"{len(samples)}) over the {ceiling * 1e3:.1f} ms ceiling")
    return None


def rounded_wall(replay):
    """``replay`` as written to the JSON: wall seconds to 1 ms."""
    return dict(replay, wall_seconds=round(replay["wall_seconds"], 3))


def rel_error(measured, reference):
    return abs(measured - reference) / abs(reference) if reference else 0.0


def main() -> int:
    arch = SsdArchitecture()
    started = time.perf_counter()
    calibration = calibrate(arch)
    calibrate_wall = time.perf_counter() - started
    fast_arch = arch.with_fidelity(calibration.to_fidelity())

    cycle = timed_replay(arch)
    print(f"cycle : {cycle['wall_seconds']:7.2f}s  "
          f"{cycle['events']:>9,} events  "
          f"{cycle['sustained_mbps']:6.2f} MB/s sustained")

    fast = timed_replay(fast_arch)
    print(f"fast  : {fast['wall_seconds']:7.2f}s  "
          f"{fast['events']:>9,} events  "
          f"{fast['sustained_mbps']:6.2f} MB/s sustained")

    workload = TraceWorkload.from_file(TRACE)
    samples = normalized_seconds(
        lambda: replay_trace(workload, arch=fast_arch))
    fast_replay_s = statistics.median(samples)
    print(f"fast replay cost: {fast_replay_s * 1e3:.1f} ms normalized "
          f"(median of {len(samples)}), ceiling "
          f"{MAX_FAST_REPLAY_S * 1e3:.1f} ms")

    speedup = (cycle["wall_seconds"] / fast["wall_seconds"]
               if fast["wall_seconds"] else float("inf"))
    replay_errors = {
        "sustained_mbps": rel_error(fast["sustained_mbps"],
                                    cycle["sustained_mbps"]),
        "throughput_mbps": rel_error(fast["throughput_mbps"],
                                     cycle["throughput_mbps"]),
        "mean_latency_us": rel_error(fast["mean_latency_us"],
                                     cycle["mean_latency_us"]),
    }
    print(f"cycle/fast: {speedup:.2f}x (information only)  "
          f"(thr err {replay_errors['sustained_mbps']:.2%}, "
          f"lat err {replay_errors['mean_latency_us']:.2%})")

    report = fidelity_error_report(calibration.to_fidelity(),
                                   bound=MAX_ERROR, repo_root=REPO_ROOT)
    print(f"figures: max error {report['max_rel_error']:.2%} "
          f"({report['max_metric']}) vs goldens, bound {MAX_ERROR:.0%}")

    document = {
        "trace": os.path.basename(TRACE),
        "calibration": dict(calibration.to_dict(),
                            wall_seconds=round(calibrate_wall, 3)),
        "cycle": rounded_wall(cycle),
        "fast": rounded_wall(fast),
        "fast_replay_normalized_s": round(fast_replay_s, 4),
        "speedup": round(speedup, 2),
        "replay_rel_errors": {key: round(value, 4)
                              for key, value in replay_errors.items()},
        "golden_max_rel_error": round(report["max_rel_error"], 4),
        "golden_max_metric": report["max_metric"],
        "bounds": {"max_fast_replay_s": MAX_FAST_REPLAY_S,
                   "max_error": MAX_ERROR},
        "platform": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
    }
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.normpath(OUT_PATH)}")

    failures = []
    slow = speed_failure(samples)
    if slow:
        failures.append(slow)
    if not report["within_bound"]:
        failures.append(f"golden error {report['max_rel_error']:.2%} "
                        f"over the {MAX_ERROR:.0%} bound")
    over = {key: value for key, value in replay_errors.items()
            if value > MAX_ERROR}
    if over:
        failures.append(f"replay errors over bound: {over}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
