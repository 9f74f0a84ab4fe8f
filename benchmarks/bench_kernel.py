"""Columnar kernel throughput — fused superops vs the unfused opcode stream.

The point of superop fusion: on the Figure 16 SPEC OMP sweep (8
serialised threads, scale 3) the kernels of ``repro.core.kernel`` must
process at least **1.8x** the events/second on the fused batch that
they reach on the plain, unfused batch of the identical trace, on the
geometric mean across the subset, for both profilers (drms and rms).

Unfused, the kernel dispatches one opcode per memory event; fused, it
replays each stride-1 run superop with one leaf-segment
classification plus a bulk slice stamp.

A separate row replays the Figure 4 ``mysql_select`` trace, where half
the events are syscall buffer fills (``kernelToUser``) that fuse into
kernel-fill runs.  It stays out of the SPEC geomean and has its own
floor: the fused drms kernel must reach **2.0x** its unfused rate.

The fused side replays the rows a stored trace carries: the trace
writer fuses (``EventBatch.to_bytes``), and the rows are decoded once
per workload *outside* the timed region — replay never fuses.

Results are written to ``BENCH_kernel.json`` at the repo root so the
README performance table and CI can track the ratio.  Also runnable
directly: ``PYTHONPATH=src python benchmarks/bench_kernel.py``
(``--quick`` for the CI smoke variant).
"""

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.core import DrmsProfiler, FULL_POLICY
from repro.core.events import EventBatch, count_superops, encode_events
from repro.core.rms import RmsProfiler
from repro.tools import geometric_mean
from repro.workloads.registry import get_workload

SPEC_SUBSET = ("md", "nab", "swim", "ilbdc")
#: the kernel-fill row, outside the SPEC geomean
FILL_WORKLOAD = "mysql_select"
MIN_FILL_DRMS_SPEEDUP = 2.0
THREADS = 8
SCALE = 3
MIN_SPEEDUP = 1.8
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def record(name, threads=THREADS, scale=SCALE):
    machine = get_workload(name).build(threads=threads, scale=scale)
    machine.run()
    return machine.trace


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _median_pair(unfused_run, fused_run, repeats):
    """One untimed warm-up each, then interleaved median-of repeats so
    CPU frequency drift hits both sides equally and a single outlier
    repeat can't set the reported number."""
    unfused_run()
    fused_run()
    unfused_times = []
    fused_times = []
    for _ in range(repeats):
        unfused_times.append(timed(unfused_run))
        fused_times.append(timed(fused_run))
    return statistics.median(unfused_times), statistics.median(fused_times)


def measure_workload_kernel(name, repeats, scale=SCALE):
    trace = record(name, scale=scale)
    batch = encode_events(trace)
    fused = EventBatch.from_bytes(batch.to_bytes())
    runs, covered = count_superops(fused)
    n = len(trace)

    def drms_run(payload):
        def run():
            profiler = DrmsProfiler(policy=FULL_POLICY, keep_activations=False)
            profiler.consume_columnar(payload)

        return run

    def rms_run(payload):
        def run():
            profiler = RmsProfiler(keep_activations=False)
            profiler.consume_columnar(payload)

        return run

    drms_u, drms_f = _median_pair(drms_run(batch), drms_run(fused), repeats)
    rms_u, rms_f = _median_pair(rms_run(batch), rms_run(fused), repeats)
    return {
        "events": n,
        "superop_runs": runs,
        "fused_events": covered,
        "fused_fraction": covered / n if n else 0.0,
        "mean_run_length": covered / runs if runs else 0.0,
        "drms_unfused_time": drms_u,
        "drms_fused_time": drms_f,
        "drms_unfused_events_per_sec": n / drms_u,
        "drms_fused_events_per_sec": n / drms_f,
        "drms_speedup": drms_u / drms_f,
        "rms_unfused_time": rms_u,
        "rms_fused_time": rms_f,
        "rms_unfused_events_per_sec": n / rms_u,
        "rms_fused_events_per_sec": n / rms_f,
        "rms_speedup": rms_u / rms_f,
    }


def run_suite(quick=False):
    repeats = 3 if quick else 7
    scale = 2 if quick else SCALE
    workloads = {
        name: measure_workload_kernel(name, repeats, scale=scale)
        for name in SPEC_SUBSET + (FILL_WORKLOAD,)
    }
    spec = [workloads[name] for name in SPEC_SUBSET]
    drms_speedup = geometric_mean([w["drms_speedup"] for w in spec])
    rms_speedup = geometric_mean([w["rms_speedup"] for w in spec])
    results = {
        "suite": "specomp",
        "threads": THREADS,
        "scale": scale,
        "repeats": repeats,
        "quick": quick,
        "timing": "median of repeats after one untimed warm-up",
        "python": sys.version,
        "platform": platform.platform(),
        "engines": "columnar kernel: fused superops vs unfused opcode batch",
        "workloads": workloads,
        "geomean_drms_speedup": drms_speedup,
        "geomean_rms_speedup": rms_speedup,
        "min_required_speedup": MIN_SPEEDUP,
        "fill_workload": FILL_WORKLOAD,
        "min_required_fill_drms_speedup": MIN_FILL_DRMS_SPEEDUP,
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def print_results(results):
    header = (
        f"{'workload':>12} {'events':>9} {'fused':>6} {'run len':>8} "
        f"{'drms speedup':>13} {'rms speedup':>12}"
    )
    print(header)
    for name, w in results["workloads"].items():
        print(
            f"{name:>12} {w['events']:>9} {w['fused_fraction']:>5.0%} "
            f"{w['mean_run_length']:>8.1f} {w['drms_speedup']:>12.2f}x "
            f"{w['rms_speedup']:>11.2f}x"
        )
    print(
        f"SPEC geomean speedup: drms {results['geomean_drms_speedup']:.2f}x, "
        f"rms {results['geomean_rms_speedup']:.2f}x; "
        f"{FILL_WORKLOAD} (kernel fills) is outside the geomean "
        f"(written to {RESULT_PATH.name})"
    )


def test_columnar_kernel_throughput(benchmark):
    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    results = benchmark.pedantic(
        lambda: run_suite(quick=quick), rounds=1, iterations=1
    )
    from _support import print_banner

    print_banner(
        "Kernel: columnar fused superops vs unfused batch (8 threads)"
    )
    print_results(results)
    for name, w in results["workloads"].items():
        assert w["drms_speedup"] > 1.0, name
        assert w["rms_speedup"] > 1.0, name
    assert results["geomean_drms_speedup"] >= MIN_SPEEDUP
    assert results["geomean_rms_speedup"] >= MIN_SPEEDUP
    fill = results["workloads"][FILL_WORKLOAD]
    assert fill["drms_speedup"] >= MIN_FILL_DRMS_SPEEDUP


if __name__ == "__main__":
    print_results(run_suite(quick="--quick" in sys.argv))
