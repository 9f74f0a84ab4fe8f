"""Event throughput — columnar kernel on the opcode batch vs scalar dispatch.

The point of the batch layer: on the Figure 16 SPEC OMP sweep (8
serialised threads, scale 3) ``DrmsProfiler.consume_columnar`` on the
plain, *unfused* opcode batch must process at least **3x** the
events/second of the scalar ``consume`` loop over the identical trace.
The scalar path pays one dataclass construction plus an isinstance
chain per event; the kernel dispatches on integer opcodes over flat
arrays with the hot shadow state bound to locals.  Fusion is left out
on purpose — ``bench_kernel.py`` measures what it adds on top.

Results are written to ``BENCH_throughput.json`` at the repo root so
the README performance table and CI can track the ratio.  Also runnable
directly: ``PYTHONPATH=src python benchmarks/bench_throughput.py``
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
from repro.core.events import encode_events
from repro.tools import geometric_mean
from repro.workloads.registry import get_workload

SPEC_SUBSET = ("md", "nab", "swim", "ilbdc")
THREADS = 8
SCALE = 3
MIN_SPEEDUP = 3.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def record(name, threads=THREADS, scale=SCALE):
    machine = get_workload(name).build(threads=threads, scale=scale)
    machine.run()
    return machine.trace


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure_workload_throughput(name, repeats, scale=SCALE):
    trace = record(name, scale=scale)
    batch = encode_events(trace)
    n = len(trace)

    def scalar_run():
        profiler = DrmsProfiler(policy=FULL_POLICY, keep_activations=False)
        consume = profiler.consume
        for event in trace:
            consume(event)

    def columnar_run():
        profiler = DrmsProfiler(policy=FULL_POLICY, keep_activations=False)
        profiler.consume_columnar(batch)

    # One untimed warm-up each, then interleaved median-of repeats so
    # CPU frequency drift hits both sides equally instead of biasing
    # the ratio toward whichever ran during the faster window — and a
    # single lucky (or unlucky) repeat can't set the reported number.
    scalar_run()
    columnar_run()
    scalar_times = []
    columnar_times = []
    for _ in range(repeats):
        scalar_times.append(timed(scalar_run))
        columnar_times.append(timed(columnar_run))
    scalar_time = statistics.median(scalar_times)
    columnar_time = statistics.median(columnar_times)
    return {
        "events": n,
        "scalar_time": scalar_time,
        "columnar_time": columnar_time,
        "scalar_events_per_sec": n / scalar_time,
        "columnar_events_per_sec": n / columnar_time,
        "speedup": scalar_time / columnar_time,
    }


def run_suite(quick=False):
    repeats = 2 if quick else 5
    scale = 2 if quick else SCALE
    workloads = {
        name: measure_workload_throughput(name, repeats, scale=scale)
        for name in SPEC_SUBSET
    }
    speedup = geometric_mean([w["speedup"] for w in workloads.values()])
    results = {
        "suite": "specomp",
        "threads": THREADS,
        "scale": scale,
        "repeats": repeats,
        "quick": quick,
        "timing": "median of repeats after one untimed warm-up",
        "python": sys.version,
        "platform": platform.platform(),
        "profiler": "drms (FULL_POLICY)",
        "engines": "columnar kernel on the unfused batch vs scalar consume",
        "workloads": workloads,
        "geomean_speedup": speedup,
        "min_required_speedup": MIN_SPEEDUP,
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def print_results(results):
    header = (
        f"{'workload':>10} {'events':>9} {'scalar ev/s':>12} "
        f"{'columnar ev/s':>13} {'speedup':>8}"
    )
    print(header)
    for name, w in results["workloads"].items():
        print(
            f"{name:>10} {w['events']:>9} {w['scalar_events_per_sec']:>12.0f} "
            f"{w['columnar_events_per_sec']:>13.0f} {w['speedup']:>7.2f}x"
        )
    print(f"geomean speedup: {results['geomean_speedup']:.2f}x "
          f"(written to {RESULT_PATH.name})")


def test_columnar_drms_throughput(benchmark):
    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    results = benchmark.pedantic(
        lambda: run_suite(quick=quick), rounds=1, iterations=1
    )
    from _support import print_banner

    print_banner(
        "Throughput: columnar (unfused) vs scalar drms profiling "
        "(8 threads, SPEC OMP)"
    )
    print_results(results)
    for name, w in results["workloads"].items():
        assert w["speedup"] > 1.0, name
    assert results["geomean_speedup"] >= MIN_SPEEDUP


if __name__ == "__main__":
    import sys

    print_results(run_suite(quick="--quick" in sys.argv))
