"""Sweep cache — warm (cached) sweeps vs cold (recording) sweeps.

The point of the content-addressed trace store: rerunning the demo
workload × tool × scale matrix against a populated store must be at
least **3x** faster than the recording run, with a 100% cache hit rate.
Cold runs pay VM execution, trace encoding and replay measurement per
cell; warm runs scan the cached crash-safe trace, decode the stored
profiler shards and reuse the stored per-tool measurements.

Results are written to ``BENCH_sweep.json`` at the repo root so the
README performance table and CI can track the ratio.  Also runnable
directly: ``PYTHONPATH=src python benchmarks/bench_sweep.py``
(``--quick`` for the CI smoke variant).
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.sweep import SweepConfig, run_sweep

WORKLOADS = ("producer_consumer", "stream_reader", "selection_sort")
SCALES = (1, 2, 3)
MIN_SPEEDUP = 3.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def timed_sweep(config):
    start = time.perf_counter()
    result = run_sweep(config)
    return time.perf_counter() - start, result


def measure_pair(workloads, scales):
    """One cold sweep into a fresh store, then one warm sweep over it."""
    root = tempfile.mkdtemp(prefix="repro-bench-sweep-")
    try:
        config = SweepConfig(
            workloads=workloads,
            scales=scales,
            store_root=os.path.join(root, "store"),
            repeats=1,
        )
        cold_wall, cold = timed_sweep(config)
        warm_wall, warm = timed_sweep(config)
        assert cold.cache_stats()["hit_rate"] == 0.0
        assert warm.cache_stats()["hit_rate"] == 1.0
        shard_bytes = {
            f"{p['cell'].workload}@s{p['cell'].scale}": dict(p["shard_bytes"])
            for p in warm.cells
        }
        return cold_wall, warm_wall, cold, warm, shard_bytes
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_suite(quick=False):
    repeats = 1 if quick else 3
    scales = SCALES[:2] if quick else SCALES
    # Best-of interleaved pairs: each pair starts from a fresh store so
    # the cold side really records; scheduler noise hits both sides.
    cold_wall = warm_wall = float("inf")
    cold = warm = shard_bytes = None
    for _ in range(repeats):
        c_wall, w_wall, c, w, bytes_now = measure_pair(WORKLOADS, scales)
        if c_wall < cold_wall:
            cold, shard_bytes = c, bytes_now
        cold_wall = min(cold_wall, c_wall)
        if w_wall < warm_wall:
            warm = w
        warm_wall = min(warm_wall, w_wall)
    results = {
        "suite": "micro",
        "workloads": list(WORKLOADS),
        "scales": list(scales),
        "cells": len(cold.cells),
        "repeats": repeats,
        "quick": quick,
        "cold_wall": cold_wall,
        "warm_wall": warm_wall,
        "speedup": cold_wall / warm_wall,
        "cold_hit_rate": cold.cache_stats()["hit_rate"],
        "warm_hit_rate": warm.cache_stats()["hit_rate"],
        "shard_bytes": shard_bytes,
        "min_required_speedup": MIN_SPEEDUP,
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def print_results(results):
    print(
        f"{results['cells']} cells over {len(results['workloads'])} "
        f"workload(s) x scales {results['scales']}"
    )
    print(
        f"cold sweep: {results['cold_wall'] * 1e3:8.1f} ms "
        f"(hit rate {results['cold_hit_rate']:.0%})"
    )
    print(
        f"warm sweep: {results['warm_wall'] * 1e3:8.1f} ms "
        f"(hit rate {results['warm_hit_rate']:.0%})"
    )
    print(
        f"speedup: {results['speedup']:.2f}x "
        f"(written to {RESULT_PATH.name})"
    )


def test_warm_sweep_speedup(benchmark):
    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    results = benchmark.pedantic(
        lambda: run_suite(quick=quick), rounds=1, iterations=1
    )
    from _support import print_banner

    print_banner("Sweep cache: warm (cached) vs cold (recording) matrix")
    print_results(results)
    assert results["warm_hit_rate"] == 1.0
    assert results["speedup"] >= MIN_SPEEDUP


if __name__ == "__main__":
    import sys

    print_results(run_suite(quick="--quick" in sys.argv))
