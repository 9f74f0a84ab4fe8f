"""Partitioned replay throughput — intra-trace parallel replay over
section boundaries vs serial streaming replay.

The point of the partition engine (PR 6): on a large multi-run Figure 4
trace (the ``mysql_select`` workload concatenated so every run start is
a safe depth-zero section boundary), ``replay_partitioned`` with **2
workers** must reach at least **1.4x** the events/second of the serial
streaming replay of the identical bytes, and throughput must stay
monotone non-decreasing through 4 workers.

PR 9 adds the **monolithic** variant: the same trace wrapped in one
outer activation, so no depth-zero boundary exists and every cut is a
per-thread mid-activation carry — the plan must still go multi-way
(>= 2 partitions from 2 workers up, a CPU-independent gate) with the
merged profile byte-exact, and at 2 workers it must beat serial where
the cores exist.

Then the transfer claims.  With the compact encoding the payload
must stay at or under **8 bytes/event**; with the persistent warm
pool, the 2-worker replay must be at least **1.0x** serial *even on
a single-CPU box* — the historical failure mode was fork + pickle
overhead making parallel replay a net loss there, and the whole
point of warm workers shipping compact byte ranges is that the
overhead is gone.  The artifact also carries a ``components``
decomposition of where a partitioned replay's time goes:
``dispatch`` (warm-pool task round-trip), ``transfer`` (each
partition's shipped subrange, sliced and pickled there and back),
``decode`` (bytes to the replay batches of stored fused sections),
``replay`` (batches to profile), and ``merge`` (shard fold), so a regression in any one layer is visible in
isolation rather than smeared across the curve.

A row's ``workers`` is the round's slot count, not its process count:
the parent replays one partition itself, so ``N`` workers means the
parent plus ``N - 1`` pool processes (the artifact's ``pool`` block
reports 7 workers after the 8-worker row).

The remaining speedup gates need real cores: with one CPU the pool
serialises onto one core and pure speedup cannot exceed ~1.  The suite
therefore always records the full 1/2/4/8-worker curve but enforces
each multi-core speedup gate only when ``os.cpu_count()`` can express
it (the ``gated`` flag in the artifact says which applied); CI runs
this on multi-core runners where the gates are live.  Exactness — the
merged profile byte-equal to the serial one — is CPU-independent and
always enforced, as are the 1.0x warm-pool floor and the
bytes-per-event ceiling.

Results are written to ``BENCH_partition.json`` at the repo root so the
README performance table and CI can track the curve.  Also runnable
directly: ``PYTHONPATH=src python benchmarks/bench_partition.py``
(``--quick`` for the smoke variant).
"""

import gc
import json
import os
import pickle
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.core import DrmsProfiler, FULL_POLICY
from repro.core.events import Call, Return, SwitchThread, encode_events
from repro.core.tracing import with_switches
from repro.tools.partition import iter_replay_batches, replay_partitioned
from repro.workloads.registry import get_workload

WORKLOAD = "mysql_select"  # the Figure 4 workload
RUNS = 512
QUICK_RUNS = 128
WORKER_COUNTS = (1, 2, 4, 8)
MIN_SPEEDUP_AT_2 = 1.4
#: warm pool: 2-worker partitioned replay must never lose to serial,
#: even on a single-CPU box — enforced unconditionally, within the
#: suite's MONOTONE_TOLERANCE noise band (on one CPU the engine replays
#: partitions inline, so the true ratio is ~1.0 and the tolerance
#: absorbs scheduler noise, not a real regression)
MIN_WARM_SPEEDUP_AT_2 = 1.0
#: and must show real speedup wherever a second core exists (the
#: boundary-cut curve's 1.4x gate above subsumes this, but the floor is
#: asserted by name so the claim survives any future retuning)
MIN_WARM_SPEEDUP_AT_2_MULTICORE = 1.3
#: compact fused section encoding: the multi-run Figure 4 payload must
#: stay at or under this many stored bytes per event
MAX_BYTES_PER_EVENT = 8.0
#: per-thread carries cost seeding + fix-up work, so the monolithic
#: trace gets a softer 2-worker gate than the boundary-cut one
MIN_MONO_SPEEDUP_AT_2 = 1.2
#: monotonicity is asserted with a small tolerance so scheduler noise
#: on a busy runner cannot fail an otherwise-flat step
MONOTONE_TOLERANCE = 0.95
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_partition.json"


def build_payload(runs, monolithic=False):
    """Record one Figure 4 run and concatenate it ``runs`` times into a
    multi-run trace whose every run start is a depth-zero section
    boundary (``to_bytes(boundaries=...)``), i.e. a safe cut point.

    With ``monolithic=True`` the concatenation is instead wrapped in a
    single outer activation on thread 1: no depth-zero boundary exists
    anywhere inside, so every cut the planner makes is a per-thread
    mid-activation carry (PR 9)."""
    machine = get_workload(WORKLOAD).build(threads=4, scale=2)
    machine.run()
    run = with_switches(machine.trace)
    events, bounds = [], []
    for _ in range(runs):
        if events:
            bounds.append(len(events))
            events.append(SwitchThread())
        events.extend(run)
    if monolithic:
        raw = [e for e in events if not isinstance(e, SwitchThread)]
        events = with_switches(
            [Call(1, "bench_outer", 1)] + raw + [Return(1, 2)]
        )
        bounds = []
    batch = encode_events(events)
    payload = batch.to_bytes(boundaries=bounds)
    n = len(batch)
    # Drop the event objects before anything forks: a slim parent heap
    # keeps the pool's fork + copy-on-write cost out of the timed region.
    del events, batch, machine, run
    gc.collect()
    return payload, n


def serial_replay(payload):
    """Bytes-to-profile streaming replay — the same section decoder,
    replay batches and inline columnar kernel each partition worker
    runs, minus the partitioning.  The stored sections already carry
    their run superops, so nothing is fused here."""
    profiler = DrmsProfiler(policy=FULL_POLICY, keep_activations=False)
    for batch in iter_replay_batches(payload):
        profiler.consume_columnar(batch)
    profiler.begin_trace()
    return profiler


def _median(run, repeats):
    """One untimed warm-up, then median of ``repeats`` timings."""
    run()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _interleaved(runs_map, repeats):
    """One untimed warm-up each, then ``repeats`` rounds timing every
    config back-to-back; best-of per config.

    Speedup ratios computed from a serial baseline measured minutes
    apart are dominated by background-load drift on a shared box; a
    round-robin schedule exposes every config to the same drift, and
    the minimum is the least-interfered sample."""
    for run in runs_map.values():
        run()
    times = {name: [] for name in runs_map}
    for _ in range(repeats):
        for name, run in runs_map.items():
            # every config starts from the same collected heap — GC
            # debt from the previous config must not bill to this one
            gc.collect()
            start = time.perf_counter()
            run()
            times[name].append(time.perf_counter() - start)
    return {name: min(samples) for name, samples in times.items()}


def decompose(payload, repeats, merge_time):
    """Break one partitioned replay into its cost components, each
    measured in isolation on the same payload: where does the wall
    time actually go?

    ``merge`` is not re-measured — the 2-worker curve row already timed
    the real shard fold, and folding the same shards twice would merge
    into already-merged profilers."""
    from repro.core.tracefile import plan_partitions
    from repro.tools.partition import _subrange_payload
    from repro.tools.pool import get_pool

    comps = {}
    pool = get_pool()
    pool.ensure(2)

    def dispatch():
        # Warm-pool round-trip of two no-op tasks: pure scheduling +
        # IPC latency, zero payload.
        for future in [pool.submit(os.getpid) for _ in range(2)]:
            future.result()

    comps["dispatch"] = _median(dispatch, repeats)

    parts = plan_partitions(payload, 2).partitions
    body_start = parts[0].start

    def transfer():
        # What the 2-worker tasks ship: each partition's subrange
        # (trace header + its sections) through a pickle round trip.
        for part in parts:
            shipped = _subrange_payload(payload, part, body_start)
            pickle.loads(pickle.dumps(shipped, pickle.HIGHEST_PROTOCOL))

    comps["transfer"] = _median(transfer, repeats)

    def decode():
        for _batch in iter_replay_batches(payload):
            pass

    comps["decode"] = _median(decode, repeats)

    batches = list(iter_replay_batches(payload))

    def replay():
        profiler = DrmsProfiler(policy=FULL_POLICY, keep_activations=False)
        for batch in batches:
            profiler.consume_columnar(batch)
        profiler.begin_trace()

    comps["replay"] = _median(replay, repeats)
    del batches
    gc.collect()
    comps["merge"] = merge_time
    return comps


def run_suite(quick=False):
    runs = QUICK_RUNS if quick else RUNS
    repeats = 2 if quick else 3
    cpus = os.cpu_count() or 1
    payload, events = build_payload(runs)

    state = {}

    def serial():
        profiler = serial_replay(payload)
        state["serial"] = profiler.metrics_snapshot()

    def make_partitioned(src, workers, key):
        # Keep only a slim summary row alive between runs: a full
        # PartitionedReplay per config would grow the shared heap as
        # the interleaved round proceeds and bill the growth to
        # whichever config runs last.
        def run():
            rep = replay_partitioned(
                src,
                partitions=workers,
                kinds=("drms",),
                workers=workers,
            )
            state[key] = {
                "partitions": len(rep.plan.partitions),
                "carried": rep.plan.carried,
                "imbalance": rep.plan.imbalance,
                "merge_time": rep.merge_time,
                "cold_reads_reclassified": rep.cold_reads_reclassified,
                "degradations": len(rep.degradations),
                "snapshot": rep.profilers["drms"].metrics_snapshot(),
            }

        return run

    runs_map = {"serial": serial}
    for workers in WORKER_COUNTS:
        runs_map[workers] = make_partitioned(payload, workers, workers)
    best = _interleaved(runs_map, repeats)
    serial_time = best["serial"]
    baseline = state["serial"]

    curve = []
    for workers in WORKER_COUNTS:
        row = state[workers]
        elapsed = best[workers]
        curve.append(
            {
                "workers": workers,
                "partitions": row["partitions"],
                "imbalance": row["imbalance"],
                "time": elapsed,
                "events_per_sec": events / elapsed,
                "speedup_vs_serial": serial_time / elapsed,
                "merge_time": row["merge_time"],
                "degradations": row["degradations"],
                "exact": row["snapshot"] == baseline,
            }
        )

    # -- monolithic trace: per-thread cuts (PR 9) ---------------------
    mono_runs = max(runs // 4, 8)
    mono_payload, mono_events = build_payload(mono_runs, monolithic=True)

    def mono_serial():
        profiler = serial_replay(mono_payload)
        state["mono_serial"] = profiler.metrics_snapshot()

    mono_map = {"serial": mono_serial}
    for workers in WORKER_COUNTS:
        mono_map[workers] = make_partitioned(
            mono_payload, workers, ("mono", workers)
        )
    mono_best = _interleaved(mono_map, repeats)
    mono_serial_time = mono_best["serial"]
    mono_baseline = state["mono_serial"]
    mono_curve = []
    for workers in WORKER_COUNTS:
        row = state[("mono", workers)]
        elapsed = mono_best[workers]
        mono_curve.append(
            {
                "workers": workers,
                "partitions": row["partitions"],
                "carried": row["carried"],
                "imbalance": row["imbalance"],
                "time": elapsed,
                "events_per_sec": mono_events / elapsed,
                "speedup_vs_serial": mono_serial_time / elapsed,
                "merge_time": row["merge_time"],
                "cold_reads_reclassified": row["cold_reads_reclassified"],
                "degradations": row["degradations"],
                "exact": row["snapshot"] == mono_baseline,
            }
        )

    by_workers = {row["workers"]: row for row in curve}
    components = decompose(
        payload, repeats, by_workers[2]["merge_time"]
    )

    from repro.tools.pool import pool_stats

    results = {
        "workload": WORKLOAD,
        "figure": "fig4 (multi-run)",
        "runs": runs,
        "events": events,
        "payload_bytes": len(payload),
        "bytes_per_event": len(payload) / events,
        "max_bytes_per_event": MAX_BYTES_PER_EVENT,
        "components": components,
        "pool": pool_stats(),
        "quick": quick,
        "repeats": repeats,
        "timing": "median of repeats after one untimed warm-up",
        "workers_note": "N workers = the parent plus N - 1 pool processes",
        "cpu_count": cpus,
        "gated": cpus >= 2,
        "min_required_speedup_at_2": MIN_SPEEDUP_AT_2,
        "min_warm_speedup_at_2": MIN_WARM_SPEEDUP_AT_2,
        "min_warm_speedup_at_2_multicore": MIN_WARM_SPEEDUP_AT_2_MULTICORE,
        "monotone_tolerance": MONOTONE_TOLERANCE,
        "min_required_mono_speedup_at_2": MIN_MONO_SPEEDUP_AT_2,
        "serial": {
            "time": serial_time,
            "events_per_sec": events / serial_time,
        },
        "curve": curve,
        "monolithic": {
            "runs": mono_runs,
            "events": mono_events,
            "payload_bytes": len(mono_payload),
            "serial": {
                "time": mono_serial_time,
                "events_per_sec": mono_events / mono_serial_time,
            },
            "curve": mono_curve,
        },
        "python": sys.version,
        "platform": platform.platform(),
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def check_gates(results):
    """Exactness always; each speedup gate only where the host has the
    cores to express it (see module docstring)."""
    by_workers = {row["workers"]: row for row in results["curve"]}
    for row in results["curve"]:
        assert row["exact"], f"{row['workers']}-worker merge not exact"
        assert row["degradations"] == 0, row
        assert row["partitions"] == row["workers"], row
    # transfer claims, enforced on every box including 1-CPU CI:
    # the compact encoding holds its byte budget, and the warm pool
    # keeps 2-worker replay from ever losing to serial
    assert results["bytes_per_event"] <= MAX_BYTES_PER_EVENT, (
        f"payload {results['bytes_per_event']:.2f} B/event exceeds "
        f"{MAX_BYTES_PER_EVENT} B/event budget"
    )
    # parity is asserted within the same noise tolerance the
    # monotonicity gates use: on a busy runner two byte-identical
    # serial replays already differ by +/-5%, so a strict >= 1.0 on a
    # true ratio of ~1.0 would be a coin flip, not a gate
    warm_floor = MIN_WARM_SPEEDUP_AT_2 * MONOTONE_TOLERANCE
    assert by_workers[2]["speedup_vs_serial"] >= warm_floor, (
        f"warm-pool 2-worker replay lost to serial beyond noise: "
        f"{by_workers[2]['speedup_vs_serial']:.2f}x < {warm_floor:.2f}x"
    )
    cpus = results["cpu_count"]
    if cpus >= 2:
        assert (
            by_workers[2]["speedup_vs_serial"]
            >= MIN_WARM_SPEEDUP_AT_2_MULTICORE
        )
        assert by_workers[2]["speedup_vs_serial"] >= MIN_SPEEDUP_AT_2
    for step in (2, 4):
        if cpus >= step:
            assert (
                by_workers[step]["events_per_sec"]
                >= MONOTONE_TOLERANCE
                * by_workers[step // 2]["events_per_sec"]
            ), f"throughput regressed from {step // 2} to {step} workers"

    # monolithic trace: the multi-way plan itself is CPU-independent —
    # per-thread cuts must split what PR 6 could not
    mono = {row["workers"]: row for row in results["monolithic"]["curve"]}
    for row in results["monolithic"]["curve"]:
        assert row["exact"], (
            f"monolithic {row['workers']}-worker merge not exact"
        )
        assert row["degradations"] == 0, row
        if row["workers"] >= 2:
            assert row["partitions"] >= 2, row
            assert row["carried"] > 0, row
    if cpus >= 2:
        assert mono[2]["speedup_vs_serial"] >= MIN_MONO_SPEEDUP_AT_2


def print_results(results):
    serial = results["serial"]
    print(
        f"{results['runs']}-run {results['workload']} trace: "
        f"{results['events']} events, "
        f"{results['payload_bytes'] / 1e6:.1f} MB "
        f"({results['bytes_per_event']:.2f} B/event), "
        f"{results['cpu_count']} CPU(s) "
        f"({'all gates live' if results['gated'] else 'multi-core gates skipped'})"
    )
    comps = results["components"]
    print(
        "components: "
        + ", ".join(f"{k} {v * 1e3:.1f}ms" for k, v in comps.items())
    )
    pool = results["pool"]
    print(
        f"pool: {pool['workers']} worker(s), {pool['tasks']} task(s), "
        f"{pool['tasks_reused']} reused on warm workers"
    )
    print(
        f"{'config':>10} {'time':>8} {'events/s':>12} {'speedup':>8} "
        f"{'exact':>6}"
    )
    print(
        f"{'serial':>10} {serial['time']:>7.2f}s "
        f"{serial['events_per_sec']:>12,.0f} {'1.00x':>8} {'yes':>6}"
    )
    for row in results["curve"]:
        print(
            f"{row['workers']:>8}-w {row['time']:>7.2f}s "
            f"{row['events_per_sec']:>12,.0f} "
            f"{row['speedup_vs_serial']:>7.2f}x "
            f"{'yes' if row['exact'] else 'NO':>6}"
        )
    mono = results["monolithic"]
    print(
        f"monolithic trace ({mono['runs']} runs, {mono['events']} events, "
        f"per-thread cuts): serial {mono['serial']['time']:.2f}s"
    )
    for row in mono["curve"]:
        print(
            f"{row['workers']:>8}-w {row['time']:>7.2f}s "
            f"{row['events_per_sec']:>12,.0f} "
            f"{row['speedup_vs_serial']:>7.2f}x "
            f"{row['partitions']:>3}p/{row['carried']}c "
            f"{'yes' if row['exact'] else 'NO':>6}"
        )
    print(f"(written to {RESULT_PATH.name})")


def test_partitioned_replay_throughput(benchmark):
    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    results = benchmark.pedantic(
        lambda: run_suite(quick=quick), rounds=1, iterations=1
    )
    from _support import print_banner

    print_banner(
        "Partition: intra-trace parallel replay vs serial streaming"
    )
    print_results(results)
    check_gates(results)


if __name__ == "__main__":
    suite = run_suite(quick="--quick" in sys.argv)
    print_results(suite)
    check_gates(suite)
