"""The repository benchmark: record -> encode -> decode -> fuse -> kernel
-> merge -> sweep/service, end to end and layer by layer.

    python3 perfbench/run.py --workload fig4_replay --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` is a separate run that gives per-layer self times: it
spends the first 40% of ``--seconds`` untraced and the rest traced, so
the two halves give the tracing overhead.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the line before it is a JSON report with the host facts,
the health check and the sample counts.  The exit code is 1 when any
op's output differs from its reference, 2 when the run cannot start.

Timings are divided by the host slowdown that a fixed probe measures
between rounds (speed.py), so they read as seconds on the quiet
reference host; the report line has the raw figures and the slowdown.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import host  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from layers import LayerTrace  # noqa: E402
from workloads import TOOL_NAMES, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
UNTRACED_SHARE = 0.4
DISPATCH_PROBES = 21


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def setup_probe(args) -> float:
    """Run the workload's setup in a fresh interpreter; its own clock
    from its first statement to the end of setup."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
    ]
    out = subprocess.run(cmd, cwd=os.getcwd(), capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed: {out.stderr.strip()[-400:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(workload, seconds, trace, probe, first_index=0):
    """Whole rounds until ``seconds`` of wall time have passed, with
    host speed probes between them (outside the round walls).

    Returns ``(wall, ops, slowdown)`` per round.  A round's slowdown is
    the median of the probes around it: the last one before it and the
    next one or two after it, so an episode that starts or ends inside
    the run is matched round by round.
    """
    done = []  # (wall, ops, probes taken before the round)
    start = time.perf_counter()
    probe.sample()
    while time.perf_counter() - start < seconds:
        before = len(probe.samples)
        wall, ops = workload.round(first_index + len(done), trace)
        done.append((wall, ops, before))
        probe.after_round(wall)
    probe.sample()
    rates = probe.samples
    return [
        (wall, ops, probe.slowdown(rates[before - 1 : before + 2]))
        for wall, ops, before in done
    ]


def end_to_end(workload, rounds, setups, rss_mb):
    """Timings are divided by their round's host slowdown (speed.py);
    the setup walls, taken just before, by the run's median slowdown."""
    ops = [(op, slow) for _, ops, slow in rounds for op in ops]
    kept = [(op.latency, slow) for op, slow in ops if op.sampled and op.ok]
    samples = [latency / slow for latency, slow in kept]
    raw = [latency for latency, _ in kept]
    events = sum(op.events for op, _ in ops if op.ok)
    wall = sum(w for w, _, _ in rounds)
    host_wall = sum(w / slow for w, _, slow in rounds)
    tail, beyond = nearest_rank(samples, workload.tail_pct) if samples else (0.0, 0)
    slowdown = median_slowdown(rounds)
    metrics = {
        "setup_s": (statistics.median(setups) / slowdown, "s"),
        "events_per_s": (events / host_wall if host_wall else 0.0, "1/s"),
        "op_p50_s": (statistics.median(samples) if samples else 0.0, "s"),
        "op_tail_s": (tail, "s"),
        "bytes_per_event": (workload.bytes_per_event, "B/event"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {
        "samples": len(samples),
        "tail_pct": workload.tail_pct,
        "tail_samples_beyond": beyond,
        "host_slowdown": slowdown,
        "setup_samples_s": setups,
        "raw_wall": {
            "setup_s": statistics.median(setups),
            "events_per_s": events / wall if wall else 0.0,
            "op_p50_s": statistics.median(raw) if raw else 0.0,
            "op_tail_s": nearest_rank(raw, workload.tail_pct)[0] if raw else 0.0,
        },
    }
    return metrics, info


def median_slowdown(rounds) -> float:
    return statistics.median(slow for _, _, slow in rounds)


def per_layer(workload, trace, traced, untraced, dispatch_s, pool_delta, leaked):
    """Layer figures of the ``traced`` rounds."""
    self_s, counts = trace.totals()
    n = max(sum(len(ops) for _, ops, _ in traced), 1)
    traced_wall = sum(w for w, _, _ in traced)

    def s(layer):
        return self_s.get(layer, 0.0) / n

    def c(key):
        return counts.get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    kernel_s = self_s.get("kernel.drms", 0.0) + self_s.get("kernel.rms", 0.0)
    replays = c("partition.replays")
    lookups = c("store.hits") + c("store.misses")
    out = {
        "vm.record_s": (s("vm.record"), "s/op"),
        "vm.native_s": (s("vm.native"), "s/op"),
        "vm.events_per_s": (ratio(c("vm.events"), self_s.get("vm.record", 0.0)), "1/s"),
        "codec.encode_s": (s("codec.encode"), "s/op"),
        "codec.bytes_per_event": (ratio(c("codec.bytes"), c("codec.events")), "B/event"),
        "tracefile.decode_s": (s("tracefile.decode"), "s/op"),
        "tracefile.plan_s": (s("tracefile.plan"), "s/op"),
        "tracefile.decode_stall_s": (c("tracefile.decode_stall_s") / n, "s/op"),
        "tracefile.backpressure_s": (c("tracefile.backpressure_s") / n, "s/op"),
        "events.fuse_s": (s("events.fuse"), "s/op"),
        "events.fused_fraction": (ratio(c("events.covered"), c("events.in")), "ratio"),
        "kernel.drms_s": (s("kernel.drms"), "s/op"),
        "kernel.rms_s": (s("kernel.rms"), "s/op"),
        "kernel.events_per_s": (ratio(c("kernel.events"), kernel_s), "1/s"),
        "partition.self_s": (s("partition"), "s/op"),
        "partition.count": (ratio(c("partition.count"), replays), "count"),
        "partition.imbalance": (ratio(c("partition.imbalance"), replays), "ratio"),
        "partition.replay_max_s": (c("partition.replay_max_s") / n, "s/op"),
        "partition.merge_s": (c("partition.merge_s") / n, "s/op"),
        "partition.cold_reads_reclassified": (
            c("partition.cold_reads_reclassified") / n,
            "count/op",
        ),
        "pool.dispatch_s": (dispatch_s, "s"),
        "pool.submit_s": (s("pool.submit"), "s/op"),
        "pool.wait_s": (s("pool.wait"), "s/op"),
        "pool.shm_transfer_s": (s("pool.shm"), "s/op"),
        "pool.tasks": (pool_delta["tasks"] / n, "count/op"),
        "pool.tasks_reused_ratio": (
            ratio(pool_delta["tasks_reused"], pool_delta["tasks"]),
            "ratio",
        ),
        "pool.spawns": (pool_delta["spawns"], "count"),
        "pool.respawns_broken": (pool_delta["respawns_broken"], "count"),
        "shm.segments_leaked": (leaked, "count"),
        "store.put_s": (s("store.put"), "s/op"),
        "store.get_s": (s("store.get"), "s/op"),
        "store.shard_put_s": (s("store.shard_put"), "s/op"),
        "store.shard_get_s": (s("store.shard_get"), "s/op"),
        "store.meta_s": (s("store.meta"), "s/op"),
        "store.bytes_written": (c("store.bytes_written") / n, "B/op"),
        "store.hit_rate": (ratio(c("store.hits"), lookups), "ratio"),
        "store.corrupt": (0.0, "count"),
        "sweep.cell_s": (s("sweep.cell"), "s/op"),
        "sweep.merge_s": (s("sweep"), "s/op"),
        "sweep.degradations": (0.0, "count"),
        "sweep.warm_sweep_s": (0.0, "s"),
        "service.submit_s": (s("service.submit"), "s/op"),
        "service.lease_s": (s("service.lease"), "s/op"),
        "service.complete_s": (s("service.complete"), "s/op"),
        "service.journal_s": (s("service.journal"), "s/op"),
        "service.journal_appends": (c("service.journal_appends") / n, "count/op"),
        "service.journal_bytes": (c("service.journal_bytes") / n, "B/op"),
        "service.poll_wait_s": (0.0, "s/op"),
        "trace.overhead_ratio": (
            ratio(
                statistics.median(w / slow for w, _, slow in traced),
                statistics.median(w / slow for w, _, slow in untraced),
            ),
            "ratio",
        ),
        "host.slowdown": (median_slowdown(traced), "ratio"),
        "trace.coverage": (1.0 - ratio(self_s.get("op", 0.0), traced_wall), "ratio"),
        "tools.excluded": (0.0, "count"),
        **{f"tools.{tool}_s": (0.0, "s/op") for tool in TOOL_NAMES},
    }
    # figures the workload's own results report (tool replay times, ...)
    for key, value in workload.layer_extras().items():
        out[key] = (value, out[key][1])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workers = host.usable_cpus()
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    probe = None
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](args.seed, workdir, workers).setup()
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0
        start = time.perf_counter()
        probe = SpeedProbe(workers)  # forked before the program's pool
        excluded = time.perf_counter() - start  # kept out of setup_s
        return measure(args, workers, workdir, probe, excluded)
    finally:
        if probe is not None:
            probe.close()
        host.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def measure(args, workers, workdir, probe, excluded) -> int:
    from repro.tools.pool import active_segments, pool_stats

    shm_before = host.shm_entries()
    start = time.perf_counter()
    setups = [] if args.trace else [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    excluded += time.perf_counter() - start

    trace = None
    if args.trace:
        trace = LayerTrace(workdir)
        trace.install()
    workload = WORKLOADS[args.workload](args.seed, workdir, workers)
    workload.setup()
    setups.append(time.perf_counter() - T0 - excluded)
    workload.prepare_references()

    ticks_before = host.cpu_ticks()
    if trace is None:
        pool_before = pool_stats()
        rounds = run_rounds(workload, args.seconds, None, probe)
    else:
        untraced = run_rounds(workload, args.seconds * UNTRACED_SHARE, None, probe)
        pool_before = pool_stats()
        trace.enable()
        traced = run_rounds(
            workload, args.seconds * (1 - UNTRACED_SHARE), trace, probe, len(untraced)
        )
        trace.disable()
        rounds = untraced + traced
    pool_after = pool_stats()
    ticks_after = host.cpu_ticks()
    ticks = ticks_after[1] - ticks_before[1]
    steal_share = (ticks_after[0] - ticks_before[0]) / ticks if ticks else 0.0
    dispatch_s = 0.0
    if trace is not None:
        from repro.tools.pool import get_pool

        pool = get_pool()
        trips = []
        for _ in range(DISPATCH_PROBES):
            start = time.perf_counter()
            pool.submit(os.getpid).result()
            trips.append(time.perf_counter() - start)
        dispatch_s = statistics.median(trips)

    rss_mb = host.peak_rss_mb()
    leaked = active_segments()
    probe.close()
    killed = host.stop_children()
    leaked += len(host.shm_entries() - shm_before)

    ops = [op for _, ops, _ in rounds for op in ops]
    failed = sum(1 for op in ops if not op.ok)
    degraded = sum(1 for op in ops if op.degraded)
    delta = {k: pool_after[k] - pool_before[k] for k in pool_after}
    if trace is None:
        metrics, info = end_to_end(workload, rounds, setups, rss_mb)
    else:
        trace.fold_worker_dumps()
        trace.restore()
        metrics = per_layer(workload, trace, traced, untraced, dispatch_s, delta, leaked)
        metrics["health.degraded_share"] = (degraded / len(ops), "ratio")
        info = {"untraced_rounds": len(untraced), "traced_rounds": len(traced)}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "facts": host.host_facts(workers),
        "input": workload.input_size,
        "host_steal_share": steal_share,
        "rounds": len(rounds),
        "attempted": len(ops),
        "failed_share": failed / len(ops),
        "degraded_share": degraded / len(ops),
        "health": {
            "shm_segments_leaked": leaked,
            "pool_respawns_broken": delta["respawns_broken"],
            "processes_killed": killed,
        },
        **info,
    }
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
