"""Command-line interface: ``repro`` (or ``python -m repro``).

Subcommands:

* ``repro list`` — registered workloads, by suite.
* ``repro profile WORKLOAD`` — run a workload and print per-routine
  performance points under the chosen metric, with fitted cost models.
* ``repro characterize WORKLOAD`` — the Section 4.2 workload metrics:
  input volume, richness, thread/external split.
* ``repro overhead`` — the Table 1 tool-comparison harness.
* ``repro communicate WORKLOAD`` — the routine-granularity shared-memory
  communication matrix (the paper's Section 6 future-work tool).
* ``repro report WORKLOAD`` — everything at once: profiles, fits,
  metrics, diagnostics and communication channels.
* ``repro trace WORKLOAD`` — dump or save the event trace (text or
  binary).
* ``repro diagnose WORKLOAD`` — cost-variance diagnostics: routines whose
  measured input sizes look untrustworthy (Section 2.1's indicator).
* ``repro doctor --trace PATH`` — integrity-check a binary trace and
  optionally recover its longest valid prefix.
* ``repro doctor --store DIR`` — audit a whole trace store (corrupt
  entries, orphaned shards, stale version tags); ``--recover``
  quarantines every bad file so reruns see clean misses.
* ``repro serve`` — the crash-safe sweep service: journaled
  coordinator + leased worker processes over one trace store.
* ``repro submit`` — send a sweep job to a running coordinator,
  optionally waiting for completion (exit 0 complete / 3 degraded).
* ``repro jobs`` — inspect a live coordinator over HTTP, or replay a
  journal offline for post-mortem job state.
* ``repro trace-export --job ID`` — merge a job's per-process span
  sidecars (coordinator, workers, partition processes) into one
  Perfetto-viewable Chrome trace, clocks aligned via the lease-time
  handshake.
* ``repro top --url URL`` — live terminal view of a running
  coordinator: per-worker lease state, rates from counter deltas,
  retry counters, histogram p50/p99.
* ``repro stats WORKLOAD`` — run a workload under full telemetry and
  print the metrics registry (table, ``--json`` or ``--prom``
  Prometheus text), optionally saving a Perfetto-viewable span timeline
  with ``--trace-out``.
* ``repro sweep`` — the workload×tool×scale matrix over a
  content-addressed trace store: record once, replay from cache, merge
  per-scale profile shards into per-routine cost models.

All ``--json`` outputs are strict JSON: non-finite floats (e.g. the
``nan`` exponent of a degenerate cost trend) are serialised as
``null``, never as the invalid ``NaN`` literal.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.communication import analyze_communication
from repro.analysis.costfunc import best_fit
from repro.analysis.metrics import (
    dynamic_input_volume,
    induced_first_read_split,
    profile_richness,
    routine_input_shares,
)
from repro.core import (
    EXTERNAL_ONLY_POLICY,
    FULL_POLICY,
    RMS_POLICY,
    profile_events,
)
from repro.core.events import describe
from repro.tools import (
    DEFAULT_ENGINE,
    DEFAULT_TOOLS,
    ENGINES,
    measure_workload,
    suite_summary,
)
from repro.workloads.registry import REGISTRY, SUITES, get_workload, suite

POLICIES = {
    "rms": RMS_POLICY,
    "drms": FULL_POLICY,
    "external": EXTERNAL_ONLY_POLICY,
}

# doctor prints a per-section salvage line; cap the listing so a huge
# multi-section trace doesn't flood the terminal.
_DOCTOR_SECTION_LIMIT = 20


def _run_workload(name: str, threads: int, scale: int, registry=None):
    machine = get_workload(name).build(threads=threads, scale=scale)
    if registry is not None:
        machine.enable_metrics(registry)
    machine.run()
    return machine


def _print_metrics(registry, stream=None) -> None:
    """Render a registry as an aligned table.

    Counters and gauges print as ``key  value`` rows; histograms are
    summarised as ``count / p50 / p90 / p99`` derived from their log2
    buckets instead of dumping raw per-bucket rows.
    """
    _print_flat_metrics(registry.as_dict(), stream=stream)


def _print_flat_metrics(data, stream=None) -> None:
    from repro.obs import histogram_summaries_from_flat

    if not data:
        print("(no metrics recorded)", file=stream)
        return
    summaries = histogram_summaries_from_flat(data, qs=(0.5, 0.9, 0.99))
    hidden = set()
    for base in summaries:
        name = base.split("{", 1)[0]
        labels = base[len(name):]
        inner = labels[1:-1] if labels else ""
        for key in data:
            key_name = key.split("{", 1)[0]
            if key_name in (name + "_count", name + "_sum") and (
                key.endswith(labels) if labels else "{" not in key
            ):
                hidden.add(key)
            elif key_name == name + "_bucket" and inner in key:
                hidden.add(key)
    scalars = {k: v for k, v in data.items() if k not in hidden}
    if scalars:
        width = max(len(key) for key in scalars)
        for key, value in scalars.items():
            print(f"{key:<{width}}  {value}", file=stream)
    if summaries:
        width = max(len(base) for base in summaries)
        print(
            f"{'-- histogram --':<{width}}  "
            f"{'count':>8}  {'p50':>10}  {'p90':>10}  {'p99':>10}",
            file=stream,
        )
        for base, row in sorted(summaries.items()):
            print(
                f"{base:<{width}}  {row['count']:>8}  "
                f"{row['p50']:>10.0f}  {row['p90']:>10.0f}  "
                f"{row['p99']:>10.0f}",
                file=stream,
            )


def _emit_registry(registry, args) -> None:
    """Shared ``--json`` / ``--prom`` / table output for a registry.

    Both flags take an optional FILE; bare ``--json`` / ``--prom``
    (or ``-``) write to stdout."""

    def write(text: str, dest: str, label: str) -> None:
        if dest == "-":
            sys.stdout.write(text)
        else:
            with open(dest, "w") as handle:
                handle.write(text)
            print(f"{label} written to {dest}", file=sys.stderr)

    if args.json is not None:
        from repro.core.serialize import dumps_strict

        payload = {
            "workload": args.workload,
            "threads": args.threads,
            "scale": args.scale,
            "metrics": registry.as_dict(),
        }
        write(dumps_strict(payload, indent=2) + "\n", args.json, "metrics JSON")
    if args.prom is not None:
        write(registry.to_prometheus(), args.prom, "Prometheus exposition")
    if args.json is None and args.prom is None:
        _print_metrics(registry)


def cmd_stats(args) -> int:
    """Run one workload under full telemetry and report the registry."""
    from repro.core.timestamping import DrmsProfiler
    from repro.obs import MetricsRegistry, SpanTracer

    name = args.workload_opt or args.workload
    if not name:
        print("stats: a workload is required (positional or --workload)",
              file=sys.stderr)
        return 2
    args.workload = name

    registry = MetricsRegistry()
    tracer = SpanTracer(process_name=f"repro stats {name}")
    with tracer.span("build", track="main", workload=name):
        machine = get_workload(name).build(
            threads=args.threads, scale=args.scale
        )
    if args.faults is not None:
        from repro.vm.faults import FaultPlan

        machine.set_fault_plan(FaultPlan(seed=args.faults))
    machine.enable_metrics(registry, tracer=tracer)
    profiler = DrmsProfiler(
        policy=POLICIES[args.metric],
        counter_limit=args.counter_limit,
        keep_activations=False,
        metrics=registry,
    )
    superops_fused = [0]
    trace_totals = {"bytes": 0, "events": 0}

    from repro.core.events import count_superops, fuse_batch, write_rows

    def stored_rows(batch):
        # Stats is the full-telemetry command: fold the stored wire size
        # of every batch into the encoding-efficiency gauge.  The rows
        # it stores are the rows the columnar engine replays.
        rows = fuse_batch(batch)
        trace_totals["bytes"] += len(write_rows(rows))
        trace_totals["events"] += len(batch)
        return rows

    if args.engine == "columnar":

        def sink(batch):
            rows = stored_rows(batch)
            superops_fused[0] += count_superops(rows)[0]
            profiler.consume_columnar(rows)

    else:

        def sink(batch):
            stored_rows(batch)
            consume = profiler.consume
            for event in batch.iter_events():
                consume(event)

    machine.set_batch_sink(sink)
    with tracer.span("run", track="main", workload=name):
        machine.run()
    with tracer.span("publish", track="main"):
        machine.publish_metrics(registry)
        profiler.publish_metrics(registry)
        registry.gauge("kernel.superops_fused").set(superops_fused[0])
        if trace_totals["events"]:
            registry.gauge("trace.bytes_per_event").set(
                round(trace_totals["bytes"] / trace_totals["events"], 3)
            )
        from repro.tools.pool import active_segments, pool_stats

        pstats = pool_stats()
        registry.gauge("pool.tasks_reused").set(pstats["tasks_reused"])
        registry.gauge("shm.segments_active").set(active_segments())
    _emit_registry(registry, args)
    if args.url:
        from urllib import error

        try:
            payload = _service_get(args.url, "/metrics.json")
        except (error.URLError, OSError) as exc:
            print(
                f"cannot reach coordinator at {args.url}: {exc}",
                file=sys.stderr,
            )
            return 1
        print(f"-- service metrics ({args.url}) --")
        _print_flat_metrics(payload.get("metrics", {}))
    if args.trace_out:
        tracer.save(args.trace_out)
        print(
            f"span trace written to {args.trace_out} "
            "(open in https://ui.perfetto.dev)",
            file=sys.stderr,
        )
    return 0


def cmd_list(_args) -> int:
    for tag in SUITES:
        print(f"{tag}:")
        for workload in suite(tag):
            print(f"  {workload.name}")
    return 0


def cmd_profile(args) -> int:
    machine = _run_workload(args.workload, args.threads, args.scale)
    report = profile_events(machine.trace, policy=POLICIES[args.metric])
    if args.json:
        from repro.core.serialize import dumps_report

        with open(args.json, "w") as handle:
            handle.write(dumps_report(report, indent=2))
        print(f"profile written to {args.json}", file=sys.stderr)
    merged = report.by_routine()
    names = [args.routine] if args.routine else sorted(merged)
    print(
        f"{args.workload}: {len(machine.trace)} events, "
        f"{machine.total_blocks} blocks, metric = {args.metric}"
    )
    for name in names:
        if name not in merged:
            print(f"  no profile for routine {name!r}", file=sys.stderr)
            return 1
        profile = merged[name]
        plot = profile.worst_case_plot()
        line = f"  {name}: calls={profile.calls} points={len(plot)}"
        if len(plot) >= 2:
            fit = best_fit(plot)
            line += f" fit={fit.model} (R^2={fit.r_squared:.3f})"
        print(line)
        if args.points:
            for size, cost in plot[: args.points]:
                print(f"      n={size:<10} worst-case cost={cost}")
    return 0


def cmd_characterize(args) -> int:
    machine = _run_workload(args.workload, args.threads, args.scale)
    drms_report = profile_events(machine.trace)
    rms_report = profile_events(machine.trace, policy=RMS_POLICY)
    thread_pct, external_pct = induced_first_read_split(drms_report)
    volume = dynamic_input_volume(rms_report, drms_report)
    richness = profile_richness(rms_report, drms_report)
    print(f"{args.workload}:")
    print(f"  dynamic input volume: {volume:.3f}")
    print(
        f"  induced first-reads: {thread_pct:.1f}% thread / "
        f"{external_pct:.1f}% external"
    )
    positive = {r: v for r, v in richness.items() if v > 0}
    print(f"  routines with positive profile richness: {len(positive)}")
    for routine, value in sorted(positive.items(), key=lambda kv: -kv[1])[:10]:
        print(f"    {routine}: +{value:.1f}")
    shares = routine_input_shares(drms_report)
    print("  top dynamic-input routines:")
    for share in shares[:10]:
        print(
            f"    {share.routine}: {share.thread_pct:.0f}% thread / "
            f"{share.external_pct:.0f}% external "
            f"({share.first_reads} first-reads)"
        )
    return 0


def cmd_overhead(args) -> int:
    names = [w.name for w in suite(args.suite)]
    if args.benchmarks:
        names = [n for n in names if n in args.benchmarks]
    if not names:
        print(
            f"no workloads in suite {args.suite!r} match"
            f" {args.benchmarks}",
            file=sys.stderr,
        )
        return 2

    def make_builder(workload):
        def build():
            machine = workload.build(threads=args.threads, scale=args.scale)
            if args.faults is not None:
                # A fresh plan per build: fault decisions are a pure
                # function of (seed, decision index), so every build
                # sees the identical fault schedule.
                from repro.vm.faults import FaultPlan

                machine.set_fault_plan(FaultPlan(seed=args.faults))
            return machine

        return build

    registry = None
    tracer = None
    if getattr(args, "metrics", False):
        from repro.obs import MetricsRegistry, SpanTracer

        registry = MetricsRegistry()
        tracer = SpanTracer(process_name=f"repro overhead {args.suite}")

    measurements = []
    for name in names:
        workload = get_workload(name)
        measurements.append(
            measure_workload(
                name,
                make_builder(workload),
                repeats=args.repeats,
                parallel=args.parallel,
                metrics=registry,
                tracer=tracer,
                engine=args.engine,
                partitions=args.partitions,
            )
        )
        print(f"  measured {name}", file=sys.stderr)
    try:
        summary = suite_summary(measurements)
    except ValueError as exc:
        print(f"overhead: {exc}", file=sys.stderr)
        return 1
    if args.json:
        from repro.core.serialize import dumps_strict

        payload = {
            "suite": args.suite,
            "threads": args.threads,
            "scale": args.scale,
            "repeats": args.repeats,
            "parallel": args.parallel,
            "faults": args.faults,
            "engine": args.engine,
            "partitions": args.partitions,
            "summary": summary,
            "excluded": sorted(
                {t for m in measurements for t in m.excluded_tools}
            ),
            "workloads": [
                {
                    "workload": m.workload,
                    "native_time": m.native_time,
                    "native_cells": m.native_cells,
                    "record_time": m.record_time,
                    "trace_events": m.trace_events,
                    "trace_bytes": m.trace_bytes,
                    "bytes_per_event": (
                        round(m.trace_bytes / m.trace_events, 3)
                        if m.trace_bytes and m.trace_events
                        else None
                    ),
                    "superops_fused": m.superops_fused,
                    "partitions": m.partitions,
                    "partition_reason": m.partition_reason,
                    "excluded": m.excluded_tools,
                    "degradations": [
                        {
                            "stage": d.stage,
                            "tool": d.tool,
                            "attempt": d.attempt,
                            "reason": d.reason,
                            "action": d.action,
                        }
                        for d in m.degradations
                    ],
                    "tools": {
                        t.tool: {
                            "wall_time": t.wall_time,
                            "replay_time": t.replay_time,
                            "slowdown": t.slowdown,
                            "space_cells": t.space_cells,
                            "space_overhead": t.space_overhead,
                            "events": t.events,
                        }
                        for t in m.tools.values()
                    },
                }
                for m in measurements
            ],
        }
        if registry is not None:
            payload["metrics"] = registry.as_dict()
        with open(args.json, "w") as handle:
            handle.write(dumps_strict(payload, indent=2))
        print(f"measurements written to {args.json}", file=sys.stderr)
    tool_names = [t for t in DEFAULT_TOOLS if t in summary]
    print(f"{'tool':>12} {'slowdown':>10} {'space':>8}")
    for tool in tool_names:
        row = summary[tool]
        print(
            f"{tool:>12} {row['slowdown']:>9.2f}x {row['space_overhead']:>7.2f}x"
        )
    degradations = [d for m in measurements for d in m.degradations]
    if degradations:
        print(f"{len(degradations)} degradation(s):", file=sys.stderr)
        for d in degradations:
            print(
                f"  [{d.stage}] {d.tool}: {d.reason} -> {d.action}",
                file=sys.stderr,
            )
    if registry is not None:
        print("-- metrics --")
        _print_metrics(registry)
    return 0


def cmd_sweep(args) -> int:
    """Run the cached workload×tool×scale sweep matrix."""
    from repro.core.serialize import dumps_strict
    from repro.sweep import SweepConfig, run_sweep

    if args.workloads:
        unknown = [name for name in args.workloads if name not in REGISTRY]
        if unknown:
            print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
            return 2
        names = list(args.workloads)
    else:
        names = [w.name for w in suite(args.suite)]
    if not names:
        print(f"no workloads in suite {args.suite!r}", file=sys.stderr)
        return 2

    registry = None
    tracer = None
    if args.metrics:
        from repro.obs import MetricsRegistry, SpanTracer

        registry = MetricsRegistry()
        tracer = SpanTracer(process_name="repro sweep")

    config = SweepConfig(
        workloads=tuple(names),
        scales=tuple(args.scales),
        store_root=args.store,
        threads=args.threads,
        tools=tuple(args.tools) if args.tools else tuple(DEFAULT_TOOLS),
        repeats=args.repeats,
        parallel=args.parallel,
        fault_seed=args.faults,
        reuse_measurements=not args.remeasure,
        engine=args.engine,
        partitions=args.partitions,
    )
    try:
        result = run_sweep(config, metrics=registry, tracer=tracer)
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2

    report = result.report_dict()
    cache = report["cache"]
    print(
        f"sweep: {len(report['cells'])} cell(s) over "
        f"{len(names)} workload(s) x scales {list(args.scales)} — "
        f"wall {result.wall_time:.2f}s, cache {cache['hits']} hit / "
        f"{cache['misses']} miss (hit rate {cache['hit_rate']:.0%})"
    )
    for workload in sorted(result.trends):
        print(f"  {workload}:")
        drms_trends = result.trends[workload]["drms"]
        rms_trends = result.trends[workload]["rms"]
        for routine, row in drms_trends.items():
            if row["model"] is None:
                print(
                    f"    {routine}: {row['points']} point(s) — "
                    "not enough distinct sizes to fit"
                )
                continue
            rms_row = rms_trends.get(routine) or {}
            rms_model = rms_row.get("model") or "-"
            print(
                f"    {routine}: drms {row['model']} "
                f"(R^2={row['r_squared']:.3f}) vs rms {rms_model}"
            )
    if result.degradations:
        print(f"{len(result.degradations)} degradation(s):", file=sys.stderr)
        for d in result.degradations:
            print(
                f"  [{d.stage}] {d.tool}: {d.reason} -> {d.action}",
                file=sys.stderr,
            )
    if registry is not None:
        print("-- metrics --")
        _print_metrics(registry)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(dumps_strict(report, indent=2) + "\n")
        print(f"sweep report written to {args.json}", file=sys.stderr)
    return 0


def cmd_communicate(args) -> int:
    machine = _run_workload(args.workload, args.threads, args.scale)
    analyzer = analyze_communication(
        machine.trace, include_kernel=not args.no_kernel
    )
    print(
        f"{args.workload}: {analyzer.total_cells()} communicated cells "
        f"over {len(analyzer.routine_matrix())} routine channels"
    )
    print(f"{'producer':>24} {'consumer':>24} {'cells':>7}")
    for edge in analyzer.edges()[: args.limit]:
        print(f"{edge.producer:>24} {edge.consumer:>24} {edge.cells:>7}")
    fan_out = analyzer.fan_out()
    if fan_out:
        widest = max(fan_out, key=fan_out.get)
        print(
            f"widest producer: {widest} "
            f"(feeds {fan_out[widest]} routines)"
        )
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import workload_report

    machine = _run_workload(args.workload, args.threads, args.scale)
    print(workload_report(machine.trace, title=args.workload))
    return 0


def cmd_trace(args) -> int:
    if args.binary and not args.save:
        print("--binary requires --save FILE", file=sys.stderr)
        return 2
    registry = None
    if args.metrics:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    machine = _run_workload(
        args.workload, args.threads, args.scale, registry=registry
    )
    if registry is not None:
        machine.publish_metrics(registry)
        print("-- metrics --", file=sys.stderr)
        _print_metrics(registry, stream=sys.stderr)
    if args.save:
        if args.binary:
            # The binary writer stores run superops: stride-1 same-thread
            # runs collapse to one row each, and iter_events() expands
            # them, so any consumer still sees the identical stream.
            from repro.core.tracefile import save_trace_binary

            with open(args.save, "wb") as handle:
                written = save_trace_binary(machine.trace, handle)
        else:
            from repro.core.tracefile import save_trace

            with open(args.save, "w") as handle:
                written = save_trace(machine.trace, handle)
        print(f"{written} events written to {args.save}", file=sys.stderr)
        return 0
    for event in machine.trace[: args.limit]:
        print(describe(event))
    remaining = len(machine.trace) - args.limit
    if remaining > 0:
        print(f"... ({remaining} more events)")
    return 0


def cmd_diagnose(args) -> int:
    from repro.analysis.variance import suspicion_report

    machine = _run_workload(args.workload, args.threads, args.scale)
    report = profile_events(machine.trace, policy=POLICIES[args.metric])
    flagged = suspicion_report(report, spread_threshold=args.spread)
    if not flagged:
        print(
            f"{args.workload}: no suspicious cost variance under "
            f"{args.metric} (all input sizes look trustworthy)"
        )
        return 0
    print(
        f"{args.workload}: {len(flagged)} routine(s) with suspicious "
        f"cost variance under {args.metric} — their input sizes are "
        "probably under-measured (Section 2.1 indicator):"
    )
    for routine, points in flagged.items():
        worst = points[0]
        print(
            f"  {routine}: {len(points)} point(s); worst at n={worst.input_size} "
            f"({worst.calls} calls, cost {worst.min_cost}..{worst.max_cost})"
        )
    return 0


def _save_doctor_flight(args, facts, reason) -> None:
    """Dump the doctor's findings through the flight recorder.

    ``facts`` is a list of ``(kind, fields)`` notes fed into the ring;
    when ``reason`` is non-empty (corruption was detected) the ring is
    dumped as a ``flight-recorder`` instant, so the written Chrome
    trace carries the last-moments evidence alongside the notes."""
    if not getattr(args, "flight_out", None):
        return
    from repro.obs import SpanTracer
    from repro.obs.distributed import FlightRecorder, flight_dump

    tracer = SpanTracer(process_name="repro doctor")
    FlightRecorder().attach(tracer)
    for kind, fields in facts:
        tracer.flight.note(kind, **fields)
    if reason:
        flight_dump(tracer, reason)
    tracer.save(args.flight_out)
    print(
        f"doctor flight recording written to {args.flight_out}",
        file=sys.stderr,
    )


def _doctor_store(args) -> int:
    """Audit (and optionally recover) a whole trace store."""
    from repro.sweep import TraceStore

    store = TraceStore(args.store)
    audit = store.audit()
    print(f"store:     {audit.root}")
    print(f"traces:    {audit.traces} ({len(audit.corrupt_traces)} corrupt)")
    print(f"metas:     {audit.metas} ({len(audit.corrupt_metas)} corrupt)")
    print(
        f"shards:    {audit.shards} ({len(audit.corrupt_shards)} corrupt, "
        f"{len(audit.stale_shards)} stale)"
    )
    print(f"orphans:   {len(audit.orphan_sidecars)} sidecar(s) without a trace")
    print(f"tmp files: {len(audit.tmp_files)} leftover")
    for label, paths in (
        ("corrupt trace", audit.corrupt_traces),
        ("corrupt meta", audit.corrupt_metas),
        ("corrupt shard", audit.corrupt_shards),
        ("stale shard", audit.stale_shards),
        ("orphan sidecar", audit.orphan_sidecars),
    ):
        for path in paths[:_DOCTOR_SECTION_LIMIT]:
            print(f"  {label}: {os.path.relpath(path, audit.root)}")
    corrupt_total = (
        len(audit.corrupt_traces)
        + len(audit.corrupt_metas)
        + len(audit.corrupt_shards)
    )
    _save_doctor_flight(
        args,
        [
            (
                "store-audit",
                {
                    "store": audit.root,
                    "traces": audit.traces,
                    "shards": audit.shards,
                    "corrupt": corrupt_total,
                    "stale": len(audit.stale_shards),
                    "orphans": len(audit.orphan_sidecars),
                },
            )
        ],
        ""
        if audit.clean
        else f"doctor: store {audit.root} needs recovery "
        f"({corrupt_total} corrupt file(s))",
    )
    if audit.clean:
        print("status:    clean")
        return 0
    if args.recover:
        moved = store.quarantine(audit)
        print(
            f"quarantined {len(moved)} file(s) under "
            f"{os.path.join(audit.root, 'quarantine')}; removed "
            f"{len(audit.tmp_files)} tmp file(s)"
        )
        if store.audit().clean:
            print("status:    clean after recovery")
            return 0
        print("status:    STILL DIRTY after recovery")
        return 1
    print("status:    NEEDS RECOVERY (re-run with --recover)")
    return 1


def cmd_doctor(args) -> int:
    """Integrity-check a binary trace or a whole trace store."""
    from repro.core.events import scan_batch_bytes

    if bool(args.trace) == bool(args.store):
        print(
            "doctor: exactly one of --trace or --store is required",
            file=sys.stderr,
        )
        return 2
    if args.store:
        return _doctor_store(args)
    if args.recover is True:
        print(
            "doctor: --recover needs an OUT path in --trace mode",
            file=sys.stderr,
        )
        return 2
    try:
        with open(args.trace, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        print(f"cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    scan = scan_batch_bytes(data)
    print(f"trace:     {args.trace} ({len(data)} bytes)")
    print(f"format:    v{scan.version}" if scan.version else "format:    unknown")
    print(f"declared:  {scan.declared_events} events")
    print(f"recovered: {scan.events_loaded} events "
          f"({scan.sections_valid} valid section(s), "
          f"{scan.valid_bytes} clean bytes)")
    from repro.core.tracefile import trace_section_stats

    section_stats = {s.index: s for s in trace_section_stats(data)}
    shown = scan.section_events[:_DOCTOR_SECTION_LIMIT]
    for index, count in enumerate(shown):
        stat = section_stats.get(index)
        detail = ""
        if stat is not None:
            enc = f"v{stat.version}" + ("+zlib" if stat.compressed else "")
            detail = (
                f" — {enc}, {stat.stored_bytes}/{stat.raw_bytes} B "
                f"({stat.ratio:.1%}), {stat.bytes_per_event:.2f} B/event"
            )
        print(f"  section {index:>3}: {count} event(s) salvaged{detail}")
    if len(scan.section_events) > len(shown):
        print(f"  ... ({len(scan.section_events) - len(shown)} more sections)")
    if section_stats:
        stored = sum(s.stored_bytes for s in section_stats.values())
        raw = sum(s.raw_bytes for s in section_stats.values())
        events_total = sum(s.events for s in section_stats.values())
        if events_total:
            print(
                f"encoding:  {stored}/{raw} payload bytes "
                f"({stored / raw:.1%} of row format), "
                f"{stored / events_total:.2f} B/event"
            )
    print(f"names:     {len(scan.batch.names)} interned")
    _save_doctor_flight(
        args,
        [
            (
                "trace-scan",
                {
                    "trace": args.trace,
                    "bytes": len(data),
                    "declared": scan.declared_events,
                    "recovered": scan.events_loaded,
                    "valid_bytes": scan.valid_bytes,
                    "intact": scan.intact,
                },
            )
        ],
        ""
        if scan.intact
        else f"doctor: corrupt trace {args.trace}: {scan.error}",
    )
    if scan.intact:
        print("status:    intact")
    else:
        where = (
            f" in section {scan.error_section}"
            if scan.error_section is not None
            else ""
        )
        print(f"status:    CORRUPT{where} — {scan.error}")
    if args.partitions is not None:
        # A torn trace still plans: the planner degrades to a single
        # partition over the valid prefix with the damage in
        # ``reason``, so doctor can always show what a partitioned
        # replay would do with this file.
        from repro.core.tracefile import TraceFormatError, plan_partitions
        from repro.tools.partition import resolve_partitions

        try:
            plan = plan_partitions(data, resolve_partitions(args.partitions))
        except TraceFormatError as exc:
            plan = None
            print(f"-- partition plan: unavailable — {exc}")
        if plan is not None:
            print(f"-- partition plan ({plan.requested}-way requested) --")
            print(
                f"sections:  {plan.total_sections} "
                f"({plan.safe_boundaries} safe depth-zero boundar"
                f"{'y' if plan.safe_boundaries == 1 else 'ies'})"
            )
            if plan.reason is not None:
                print(f"splittable: no — {plan.reason}")
            else:
                print(
                    f"splittable: yes — {len(plan.partitions)} "
                    f"partition(s), imbalance {plan.imbalance:.1%}"
                )
                if plan.carried:
                    print(
                        f"carried:   {plan.carried} mid-activation "
                        f"carry(ies) across cuts"
                    )
            for part in plan.partitions:
                carry = ""
                if part.carry_in:
                    depths = ", ".join(
                        f"T{thread}x{len(acts)}"
                        for thread, acts in part.carry_in
                    )
                    carry = f", carry-in [{depths}]"
                print(
                    f"  partition {part.index}: bytes [{part.start}, "
                    f"{part.end}) — {part.sections} section(s), "
                    f"{part.events} event(s){carry}"
                )
    if args.recover:
        from repro.core.tracefile import save_trace_binary

        with open(args.recover, "wb") as handle:
            written = save_trace_binary(scan.batch, handle)
        print(f"recovered prefix ({written} events) written to {args.recover}")
    return 0 if scan.intact else 1


def cmd_serve(args) -> int:
    """Run the journaled sweep coordinator plus local worker processes.

    Exit code 0 when every job completed, 3 when any job degraded
    (cells exhausted their retries).  Without ``--until-idle`` the
    service runs until interrupted.
    """
    import multiprocessing
    import time

    from repro.obs import MetricsRegistry, SpanTracer
    from repro.service import Coordinator
    from repro.service.httpd import serve_http
    from repro.service.worker import worker_entry

    registry = MetricsRegistry()
    spans_dir = None
    tracer = None
    if not args.no_trace:
        spans_dir = args.spans_dir or (args.journal + ".spans")
        tracer = SpanTracer(process_name="coordinator")
    coordinator = Coordinator(
        args.store,
        args.journal,
        lease_timeout=args.lease_timeout,
        max_retries=args.max_retries,
        metrics=registry,
        fsync=not args.no_fsync,
        tracer=tracer,
        spans_dir=spans_dir,
    )
    server, base_url = serve_http(
        coordinator, host=args.host, port=args.port, registry=registry
    )
    replay = coordinator.replay_stats
    print(
        f"serving on {base_url} — journal {args.journal} "
        f"({replay.records} record(s) replayed"
        + (f", {replay.torn_tail_bytes} torn tail byte(s) dropped"
           if replay.torn_tail_bytes else "")
        + (f"), spans in {spans_dir}" if spans_dir else ")"),
        flush=True,
    )
    workers = {}
    for index in range(args.workers):
        name = f"worker-{index}"
        proc = multiprocessing.Process(
            target=worker_entry,
            args=(base_url, name),
            kwargs={
                "poll_interval": args.poll,
                "stop_when_idle": args.until_idle,
            },
            name=name,
            daemon=True,
        )
        proc.start()
        workers[name] = proc
    try:
        while True:
            time.sleep(args.poll)
            coordinator.tick()
            for name, proc in list(workers.items()):
                if proc.is_alive():
                    continue
                del workers[name]
                if proc.exitcode != 0:
                    requeued = coordinator.note_worker_dead(
                        name, f"worker exited with code {proc.exitcode}"
                    )
                    print(
                        f"{name} died (exit {proc.exitcode}); requeued "
                        f"{requeued} lease(s)",
                        file=sys.stderr,
                        flush=True,
                    )
            if args.until_idle and coordinator.all_idle() and not workers:
                # Keep serving briefly so clients polling --wait can
                # still fetch the terminal job state.
                time.sleep(max(args.linger, 0.0))
                break
    except KeyboardInterrupt:
        pass
    finally:
        for proc in workers.values():
            proc.terminate()
        for proc in workers.values():
            proc.join(timeout=5)
        server.shutdown()
        coordinator.close()
    states = [job["state"] for job in coordinator.jobs_snapshot()]
    print(f"serve: exiting ({', '.join(states) or 'no jobs'})", flush=True)
    return 3 if "degraded" in states else 0


def _service_get(url: str, path: str):
    import json as jsonlib
    from urllib import request

    with request.urlopen(url.rstrip("/") + path, timeout=10) as resp:
        return jsonlib.loads(resp.read().decode("utf-8"))


def _service_post(url: str, path: str, payload):
    import json as jsonlib
    from urllib import request

    req = request.Request(
        url.rstrip("/") + path,
        data=jsonlib.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with request.urlopen(req, timeout=10) as resp:
        return jsonlib.loads(resp.read().decode("utf-8"))


def _print_job_cells(report) -> None:
    for cell in report["cells"]:
        extra = ""
        if cell["state"] == "done":
            extra = (
                f" attempt {cell['attempts']} by {cell['completed_by']}"
            )
            if cell["duplicate_completions"]:
                extra += f" (+{cell['duplicate_completions']} duplicate)"
        elif cell["state"] == "failed":
            extra = f" after {cell['attempts']} attempt(s)"
        print(f"  {cell['cell']}: {cell['state']}{extra}")
    for d in report["degradations"]:
        print(
            f"  [{d['stage']}] {d['unit']}: {d['reason']} -> {d['action']}",
            file=sys.stderr,
        )


def cmd_submit(args) -> int:
    """Submit a sweep job to a running coordinator.

    Exit codes: 0 complete, 1 coordinator unreachable / wait timed
    out, 2 spec rejected, 3 job finished degraded.
    """
    import time
    from urllib import error

    from repro.core.serialize import dumps_strict

    spec = {
        "workloads": args.workloads,
        "scales": args.scales,
        "threads": args.threads,
        "tools": args.tools or None,
        "repeats": args.repeats,
        "engine": args.engine,
        "fault_seed": args.faults,
        "partitions": args.partitions,
    }
    try:
        job_id = _service_post(args.url, "/submit", spec)["job"]
    except error.HTTPError as exc:
        body = exc.read().decode("utf-8", "replace").strip()
        print(f"submit rejected ({exc.code}): {body}", file=sys.stderr)
        return 2
    except (error.URLError, OSError) as exc:
        print(
            f"cannot reach coordinator at {args.url}: {exc}", file=sys.stderr
        )
        return 1
    print(f"submitted {job_id}")
    if not args.wait:
        return 0
    deadline = time.monotonic() + args.timeout
    report = None
    failures = 0
    while time.monotonic() < deadline:
        try:
            report = _service_get(args.url, f"/jobs/{job_id}")
            failures = 0
        except (error.URLError, OSError) as exc:
            failures += 1
            if failures >= 8:
                print(
                    f"coordinator unreachable after {failures} polls: {exc}",
                    file=sys.stderr,
                )
                return 1
            time.sleep(1.0)
            continue
        if report["state"] != "running":
            break
        time.sleep(max(args.poll, 0.05))
    if report is None or report["state"] == "running":
        print(
            f"timed out after {args.timeout:g}s waiting for {job_id}",
            file=sys.stderr,
        )
        return 1
    counts = report["counts"]
    print(
        f"{job_id}: {report['state']} — {counts['done']} done, "
        f"{counts['failed']} failed"
    )
    _print_job_cells(report)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(dumps_strict(report, indent=2) + "\n")
        print(f"job report written to {args.json}", file=sys.stderr)
    return 0 if report["state"] == "complete" else 3


def cmd_jobs(args) -> int:
    """Inspect coordinator state — live over HTTP, or offline from the
    journal (pure replay; the journal is never written)."""
    from urllib import error

    from repro.core.serialize import dumps_strict

    if bool(args.url) == bool(args.journal):
        print(
            "jobs: exactly one of --url or --journal is required",
            file=sys.stderr,
        )
        return 2
    if args.url:
        try:
            if args.job:
                report = _service_get(args.url, f"/jobs/{args.job}")
                snapshot = None
            else:
                snapshot = _service_get(args.url, "/jobs")["jobs"]
                report = None
        except error.HTTPError as exc:
            print(f"coordinator error ({exc.code})", file=sys.stderr)
            return 1
        except (error.URLError, OSError) as exc:
            print(
                f"cannot reach coordinator at {args.url}: {exc}",
                file=sys.stderr,
            )
            return 1
    else:
        from repro.service import Coordinator

        coordinator = Coordinator(
            args.store or "",
            args.journal,
            fsync=False,
            readonly=True,
        )
        if args.job:
            try:
                report = coordinator.job_report(
                    args.job, include_trends=bool(args.store)
                )
            except KeyError as exc:
                print(f"jobs: {exc.args[0]}", file=sys.stderr)
                return 1
            snapshot = None
        else:
            snapshot = coordinator.jobs_snapshot()
            report = None
    if report is not None:
        if args.json:
            with open(args.json, "w") as handle:
                handle.write(dumps_strict(report, indent=2) + "\n")
            print(f"job report written to {args.json}", file=sys.stderr)
        counts = report["counts"]
        print(
            f"{report['job']}: {report['state']} — "
            f"{counts['done']} done, {counts['failed']} failed, "
            f"{counts['pending']} pending, {counts['leased']} leased"
        )
        _print_job_cells(report)
        return 0
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(dumps_strict({"jobs": snapshot}, indent=2) + "\n")
        print(f"jobs written to {args.json}", file=sys.stderr)
    if not snapshot:
        print("(no jobs)")
        return 0
    for job in snapshot:
        cells = job["cells"]
        print(
            f"{job['job']}: {job['state']} — "
            f"{cells['done']}/{sum(cells.values())} cells done "
            f"({cells['failed']} failed) over "
            f"{len(job['workloads'])} workload(s)"
        )
    return 0


def cmd_trace_export(args) -> int:
    """Merge a job's span sidecars into one Perfetto-viewable trace.

    Offline: replays the journal (read-only) to resolve the job's
    ``trace_id``, then merges every contributing sidecar under the
    spans directory.  Exit 0 valid, 1 schema problems, 2 unknown job
    or no trace context recorded.
    """
    from repro.core.serialize import dumps_strict
    from repro.obs.distributed import merge_job_trace, validate_chrome_trace
    from repro.service import Coordinator

    spans_dir = args.spans_dir or (args.journal + ".spans")
    coordinator = Coordinator(
        args.store or "", args.journal, fsync=False, readonly=True
    )
    try:
        report = coordinator.job_report(args.job, include_trends=False)
    except KeyError:
        print(
            f"trace-export: unknown job {args.job!r} in {args.journal}",
            file=sys.stderr,
        )
        return 2
    trace_id = report.get("trace_id", "")
    if not trace_id:
        print(
            f"trace-export: job {args.job} has no trace context "
            "(journal predates tracing?)",
            file=sys.stderr,
        )
        return 2
    doc = merge_job_trace(
        spans_dir,
        trace_id=trace_id,
        job=args.job,
        extra_metadata={
            "journal": args.journal,
            "job_state": report["state"],
        },
    )
    out = args.out or f"{args.job}.trace.json"
    with open(out, "w") as handle:
        handle.write(dumps_strict(doc) + "\n")
    meta = doc["metadata"]
    processes = meta["processes"]
    print(
        f"{args.job} [{trace_id}]: {len(doc['traceEvents'])} event(s) "
        f"from {len(processes)} process(es) -> {out}"
    )
    for proc in processes:
        torn = (
            f", {proc['torn_tail_bytes']} torn tail byte(s)"
            if proc["torn_tail_bytes"]
            else ""
        )
        print(
            f"  pid {proc['pid']}: {proc['process']} "
            f"(clock offset {proc['handshake_offset_us']}us{torn})"
        )
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems[:_DOCTOR_SECTION_LIMIT]:
            print(f"  invalid: {problem}", file=sys.stderr)
        print(f"trace INVALID ({len(problems)} problem(s))", file=sys.stderr)
        return 1
    if not processes:
        print(
            "trace valid but EMPTY — no sidecars matched "
            f"(looked in {spans_dir})",
            file=sys.stderr,
        )
    else:
        print("trace valid (open in https://ui.perfetto.dev)")
    return 0


class TopView:
    """Renderer behind ``repro top``: metrics+jobs snapshots in, one
    terminal screen out.

    Kept free of I/O so tests can drive :meth:`update` with canned
    snapshots.  Rates (cells/s, leases/s, journal records/s) come from
    counter deltas between successive polls; histogram rows are
    p50/p99 derived from the log2 buckets in the flat metrics dict.
    """

    RATE_KEYS = (
        ("service.cells.done", "cells done"),
        ("service.leases.granted", "leases granted"),
        ("service.journal.records", "journal records"),
    )
    RETRY_KEYS = (
        "service.requeues",
        "service.leases.expired",
        "service.cells.failed",
        "service.cells.duplicate",
    )

    def __init__(self, url: str = "") -> None:
        self.url = url
        self._prev: dict = {}
        self._prev_time: Optional[float] = None

    def update(self, metrics, jobs, now: float) -> str:
        from repro.obs import histogram_summaries_from_flat

        lines = [f"repro top — {self.url or 'coordinator'}"]

        lines.append("jobs:")
        if not jobs:
            lines.append("  (none submitted)")
        for job in jobs:
            cells = job.get("cells", {})
            total = sum(cells.values())
            lines.append(
                f"  {job['job']}: {job['state']} — "
                f"{cells.get('done', 0)}/{total} cells done"
                f" ({cells.get('failed', 0)} failed,"
                f" {cells.get('leased', 0)} leased)"
            )

        lines.append("workers:")
        prefix = "service.heartbeat.age_seconds{worker="
        seen_worker = False
        for key in sorted(metrics):
            if not key.startswith(prefix):
                continue
            seen_worker = True
            worker = key[len(prefix):].rstrip("}")
            lines.append(
                f"  {worker}: lease live, heartbeat {metrics[key]:.1f}s ago"
            )
        if not seen_worker:
            lines.append("  (no live leases)")

        lines.append("rates:")
        dt = (
            now - self._prev_time
            if self._prev_time is not None and now > self._prev_time
            else None
        )
        for key, label in self.RATE_KEYS:
            value = metrics.get(key)
            if not isinstance(value, (int, float)):
                continue
            if dt and key in self._prev:
                delta = value - self._prev[key]
                if delta < 0:
                    # Counters are cumulative per process: a negative
                    # delta means the exporting worker restarted and
                    # its counter reset, not that work was undone.
                    # Clamp to zero and flag the sample instead of
                    # showing a nonsense negative rate.
                    lines.append(f"  {label}: {value:g} (0.0/s, reset)")
                else:
                    rate = delta / dt
                    lines.append(f"  {label}: {value:g} ({rate:.1f}/s)")
            else:
                lines.append(f"  {label}: {value:g}")
            self._prev[key] = value
        self._prev_time = now

        retries = [
            f"{key.rsplit('.', 1)[-1]}={metrics[key]:g}"
            for key in self.RETRY_KEYS
            if isinstance(metrics.get(key), (int, float))
        ]
        if retries:
            lines.append("retries:  " + "  ".join(retries))

        summaries = histogram_summaries_from_flat(metrics, qs=(0.5, 0.99))
        if summaries:
            lines.append("latency (p50/p99):")
            for base, row in sorted(summaries.items()):
                lines.append(
                    f"  {base}: n={row['count']} "
                    f"p50={row['p50']:.0f} p99={row['p99']:.0f}"
                )
        return "\n".join(lines)


def cmd_top(args) -> int:
    """Live terminal view of a running coordinator (``/metrics.json``
    + ``/jobs`` polled every ``--interval`` seconds)."""
    import time as timelib
    from urllib import error

    view = TopView(args.url)
    iterations = 1 if args.once else args.iterations
    shown = 0
    while True:
        try:
            metrics = _service_get(args.url, "/metrics.json").get(
                "metrics", {}
            )
            jobs = _service_get(args.url, "/jobs").get("jobs", [])
        except (error.URLError, OSError) as exc:
            print(
                f"cannot reach coordinator at {args.url}: {exc}",
                file=sys.stderr,
            )
            return 1
        screen = view.update(metrics, jobs, timelib.monotonic())
        if shown and sys.stdout.isatty():
            sys.stdout.write("\x1b[2J\x1b[H")
        print(screen, flush=True)
        shown += 1
        if iterations and shown >= iterations:
            return 0
        try:
            timelib.sleep(max(args.interval, 0.05))
        except KeyboardInterrupt:
            return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="aprof-drms reproduction (CGO 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered workloads").set_defaults(
        func=cmd_list
    )

    def add_workload_args(p):
        p.add_argument("workload", choices=sorted(REGISTRY))
        p.add_argument("--threads", type=int, default=4)
        p.add_argument("--scale", type=int, default=1)

    def add_engine_arg(p):
        p.add_argument(
            "--engine",
            choices=ENGINES,
            default=DEFAULT_ENGINE,
            help="replay kernel: the scalar reference event loop, or "
            "the columnar superop kernel (default)",
        )

    def add_partitions_arg(p):
        p.add_argument(
            "--partitions",
            type=int,
            default=None,
            metavar="N",
            help="split each trace at section boundaries — depth-zero "
            "where possible, mid-activation with per-thread carries "
            "otherwise — and replay the partitions in N worker "
            "processes (0 = one per CPU); unsplittable traces degrade "
            "to a single partition",
        )

    p = sub.add_parser("profile", help="profile a workload")
    add_workload_args(p)
    p.add_argument("--metric", choices=sorted(POLICIES), default="drms")
    p.add_argument("--routine", help="only this routine")
    p.add_argument(
        "--points", type=int, default=0, help="print up to N plot points"
    )
    p.add_argument("--json", help="also write the profile as JSON to FILE")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("characterize", help="workload characterization")
    add_workload_args(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("overhead", help="tool slowdown/space comparison")
    p.add_argument("--suite", choices=SUITES, default="specomp")
    p.add_argument("--benchmarks", nargs="*", help="restrict to these")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--scale", type=int, default=2)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="replay the recorded trace under the tools in N processes",
    )
    p.add_argument("--json", help="write the full measurements to FILE")
    p.add_argument(
        "--faults",
        type=int,
        default=None,
        metavar="SEED",
        help="run with deterministic fault injection (FaultPlan seed)",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="collect runner telemetry and print the metrics table",
    )
    add_engine_arg(p)
    add_partitions_arg(p)
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser(
        "sweep",
        help="cached workload x tool x scale sweep with merged cost models",
    )
    p.add_argument("--suite", choices=SUITES, default="micro")
    p.add_argument(
        "--workloads",
        nargs="*",
        help="explicit workload names (overrides --suite)",
    )
    p.add_argument(
        "--scales",
        nargs="+",
        type=int,
        default=[1, 2],
        metavar="N",
        help="input scales forming the matrix columns",
    )
    p.add_argument("--threads", type=int, default=4)
    p.add_argument(
        "--tools",
        nargs="*",
        choices=sorted(DEFAULT_TOOLS),
        help="restrict the replayed tools (default: all six)",
    )
    p.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="content-addressed trace-store directory",
    )
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="run sweep cells in N supervised worker processes",
    )
    p.add_argument(
        "--faults",
        type=int,
        default=None,
        metavar="SEED",
        help="record with deterministic fault injection (part of the key)",
    )
    p.add_argument(
        "--remeasure",
        action="store_true",
        help="ignore cached replay measurements (traces stay cached)",
    )
    p.add_argument("--json", help="write the strict-JSON report to FILE")
    p.add_argument(
        "--metrics",
        action="store_true",
        help="collect sweep telemetry and print the metrics table",
    )
    add_engine_arg(p)
    add_partitions_arg(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "communicate", help="routine-level communication matrix"
    )
    add_workload_args(p)
    p.add_argument("--limit", type=int, default=15)
    p.add_argument(
        "--no-kernel", action="store_true", help="ignore kernel-produced data"
    )
    p.set_defaults(func=cmd_communicate)

    p = sub.add_parser("trace", help="dump a workload's event trace")
    add_workload_args(p)
    p.add_argument("--limit", type=int, default=50)
    p.add_argument("--save", help="write the full trace to FILE instead")
    p.add_argument(
        "--binary",
        action="store_true",
        help="with --save: write the crash-safe binary format",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="collect VM telemetry and print the metrics table to stderr",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("report", help="full analysis report")
    add_workload_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "diagnose", help="flag routines with suspicious cost variance"
    )
    add_workload_args(p)
    p.add_argument("--metric", choices=sorted(POLICIES), default="rms")
    p.add_argument("--spread", type=float, default=2.0)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser(
        "doctor", help="integrity-check a binary trace file or trace store"
    )
    p.add_argument("--trace", help="binary trace to examine")
    p.add_argument(
        "--store",
        metavar="DIR",
        help="audit a whole trace store instead of one trace",
    )
    p.add_argument(
        "--recover",
        nargs="?",
        const=True,
        default=None,
        metavar="OUT",
        help="with --trace: write the longest valid prefix to OUT; "
        "with --store: quarantine every bad file (no argument)",
    )
    p.add_argument(
        "--partitions",
        type=int,
        default=4,
        metavar="N",
        help="also print the N-way partition plan (why the trace is or "
        "isn't splittable for parallel replay; 0 = one per CPU)",
    )
    p.add_argument(
        "--flight-out",
        metavar="FILE",
        help="write the doctor's findings as a Chrome trace; detected "
        "corruption triggers a flight-recorder dump in it",
    )
    p.set_defaults(func=cmd_doctor)

    p = sub.add_parser(
        "serve",
        help="run the crash-safe sweep coordinator + worker processes",
    )
    p.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="content-addressed trace-store directory (shared by workers)",
    )
    p.add_argument(
        "--journal",
        required=True,
        metavar="FILE",
        help="append-only job journal (replayed on startup)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="local worker processes to spawn (0 = coordinator only)",
    )
    p.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        metavar="SEC",
        help="heartbeat deadline before a cell lease is requeued",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="requeues per cell before it is marked failed",
    )
    p.add_argument(
        "--until-idle",
        action="store_true",
        help="exit once every submitted job is terminal",
    )
    p.add_argument(
        "--linger",
        type=float,
        default=5.0,
        metavar="SEC",
        help="with --until-idle: keep serving this long after idle so "
        "waiting clients can fetch the final job state",
    )
    p.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SEC",
        help="supervisor/worker poll interval",
    )
    p.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync on journal appends (tests only)",
    )
    p.add_argument(
        "--spans-dir",
        metavar="DIR",
        default=None,
        help="directory for per-process span sidecars "
        "(default: <journal>.spans)",
    )
    p.add_argument(
        "--no-trace",
        action="store_true",
        help="disable distributed tracing (no span sidecars)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a sweep job to a running coordinator"
    )
    p.add_argument(
        "--url", required=True, help="coordinator base URL (from serve)"
    )
    p.add_argument(
        "--workloads",
        nargs="+",
        required=True,
        choices=sorted(REGISTRY),
        metavar="W",
    )
    p.add_argument(
        "--scales", nargs="+", type=int, default=[1, 2], metavar="N"
    )
    p.add_argument("--threads", type=int, default=4)
    p.add_argument(
        "--tools",
        nargs="*",
        choices=sorted(DEFAULT_TOOLS),
        help="restrict the replayed tools (default: all)",
    )
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument(
        "--faults",
        type=int,
        default=None,
        metavar="SEED",
        help="record with deterministic fault injection",
    )
    p.add_argument(
        "--wait",
        action="store_true",
        help="block until the job is terminal (exit 0 complete, 3 degraded)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SEC",
        help="with --wait: give up after this long (exit 1)",
    )
    p.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SEC",
        help="with --wait: poll interval",
    )
    p.add_argument("--json", help="write the final job report to FILE")
    add_engine_arg(p)
    add_partitions_arg(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "jobs", help="inspect coordinator jobs (live URL or offline journal)"
    )
    p.add_argument("job", nargs="?", help="job id for a full report")
    p.add_argument("--url", help="coordinator base URL")
    p.add_argument(
        "--journal",
        metavar="FILE",
        help="replay this journal offline instead of contacting a server",
    )
    p.add_argument(
        "--store",
        metavar="DIR",
        help="with --journal: trace store for merged trends in job reports",
    )
    p.add_argument("--json", help="write the result to FILE")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser(
        "stats", help="run a workload under full telemetry"
    )
    p.add_argument(
        "workload", nargs="?", choices=sorted(REGISTRY), default=None
    )
    p.add_argument(
        "--workload",
        dest="workload_opt",
        choices=sorted(REGISTRY),
        default=None,
        help="alternative to the positional workload",
    )
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--metric", choices=sorted(POLICIES), default="drms")
    p.add_argument(
        "--counter-limit",
        type=int,
        default=None,
        metavar="N",
        help="drms timestamp-counter limit (triggers renumbering)",
    )
    p.add_argument(
        "--faults",
        type=int,
        default=None,
        metavar="SEED",
        help="run with deterministic fault injection (FaultPlan seed)",
    )
    p.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit metrics as JSON (to FILE, or stdout if omitted)",
    )
    p.add_argument(
        "--prom",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit metrics as Prometheus text (to FILE, or stdout)",
    )
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome trace-event span timeline (Perfetto)",
    )
    p.add_argument(
        "--url",
        default=None,
        help="also fetch and print a running coordinator's metrics",
    )
    add_engine_arg(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "trace-export",
        help="merge a job's span sidecars into one Perfetto trace",
    )
    p.add_argument("--job", required=True, help="job id (from submit)")
    p.add_argument(
        "--journal",
        required=True,
        metavar="FILE",
        help="coordinator journal (replayed read-only for the trace id)",
    )
    p.add_argument(
        "--spans-dir",
        metavar="DIR",
        default=None,
        help="span sidecar directory (default: <journal>.spans)",
    )
    p.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="trace store (optional; only used for journal replay)",
    )
    p.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="output path (default: <job>.trace.json)",
    )
    p.set_defaults(func=cmd_trace_export)

    p = sub.add_parser(
        "top", help="live terminal view of a running coordinator"
    )
    p.add_argument(
        "--url", required=True, help="coordinator base URL (from serve)"
    )
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SEC",
        help="poll interval",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N refreshes (0 = until interrupted)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="print a single snapshot and exit",
    )
    p.set_defaults(func=cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
