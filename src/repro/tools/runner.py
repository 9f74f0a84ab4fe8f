"""Measurement harness: record the trace once, replay it under each tool.

Regenerates the Table 1 / Figure 16 methodology:

* **native execution** — the machine runs uninstrumented
  (``instrument=False``): primitive ops skip event construction, the
  closest analogue of running the benchmark outside Valgrind;
* **recorded execution** — the machine runs instrumented *once* with a
  batched opcode encoder attached (:meth:`Machine.set_batch_sink`),
  producing the compact struct-of-arrays trace of
  :class:`repro.core.events.EventBatch`.  The recording time is the
  shared instrumentation-infrastructure cost every tool pays — exactly
  what nulgrind isolates in the paper;
* **tool replay** — :func:`replay_tool`, the one replay loop, feeds
  each tool's :meth:`consume_batch` the same stored rows (the recorded
  batch fused once by the trace writer), so per-tool analysis work is
  measured over *identical* event streams instead of re-executing the
  workload ``tools x repeats`` times.  Only the tool's consumption is
  timed — never trace decode or run expansion — whether the replay runs
  in process or in a pool worker.  Tool time = record time + best
  replay time;
* **slowdown** — tool time over native time (geometric means across a
  suite, as in Table 1);
* **space overhead** — (workload cells + tool shadow cells) over
  workload cells.

Because the trace is an artifact, replays are embarrassingly parallel:
``measure_workload(..., parallel=N)`` ships the serialised trace (its
fused rows, :func:`~repro.core.events.write_rows`) to ``N`` worker
processes, each of which decodes it once and replays through the same
:func:`replay_tool`, concurrently under
:func:`repro.tools.pool.supervise`: a stuck
or killed worker is retried a bounded number of times with jittered
exponential backoff, and a tool the pool cannot finish degrades to
serial replay — or, if it fails even serially, is excluded from the
measurement.  Every such decision is recorded as a :class:`Degradation`
on the returned measurement, so a run never hangs and never dies with
an opaque worker error.

Wall-clock timing of small workloads is noisy, so native runs and
replays take the best of ``repeats`` attempts; every replay builds a
fresh tool so state never leaks between runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# unused here since the writer stores fused rows; kept so perfbench's
# layer hook on ``runner.fuse_batch`` still resolves
from repro.core.events import fuse_batch  # noqa: F401
from repro.core.events import (
    EventBatch,
    count_superops,
    expand_runs,
    fuse_segments,
    write_rows,
)
# unused here since workers decode with ``EventBatch.from_bytes``; kept
# so perfbench's layer hook on ``runner.iter_section_batches`` resolves
from repro.core.tracefile import iter_section_batches  # noqa: F401
from repro.obs.distributed import flight_dump_degradations
from repro.tools.pool import Degradation, supervise
from repro.tools.aprof import AprofTool
from repro.tools.aprof_drms import AprofDrmsTool
from repro.tools.base import AnalysisTool
from repro.tools.callgrind import Callgrind
from repro.tools.helgrind import Helgrind
from repro.tools.memcheck import Memcheck
from repro.tools.nulgrind import Nulgrind
from repro.vm import Machine

__all__ = [
    "DEFAULT_TOOLS",
    "ENGINES",
    "DEFAULT_ENGINE",
    "check_engine",
    "Degradation",
    "ToolMeasurement",
    "WorkloadMeasurement",
    "record_trace",
    "replay_tool",
    "measure_workload",
    "publish_measurement",
    "geometric_mean",
    "suite_summary",
]

#: selectable replay engines: ``scalar`` decodes dataclass events and
#: feeds ``consume`` (the paper-faithful reference loop); ``columnar``
#: (the one fast path) hands superop-capable tools the fused rows the
#: trace writer stores, and every other tool their plain expansion,
#: through ``consume_batch``.  Both are bit-identical in profiling
#: output (property-tested).
ENGINES = ("scalar", "columnar")

#: the default replay engine
DEFAULT_ENGINE = "columnar"


def check_engine(engine: str) -> None:
    """Reject an engine name outside :data:`ENGINES` up front."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r} (choose from {', '.join(ENGINES)})"
        )


#: factories for the six tools of Table 1, in the paper's column order
DEFAULT_TOOLS: Dict[str, Callable[[], AnalysisTool]] = {
    "nulgrind": Nulgrind,
    "memcheck": Memcheck,
    "callgrind": Callgrind,
    "helgrind": Helgrind,
    "aprof": AprofTool,
    "aprof-drms": AprofDrmsTool,
}


@dataclass
class ToolMeasurement:
    """One tool's numbers on one workload."""

    tool: str
    wall_time: float
    slowdown: float
    space_cells: int
    space_overhead: float
    events: int
    #: this tool's own replay time (``wall_time`` minus the shared
    #: record time)
    replay_time: float = 0.0


@dataclass
class WorkloadMeasurement:
    """All measurements for one workload."""

    workload: str
    native_time: float
    native_cells: int
    tools: Dict[str, ToolMeasurement] = field(default_factory=dict)
    #: wall time of the single instrumented recording run (the shared
    #: infrastructure cost included in every tool's ``wall_time``)
    record_time: float = 0.0
    #: events in the recorded trace
    trace_events: int = 0
    #: serialised size of the recorded trace, when a parallel or
    #: partitioned path forced serialisation (0 = never serialised);
    #: ``trace_bytes / trace_events`` is the encoding-efficiency gauge
    trace_bytes: int = 0
    #: self-healing actions taken while measuring (empty = clean run);
    #: a tool that was ``excluded`` has no entry in :attr:`tools`
    degradations: List[Degradation] = field(default_factory=list)
    #: replay engine used for the tool measurements (see :data:`ENGINES`)
    engine: str = DEFAULT_ENGINE
    #: run superops produced by fusing the recorded trace (0 unless the
    #: columnar engine ran) — the fusion-effectiveness observable
    superops_fused: int = 0
    #: effective partition count for partition-capable tools (``None``
    #: when partitioned replay was not requested; 1 when the trace
    #: degraded to a single partition — see :attr:`partition_reason`)
    partitions: Optional[int] = None
    #: why the planner could not split the trace (``None`` = split fine
    #: or partitioning off)
    partition_reason: Optional[str] = None

    @property
    def excluded_tools(self) -> List[str]:
        """Tools the supervisor dropped from this measurement, sorted."""
        return sorted(
            {d.tool for d in self.degradations if d.action == "excluded"}
        )


def record_trace(build: Callable[[], Machine]) -> Tuple[float, EventBatch, Machine]:
    """Run the workload instrumented once, recording the opcode trace.

    Returns ``(wall_time, batch, machine)``; the wall time covers the
    instrumented execution plus encoding — the infrastructure cost that
    every tool-attached run would pay.
    """
    machine = build()
    machine.instrument = True
    machine.set_batch_sink()  # record; no consumer
    start = time.perf_counter()
    machine.run()
    elapsed = time.perf_counter() - start
    batch = machine.encoded_trace
    assert batch is not None
    return elapsed, batch, machine


def replay_tool(
    factory: Callable[[], AnalysisTool],
    rows: EventBatch,
    repeats: int = 3,
    engine: str = DEFAULT_ENGINE,
) -> Tuple[float, int]:
    """Replay ``rows`` under ``repeats`` fresh tools; returns the best
    wall time and the matching tool's shadow-state cells.

    ``engine`` selects the consumption path (see :data:`ENGINES`).
    ``rows`` may hold plain or fused rows (the stored form).  Under
    ``columnar``, superop-capable tools take them as they are and every
    other tool their plain expansion (:func:`expand_runs`), through
    :meth:`~AnalysisTool.consume_batch`.  Event decoding and run
    expansion stay outside the timed region: the time is the tool's
    analysis work alone.
    """
    check_engine(engine)
    best_time = math.inf
    space = 0
    if engine == "scalar":
        events = list(rows.iter_events())
    for _ in range(repeats):
        tool = factory()
        if engine == "scalar":
            consume = tool.consume
            start = time.perf_counter()
            for event in events:
                consume(event)
            elapsed = time.perf_counter() - start
        else:
            payload = rows if tool.supports_superops else expand_runs(rows)
            start = time.perf_counter()
            tool.consume_batch(payload)
            elapsed = time.perf_counter() - start
        if elapsed < best_time:
            best_time = elapsed
            space = tool.space_cells()
    return best_time, space


def _replay_worker(
    factory: Callable[[], AnalysisTool],
    payload: bytes,
    repeats: int,
    engine: str = DEFAULT_ENGINE,
) -> Tuple[float, int]:
    """Process-pool entry point: decode the shipped trace once, then
    :func:`replay_tool` it."""
    return replay_tool(factory, EventBatch.from_bytes(payload), repeats, engine)


def measure_workload(
    name: str,
    build: Callable[[], Machine],
    tools: Optional[Dict[str, Callable[[], AnalysisTool]]] = None,
    repeats: int = 3,
    parallel: Optional[int] = None,
    replay_timeout: float = 120.0,
    max_retries: int = 2,
    backoff_base: float = 0.25,
    metrics=None,
    tracer=None,
    engine: str = DEFAULT_ENGINE,
    partitions: Optional[int] = None,
) -> WorkloadMeasurement:
    """Measure native and per-tool execution of one workload factory.

    ``parallel=N`` replays the recorded trace under the tools in ``N``
    supervised worker processes instead of serially; results are
    identical because every replay consumes the same recorded batch.
    Each round of parallel replays has ``replay_timeout`` seconds per
    wave of ``parallel`` tools, and a tool gets up to ``max_retries``
    retries (exponential backoff starting at ``backoff_base`` seconds,
    with jitter) before degrading to serial replay; a tool failing even
    serially is excluded (see :func:`repro.tools.pool.supervise`).
    Self-healing actions are reported in ``.degradations`` — the call
    itself never hangs or raises on worker trouble.

    ``partitions`` switches partition-capable tools (those with a
    ``partition_kind`` — aprof and aprof-drms) to *intra-trace*
    parallel replay: the recorded trace is cut at depth-zero section
    boundaries, the ranges replay in a supervised process pool, and the
    shards merge exactly (see :mod:`repro.tools.partition`).  ``0``
    means one partition per CPU; ``None`` keeps partitioning off.
    Composes with ``parallel``, which still fans the remaining tools
    out across workers.  Partitioned replay times are end-to-end
    bytes-to-merged-profile, so they include ranged decode and the
    merge.  An unsplittable trace degrades to a
    single partition; ``.partition_reason`` says why.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) receives the
    measurement via :func:`publish_measurement`; ``tracer`` (a
    :class:`repro.obs.SpanTracer`) gets one span per phase — native,
    record, and the replay block — so a suite sweep renders as a
    Perfetto timeline.  Both default to off and cost nothing then.

    ``engine`` selects the replay path for every tool (see
    :data:`ENGINES`).  Recording is always unfused; the recorded batch
    is fused into run superops exactly once per workload, per execution
    boundary (:func:`fuse_segments`), and those rows are both what the
    in-process columnar replays consume and what a serialised trace
    stores.  Reported event counts are always logical (unfused) counts.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    check_engine(engine)
    if parallel is not None and parallel < 1:
        raise ValueError("parallel must be >= 1")
    if replay_timeout <= 0:
        raise ValueError("replay_timeout must be > 0")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if tools is None:
        tools = DEFAULT_TOOLS
    if tracer is None:
        from repro.obs import NULL_TRACER

        tracer = NULL_TRACER

    native_time = math.inf
    native_cells = 0
    with tracer.span("native", track="runner", workload=name):
        for _ in range(repeats):
            machine = build()
            machine.instrument = False
            start = time.perf_counter()
            machine.run()
            elapsed = time.perf_counter() - start
            native_time = min(native_time, elapsed)
            native_cells = max(native_cells, machine.space_cells())
    native_cells = max(native_cells, 1)

    with tracer.span("record", track="runner", workload=name):
        record_time, batch, _machine = record_trace(build)
    events = len(batch)

    # Fuse once per workload, outside every timed region: the rows
    # every in-process columnar replay shares are the rows the payload
    # below stores.  The machine marked an execution boundary per
    # completed run; fusing and sectioning per boundary keeps every
    # begin_trace() point on a section boundary, so the partition
    # planner gets its depth-zero cuts.
    rows, row_bounds = fuse_segments(batch, _machine.trace_boundaries)
    superops = count_superops(rows)[0] if engine == "columnar" else 0

    # Partition planning happens once per workload, outside every timed
    # region (the per-replay timed work is bytes-to-merged-profile).
    partition_tools: Dict[str, str] = {}
    partition_plan = None
    payload: Optional[bytes] = None
    eff_partitions: Optional[int] = None
    if partitions is not None:
        from repro.core.tracefile import plan_partitions
        from repro.tools.partition import resolve_partitions

        eff_partitions = resolve_partitions(partitions)
        payload = write_rows(rows, row_bounds)
        partition_plan = plan_partitions(payload, eff_partitions)
        partition_tools = {
            tool_name: kind
            for tool_name, factory in tools.items()
            if (kind := getattr(factory, "partition_kind", None)) is not None
        }

    supervised = parallel is not None and parallel > 1
    if supervised and payload is None:
        # One serialisation serves every supervised round.
        payload = write_rows(rows, row_bounds)
    replays: Dict[str, Tuple[float, int]] = {}
    degradations: List[Degradation] = []
    with tracer.span(
        "replay",
        track="runner",
        workload=name,
        mode="parallel" if supervised else "serial",
    ):
        attempts: Dict[str, int] = {}
        if supervised:
            # Every task pickles a factory and the payload itself: a
            # stored trace is fused and small, so the copy costs less
            # than placing it in shared memory did.
            tasks = {
                tool_name: (_replay_worker, (factory, payload, repeats, engine))
                for tool_name, factory in tools.items()
                if tool_name not in partition_tools
            }
            _unfinished, attempts, degradations = supervise(
                tasks,
                stage="parallel-replay",
                workers=parallel,
                timeout=replay_timeout,
                max_retries=max_retries,
                backoff_base=backoff_base,
                on_result=replays.__setitem__,
            )
        if partition_tools:
            from repro.tools.partition import replay_partitioned
        for tool_name, kind in partition_tools.items():
            try:
                best_time = math.inf
                space = 0
                for _ in range(repeats):
                    rep = replay_partitioned(
                        payload,
                        plan=partition_plan,
                        kinds=(kind,),
                        engine=engine,
                        workers=eff_partitions,
                        timeout=replay_timeout,
                        max_retries=max_retries,
                        backoff_base=backoff_base,
                        metrics=metrics,
                        tracer=tracer,
                        label=tool_name,
                    )
                    degradations.extend(rep.degradations)
                    if rep.elapsed < best_time:
                        best_time = rep.elapsed
                        space = rep.max_space_cells
                replays[tool_name] = (best_time, space)
            except Exception as exc:
                # Partitioned replay failing outright (not a worker
                # hiccup — those are handled inside) falls back to the
                # plain serial path below.
                degradations.append(
                    Degradation(
                        "partition-replay",
                        tool_name,
                        1,
                        f"{type(exc).__name__}: {exc}",
                        "serial-fallback",
                    )
                )
        for tool_name, tool_factory in tools.items():
            if tool_name in replays:
                continue
            if supervised:
                # Graceful degradation: the pool could not produce a
                # result for this tool, so replay it serially — and if
                # even that fails, exclude the tool rather than losing
                # the run.
                try:
                    replays[tool_name] = replay_tool(
                        tool_factory, rows, repeats, engine
                    )
                except Exception as exc:
                    degradations.append(
                        Degradation(
                            "serial-replay",
                            tool_name,
                            attempts.get(tool_name, 0) + 1,
                            f"{type(exc).__name__}: {exc}",
                            "excluded",
                        )
                    )
            else:
                replays[tool_name] = replay_tool(
                    tool_factory, rows, repeats, engine
                )

    # If self-healing fired, preserve the last-moments ring so the span
    # timeline shows what led up to each fallback.
    flight_dump_degradations(
        tracer,
        degradations,
        f"replay degraded: {len(degradations)} action(s)",
        workload=name,
    )

    result = WorkloadMeasurement(
        name,
        native_time,
        native_cells,
        record_time=record_time,
        trace_events=events,
        trace_bytes=len(payload) if payload is not None else 0,
        degradations=degradations,
        engine=engine,
        superops_fused=superops,
        partitions=(
            len(partition_plan.partitions)
            if partition_plan is not None
            else None
        ),
        partition_reason=(
            partition_plan.reason if partition_plan is not None else None
        ),
    )
    for tool_name in tools:
        if tool_name not in replays:
            continue  # excluded after repeated failures (see degradations)
        replay_time, space = replays[tool_name]
        wall_time = record_time + replay_time
        result.tools[tool_name] = ToolMeasurement(
            tool=tool_name,
            wall_time=wall_time,
            slowdown=wall_time / native_time if native_time > 0 else math.inf,
            space_cells=space,
            space_overhead=(native_cells + space) / native_cells,
            events=events,
            replay_time=replay_time,
        )
    if metrics is not None:
        publish_measurement(result, metrics)
    return result


def publish_measurement(measurement: WorkloadMeasurement, registry) -> None:
    """Publish one workload's measurement into a metrics registry.

    Times become microsecond gauges labelled by workload (and tool, for
    replays); the supervision record folds into ``runner.retries`` /
    ``runner.timeouts`` / ``runner.fallbacks`` / ``runner.exclusions``
    counters plus a per-(stage, action) breakdown — the same
    :class:`Degradation` data the JSON report carries, queryable as
    metrics.
    """
    if registry is None or not registry.enabled:
        return
    w = {"workload": measurement.workload}
    # sub-microsecond replays (a no-op tool on a tiny trace) round up to
    # 1, not down to 0 — a measured duration gauge reading 0 is a lie
    us = lambda seconds: max(1, int(seconds * 1e6)) if seconds > 0 else 0  # noqa: E731
    registry.gauge("runner.native_us", w).set(us(measurement.native_time))
    registry.gauge("runner.record_us", w).set(us(measurement.record_time))
    registry.gauge("runner.trace_events", w).set(measurement.trace_events)
    registry.gauge("kernel.superops_fused", w).set(measurement.superops_fused)
    if measurement.trace_bytes and measurement.trace_events:
        registry.gauge("trace.bytes_per_event", w).set(
            round(measurement.trace_bytes / measurement.trace_events, 3)
        )
    from repro.tools.pool import active_segments, pool_stats

    pstats = pool_stats()
    registry.gauge("pool.workers").set(pstats["workers"])
    registry.gauge("pool.tasks").set(pstats["tasks"])
    registry.gauge("pool.tasks_reused").set(pstats["tasks_reused"])
    registry.gauge("shm.segments_active").set(active_segments())
    if measurement.partitions is not None:
        registry.gauge("runner.partitions", w).set(measurement.partitions)
    for tool_name, row in measurement.tools.items():
        labels = {"workload": measurement.workload, "tool": tool_name}
        registry.gauge("runner.replay_us", labels).set(us(row.replay_time))
        registry.gauge("runner.space_cells", labels).set(row.space_cells)
        registry.histogram("runner.replay_latency_us").observe(
            us(row.replay_time)
        )
    for degradation in measurement.degradations:
        if degradation.action == "retried":
            registry.counter("runner.retries").inc()
        elif degradation.action == "serial-fallback":
            registry.counter("runner.fallbacks").inc()
        elif degradation.action == "excluded":
            registry.counter("runner.exclusions").inc()
        if "timeout" in degradation.reason:
            registry.counter("runner.timeouts").inc()
        registry.counter(
            "runner.degradations",
            {"stage": degradation.stage, "action": degradation.action},
        ).inc()


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of the positive entries of ``values``.

    An empty input raises :class:`ValueError` (the caller has nothing
    to average — historically this surfaced later as an opaque
    ``ZeroDivisionError``); a non-empty input with no positive entries
    keeps the legacy 0.0 so degenerate-but-present rows don't abort a
    sweep.
    """
    if not values:
        raise ValueError("geometric_mean() of an empty sequence")
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def suite_summary(
    measurements: Sequence[WorkloadMeasurement],
) -> Dict[str, Dict[str, float]]:
    """Geometric-mean slowdown and space overhead per tool over a suite —
    one Table 1 block.

    Raises a :class:`ValueError` naming the excluded tools when the
    supervisor dropped *every* tool on *every* workload: there is no
    row left to summarise, and silently returning ``{}`` used to let
    the caller trip over ``ZeroDivisionError``/``StatisticsError``
    far from the cause.  An empty ``measurements`` list still returns
    ``{}`` (nothing was attempted, nothing to report).
    """
    if not measurements:
        return {}
    tool_names: List[str] = []
    for m in measurements:
        for tool_name in m.tools:
            if tool_name not in tool_names:
                tool_names.append(tool_name)
    if not tool_names:
        excluded = sorted({t for m in measurements for t in m.excluded_tools})
        raise ValueError(
            "every tool was excluded by supervision; nothing to summarise "
            f"(excluded: {', '.join(excluded) if excluded else 'unknown'} — "
            "see the measurements' degradations for reasons)"
        )
    summary: Dict[str, Dict[str, float]] = {}
    for tool_name in tool_names:
        # a tool excluded on some workload contributes only where it ran
        rows = [m.tools[tool_name] for m in measurements if tool_name in m.tools]
        summary[tool_name] = {
            "slowdown": geometric_mean([r.slowdown for r in rows]),
            "space_overhead": geometric_mean([r.space_overhead for r in rows]),
        }
    return summary
