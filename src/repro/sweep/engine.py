"""Sharded repro sweep: the workload × tool × scale matrix, cached.

The paper's evaluation is a full matrix — every workload, at several
input scales, replayed under every tool.  This engine runs that matrix
as independent *cells* ``(workload, scale)``:

* each cell records its trace **once** into the content-addressed
  :class:`~repro.sweep.store.TraceStore` (or loads it back on a warm
  run via the crash-safe scanner), replays it under the requested
  tools, and profiles it into one drms shard and one rms shard —
  profiler snapshots taken at an execution boundary
  (:meth:`~repro.core.timestamping.DrmsProfiler.begin_trace`), so they
  are small, picklable and exactly mergeable;
* cells run process-parallel under the one pool supervisor the replay
  runner and partitioned replay use (:func:`repro.tools.pool.supervise`
  — one round deadline, bounded retries with jittered exponential
  backoff, serial fallback), with inline execution as the fallback and
  exclusion with a structured :class:`~repro.tools.pool.Degradation`
  record as the last resort;
* per workload, the per-scale shards are reduced with the associative
  :meth:`~repro.core.timestamping.DrmsProfiler.merge` and the merged
  worst-case cost plots are classified with
  :func:`~repro.analysis.costfunc.classify_trend` /
  :func:`~repro.analysis.costfunc.best_fit` — the per-routine empirical
  cost models the sweep exists to produce, on both the drms and the rms
  metric (their disagreement is the paper's headline figure).

Replay *measurements* are also cached in the entry's meta sidecar: a
fully-warm sweep reuses the stored per-tool numbers (marked
``"source": "cache"`` in the report) instead of re-measuring identical
byte streams; pass ``reuse_measurements=False`` to force re-measuring.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.costfunc import classify_trend
# unused here since the writer stores fused rows; kept so perfbench's
# layer hook on ``engine.fuse_batch`` still resolves
from repro.core.events import fuse_batch  # noqa: F401
from repro.core.events import fuse_segments, write_rows
from repro.core.rms import RmsProfiler
from repro.core.timestamping import DrmsProfiler
from repro.sweep.store import TraceKey, TraceStore
from repro.tools.pool import (
    Degradation,
    active_segments,
    pool_stats,
    supervise,
)
from repro.tools.runner import (
    DEFAULT_ENGINE,
    DEFAULT_TOOLS,
    check_engine,
    record_trace,
    replay_tool,
)
from repro.workloads.registry import get_workload

__all__ = [
    "CellTask",
    "SweepCell",
    "SweepConfig",
    "SweepResult",
    "merge_store_profiles",
    "run_cell",
    "run_sweep",
]

@dataclass(frozen=True)
class SweepCell:
    """One cell of the sweep matrix."""

    workload: str
    scale: int
    threads: int

    @property
    def id(self) -> str:
        return f"{self.workload}@s{self.scale}"


@dataclass(frozen=True)
class SweepConfig:
    """Everything that defines a sweep run.

    ``tools`` are names from
    :data:`~repro.tools.runner.DEFAULT_TOOLS`; ``fault_seed`` attaches
    a fresh :class:`~repro.vm.faults.FaultPlan` per recording (and is
    part of the cache key via the plan digest).
    """

    workloads: Tuple[str, ...]
    scales: Tuple[int, ...]
    store_root: str
    threads: int = 4
    tools: Tuple[str, ...] = tuple(DEFAULT_TOOLS)
    repeats: int = 1
    engine: str = DEFAULT_ENGINE
    parallel: Optional[int] = None
    #: intra-cell partitioned replay: cut each cell's trace at depth-zero
    #: section boundaries and replay the ranges in parallel (``0`` =
    #: one per CPU, ``None`` = off).  Per-partition profiler shards are
    #: cached individually in the store, so a warm sweep re-merges them
    #: instead of re-replaying.
    partitions: Optional[int] = None
    fault_seed: Optional[int] = None
    replay_timeout: float = 300.0
    max_retries: int = 2
    backoff_base: float = 0.25
    reuse_measurements: bool = True

    def validate(self) -> None:
        if not self.workloads:
            raise ValueError("sweep needs at least one workload")
        if not self.scales:
            raise ValueError("sweep needs at least one scale")
        if any(scale < 1 for scale in self.scales):
            raise ValueError("scales must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.parallel is not None and self.parallel < 1:
            raise ValueError("parallel must be >= 1")
        if self.partitions is not None and self.partitions < 0:
            raise ValueError("partitions must be >= 0")
        if self.replay_timeout <= 0:
            raise ValueError("replay_timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        unknown = [t for t in self.tools if t not in DEFAULT_TOOLS]
        if unknown:
            raise ValueError(f"unknown tools: {', '.join(unknown)}")
        check_engine(self.engine)

    def cells(self) -> List[SweepCell]:
        return [
            SweepCell(workload, scale, self.threads)
            for workload in self.workloads
            for scale in self.scales
        ]

    def cell_task(self, cell: SweepCell) -> "CellTask":
        """The self-contained work unit for one cell of this sweep."""
        return CellTask(
            cell=cell,
            store_root=self.store_root,
            tools=self.tools,
            repeats=self.repeats,
            fault_seed=self.fault_seed,
            reuse_measurements=self.reuse_measurements,
            engine=self.engine,
            partitions=self.partitions,
        )


@dataclass(frozen=True)
class CellTask:
    """One self-contained unit of sweep work.

    Everything :func:`run_cell` needs, picklable (process pools) and
    JSON-round-trippable (the service's lease responses) — this is the
    shape a :class:`~repro.service.coordinator.Coordinator` hands to a
    leased worker, and what the in-process pool ships too.
    """

    cell: SweepCell
    store_root: str
    tools: Tuple[str, ...]
    repeats: int = 1
    fault_seed: Optional[int] = None
    reuse_measurements: bool = True
    engine: str = DEFAULT_ENGINE
    partitions: Optional[int] = None
    #: distributed trace context (a TraceContext.to_dict()), or None;
    #: a plain dict so the frozen dataclass stays hashable-free/picklable
    #: and the wire form needs no extra serialisation
    trace: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.cell.workload,
            "scale": self.cell.scale,
            "threads": self.cell.threads,
            "store_root": self.store_root,
            "tools": list(self.tools),
            "repeats": self.repeats,
            "fault_seed": self.fault_seed,
            "reuse_measurements": self.reuse_measurements,
            "engine": self.engine,
            "partitions": self.partitions,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellTask":
        return cls(
            cell=SweepCell(
                data["workload"], int(data["scale"]), int(data["threads"])
            ),
            store_root=data["store_root"],
            tools=tuple(data["tools"]),
            repeats=int(data.get("repeats", 1)),
            fault_seed=data.get("fault_seed"),
            reuse_measurements=bool(data.get("reuse_measurements", True)),
            engine=data.get("engine", DEFAULT_ENGINE),
            partitions=data.get("partitions"),
            trace=data.get("trace"),
        )


def run_cell(task: CellTask) -> Dict[str, Any]:
    """Process one cell end to end — the worker-loop entry point.

    Callable from a pool worker, a service worker across the HTTP wire,
    or inline; idempotent by construction (every artifact lands in the
    content-addressed store via atomic writes), so re-running a task
    after a crash or lost lease converges on byte-identical state.
    """
    return _run_cell(
        task.cell,
        task.store_root,
        task.tools,
        task.repeats,
        task.fault_seed,
        task.reuse_measurements,
        task.engine,
        task.partitions,
        trace=task.trace,
    )


def merge_store_profiles(
    store_root: str,
    workloads: Sequence[str],
    scales: Sequence[int],
    *,
    threads: int = 4,
    fault_seed: Optional[int] = None,
    only_cells: Optional[Sequence[str]] = None,
) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """Merge per-cell profiler shards straight from a store.

    Cells merge in the canonical sweep order (workload-major,
    scale-minor), so the result is byte-comparable with a serial
    :func:`run_sweep` regardless of the order cells were *completed*
    in — the property the service's kill-anywhere tests pin.  Returns
    ``(merged, missing)`` where ``merged`` maps workload →
    ``{"drms", "rms"}`` profilers and ``missing`` lists cell ids whose
    shards were absent or unreadable.
    """
    store = TraceStore(store_root)
    wanted = set(only_cells) if only_cells is not None else None
    merged: Dict[str, Dict[str, Any]] = {}
    missing: List[str] = []
    for workload in workloads:
        for scale in scales:
            cell = SweepCell(workload, scale, threads)
            if wanted is not None and cell.id not in wanted:
                continue
            key = _cell_key(cell, fault_seed)
            drms = store.get_shard(key, "drms")
            rms = store.get_shard(key, "rms")
            if drms is None or rms is None:
                missing.append(cell.id)
                continue
            if workload in merged:
                merged[workload]["drms"].merge(drms)
                merged[workload]["rms"].merge(rms)
            else:
                merged[workload] = {"drms": drms, "rms": rms}
    return merged, missing


def _cell_key(cell: SweepCell, fault_seed: Optional[int]) -> TraceKey:
    if fault_seed is None:
        fault_digest = ""
    else:
        from repro.vm.faults import FaultPlan

        fault_digest = FaultPlan(seed=fault_seed).digest()
    return TraceKey(
        workload=cell.workload,
        scale=cell.scale,
        threads=cell.threads,
        fault_digest=fault_digest,
    )


def _cell_builder(cell: SweepCell, fault_seed: Optional[int]):
    workload = get_workload(cell.workload)

    def build():
        machine = workload.build(threads=cell.threads, scale=cell.scale)
        if fault_seed is not None:
            # Fresh plan per build: decisions are a pure function of
            # (seed, decision index), so every build sees the identical
            # fault schedule — and so does the cache key.
            from repro.vm.faults import FaultPlan

            machine.set_fault_plan(FaultPlan(seed=fault_seed))
        return machine

    return build


def _run_cell(
    cell: SweepCell,
    store_root: str,
    tools: Tuple[str, ...],
    repeats: int,
    fault_seed: Optional[int],
    reuse_measurements: bool,
    engine: str = DEFAULT_ENGINE,
    partitions: Optional[int] = None,
    trace: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Process one sweep cell end to end (pool worker entry point, also
    called inline for serial runs and fallbacks).  Returns a picklable
    payload; the profiler shards inside it are shadow-free
    (``begin_trace()``), so shipping them back is cheap."""
    start = time.perf_counter()
    store = TraceStore(store_root)
    key = _cell_key(cell, fault_seed)

    # ``rows`` are the trace's fused rows: read back from the store on a
    # warm cell, fused once from the recording on a cold one — and then
    # stored, so a cold cell replays exactly the rows it writes.
    rows = store.get(key)
    cached = rows is not None
    record_time = 0.0
    if rows is None:
        record_time, batch, _machine = record_trace(
            _cell_builder(cell, fault_seed)
        )
        rows, row_bounds = fuse_segments(batch, _machine.trace_boundaries)
        # Boundary-aligned persistence: the planner's depth-zero cut
        # points survive the cache round-trip.
        store.put(key, rows, boundaries=row_bounds)
    events = rows.event_count()

    meta = store.get_meta(key) or {}
    meta.setdefault("workload", cell.workload)
    meta.setdefault("scale", cell.scale)
    meta.setdefault("threads", cell.threads)
    meta.setdefault("events", events)
    stored_replays = meta.get("replays") or {}

    replays: Dict[str, Dict[str, Any]] = {}
    measured_any = False
    for name in tools:
        entry = stored_replays.get(name) if reuse_measurements else None
        if (
            isinstance(entry, dict)
            and entry.get("repeats") == repeats
            # Cached numbers are only comparable within one engine; a
            # meta with no engine (or a retired one) is re-measured.
            and entry.get("engine") == engine
            and isinstance(entry.get("seconds"), float)
        ):
            replays[name] = {
                "seconds": entry["seconds"],
                "space_cells": entry["space_cells"],
                "source": "cache",
            }
            continue
        seconds, space = replay_tool(
            DEFAULT_TOOLS[name], rows, repeats, engine=engine
        )
        # Four significant digits, taken here so that a measured row and
        # the cached one read back later agree, and the store's meta
        # holds no timing noise beyond them.
        seconds = float(f"{seconds:.4g}")
        replays[name] = {
            "seconds": seconds,
            "space_cells": space,
            "source": "measured",
        }
        stored_replays[name] = {
            "seconds": seconds,
            "space_cells": space,
            "repeats": repeats,
            "engine": engine,
        }
        measured_any = True
    if measured_any or not cached:
        meta["replays"] = stored_replays
        store.put_meta(key, meta)

    drms = rms = None
    cell_partitions: Optional[int] = None
    shard_bytes: Dict[str, int] = {"trace": store.entry_bytes(key)}
    if partitions is not None:
        # Intra-trace partitioned replay (PR 6; per-thread cuts PR 9):
        # cut the cell's trace at section boundaries — depth-zero where
        # available, mid-activation with carries otherwise — and make
        # the *per-partition* shard the cache unit: a warm sweep
        # re-merges cached partition shards (exact and cheap) instead
        # of re-replaying the trace.
        from repro.core.tracefile import plan_partitions
        from repro.tools.partition import (
            merge_partition_shards,
            replay_partitioned,
            resolve_partitions,
        )

        # Use the persisted payload when there is one: its section
        # framing carries the recorded execution boundaries, which a
        # fresh default to_bytes() would drop.
        payload = store.payload(key) or write_rows(rows)
        plan = plan_partitions(payload, resolve_partitions(partitions))
        cell_partitions = len(plan.partitions)
        if cell_partitions > 1:
            n = cell_partitions
            rows: Dict[int, list] = {}
            for part in plan.partitions:
                row = [
                    store.get_shard(key, f"{kind}.p{part.index}of{n}")
                    for kind in ("drms", "rms")
                ]
                if all(s is not None for s in row):
                    rows[part.index] = row
            missing = [
                p.index for p in plan.partitions if p.index not in rows
            ]
            shards_cached = not missing
            if missing:
                rep = replay_partitioned(
                    payload,
                    plan=plan,
                    kinds=("drms", "rms"),
                    engine=engine,
                    only=missing,
                    merge=False,
                    trace=trace,
                )
                for row in rep.shards:
                    # Store pristine shards *before* merging: the merge
                    # below mutates the profilers in place.
                    for shard in row:
                        store.put_shard(
                            key, f"{shard.kind}.p{shard.index}of{n}", shard
                        )
                    rows[row[0].index] = row
            merged = merge_partition_shards([rows[i] for i in sorted(rows)])
            drms = merged["drms"]
            rms = merged["rms"]
            # Publish the merged result under the plain shard keys too:
            # store-level consumers (service job reports,
            # merge_store_profiles) read those without needing the
            # partition plan.  The partitioned warm path above still
            # re-merges from the per-partition shards, so the plain
            # shards change only when a partition was replayed; a warm
            # rerun leaves every store file as it found it.
            if missing or not all(
                os.path.exists(store.shard_path(key, kind))
                for kind in ("drms", "rms")
            ):
                store.put_shard(key, "drms", drms)
                store.put_shard(key, "rms", rms)
            for kind in ("drms", "rms"):
                shard_bytes[kind] = sum(
                    os.path.getsize(store.shard_path(key, f"{kind}.p{i}of{n}"))
                    for i in range(n)
                )
    if drms is None:
        drms = store.get_shard(key, "drms")
        rms = store.get_shard(key, "rms")
        shards_cached = drms is not None and rms is not None
        if not shards_cached:
            # Shards are engine-invariant (property-tested): the columnar
            # kernel only changes how fast we get to the identical
            # profile.
            drms = DrmsProfiler(keep_activations=False)
            rms = RmsProfiler(keep_activations=False)
            if engine == "columnar":
                drms.consume_columnar(rows)
                rms.consume_columnar(rows)
            else:
                for event in rows.iter_events():
                    drms.consume(event)
                    rms.consume(event)
            drms.begin_trace()
            rms.begin_trace()
            store.put_shard(key, "drms", drms)
            store.put_shard(key, "rms", rms)
        shard_bytes["drms"] = os.path.getsize(store.shard_path(key, "drms"))
        shard_bytes["rms"] = os.path.getsize(store.shard_path(key, "rms"))

    return {
        "cell": cell,
        "cached": cached,
        "shards_cached": shards_cached,
        "corrupt": store.corrupt,
        "record_time": record_time,
        "events": events,
        "partitions": cell_partitions,
        "replays": replays,
        "shard_bytes": shard_bytes,
        "wall_time": time.perf_counter() - start,
        "drms": drms,
        "rms": rms,
    }


def run_sweep(config: SweepConfig, metrics=None, tracer=None) -> "SweepResult":
    """Execute the sweep matrix and aggregate the merged cost models.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) receives
    ``sweep.cache.*`` counters and per-sweep gauges; ``tracer`` (a
    :class:`repro.obs.SpanTracer`) gets one span per phase plus one per
    serially-executed cell.  Both default to off.
    """
    config.validate()
    for name in config.workloads:
        get_workload(name)  # unknown workloads fail before any work
    if tracer is None:
        from repro.obs import NULL_TRACER

        tracer = NULL_TRACER

    start = time.perf_counter()
    cells = config.cells()
    payloads: Dict[str, Dict[str, Any]] = {}  # by cell id
    degradations: List[Degradation] = []
    pool_before = pool_stats()

    supervised = config.parallel is not None and config.parallel > 1
    attempts: Dict[str, int] = {}
    with tracer.span(
        "sweep-cells",
        track="sweep",
        cells=len(cells),
        mode="parallel" if supervised else "serial",
    ):
        if supervised:
            # One process-wide warm pool serves every round and every
            # cell; a cell's own partitioned replay runs inline in its
            # worker (pools do not nest).
            _unfinished, attempts, degradations = supervise(
                {
                    cell.id: (run_cell, (config.cell_task(cell),))
                    for cell in cells
                },
                stage="parallel-sweep",
                workers=config.parallel,
                timeout=config.replay_timeout,
                max_retries=config.max_retries,
                backoff_base=config.backoff_base,
                on_result=payloads.__setitem__,
            )
            for cell_id, payload in payloads.items():
                payload["attempts"] = attempts[cell_id] + 1
                payload["completed_by"] = "pool"
        for cell in cells:
            if cell.id in payloads:
                continue
            # Serial execution: the primary path without workers, the
            # graceful fallback with them.  A cell failing here is
            # excluded rather than aborting the sweep — unless the whole
            # run is serial, where the old hard-error contract holds.
            try:
                with tracer.span("cell", track="sweep", cell=cell.id):
                    payload = run_cell(config.cell_task(cell))
                payload["attempts"] = attempts.get(cell.id, 0) + 1
                payload["completed_by"] = "inline"
                payloads[cell.id] = payload
            except Exception as exc:
                if not supervised:
                    raise
                degradations.append(
                    Degradation(
                        "serial-sweep",
                        cell.id,
                        attempts.get(cell.id, 0) + 1,
                        f"{type(exc).__name__}: {exc}",
                        "excluded",
                    )
                )

    with tracer.span("sweep-merge", track="sweep"):
        merged_drms: Dict[str, DrmsProfiler] = {}
        merged_rms: Dict[str, RmsProfiler] = {}
        for cell in cells:
            payload = payloads.get(cell.id)
            if payload is None:
                continue
            name = cell.workload
            if name in merged_drms:
                merged_drms[name].merge(payload["drms"])
                merged_rms[name].merge(payload["rms"])
            else:
                merged_drms[name] = payload["drms"]
                merged_rms[name] = payload["rms"]
        trends = {
            name: {
                "drms": _routine_trends(merged_drms[name]),
                "rms": _routine_trends(merged_rms[name]),
            }
            for name in merged_drms
        }

    wall_time = time.perf_counter() - start
    pool_after = pool_stats()
    pool_report = {
        "workers": pool_after["workers"],
        "spawns": pool_after["spawns"] - pool_before["spawns"],
        "respawns_broken": (
            pool_after["respawns_broken"] - pool_before["respawns_broken"]
        ),
        "tasks": pool_after["tasks"] - pool_before["tasks"],
        # submissions that rode an already-warm executor: the whole
        # point of hoisting pool lifetime to sweep scope
        "tasks_reused": (
            pool_after["tasks_reused"] - pool_before["tasks_reused"]
        ),
        # sampled after all cells finished — anything nonzero is a leak
        "shm_segments_active": active_segments(),
    }
    result = SweepResult(
        config=config,
        cells=[payloads[cell.id] for cell in cells if cell.id in payloads],
        trends=trends,
        degradations=degradations,
        wall_time=wall_time,
        pool=pool_report,
    )
    if metrics is not None and metrics.enabled:
        cache = result.cache_stats()
        metrics.counter("sweep.cache.hits").value += cache["hits"]
        metrics.counter("sweep.cache.misses").value += cache["misses"]
        metrics.counter("sweep.cache.corrupt").value += cache["corrupt"]
        metrics.gauge("sweep.cells").set(len(result.cells))
        metrics.gauge("sweep.wall_us").set(int(wall_time * 1e6))
        metrics.gauge("pool.workers").set(pool_report["workers"])
        metrics.gauge("pool.tasks_reused").set(pool_report["tasks_reused"])
        metrics.gauge("shm.segments_active").set(
            pool_report["shm_segments_active"]
        )
        for degradation in degradations:
            metrics.counter(
                "sweep.degradations",
                {"stage": degradation.stage, "action": degradation.action},
            ).inc()
    return result


def _routine_trends(profiler) -> Dict[str, Dict[str, Any]]:
    """Classify the merged worst-case cost plot of every routine.

    Routines whose merged plot still has a single distinct input size
    get no model (``model: null`` in the report) — that is the
    profile-richness story of Section 4.1, not an error.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for routine, profile in sorted(profiler.profiles.by_routine().items()):
        plot = profile.worst_case_plot()
        entry: Dict[str, Any] = {
            "calls": profile.calls,
            "points": len(plot),
            "model": None,
            "r_squared": None,
            "exponent": None,
        }
        if len(plot) >= 2:
            entry.update(classify_trend(plot))
        out[routine] = entry
    return out


@dataclass
class SweepResult:
    """Everything a sweep produced, reportable as strict JSON."""

    config: SweepConfig
    cells: List[Dict[str, Any]] = field(default_factory=list)
    trends: Dict[str, Dict[str, Dict[str, Any]]] = field(default_factory=dict)
    degradations: List[Degradation] = field(default_factory=list)
    wall_time: float = 0.0
    #: warm-pool reuse over this sweep (deltas of the process-global
    #: :func:`repro.tools.pool.pool_stats` across the run)
    pool: Dict[str, int] = field(default_factory=dict)

    def cache_stats(self) -> Dict[str, float]:
        hits = sum(1 for p in self.cells if p["cached"])
        misses = len(self.cells) - hits
        corrupt = sum(p["corrupt"] for p in self.cells)
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "corrupt": corrupt,
            "hit_rate": hits / lookups if lookups else 0.0,
        }

    @property
    def excluded_cells(self) -> List[str]:
        return sorted(
            {d.tool for d in self.degradations if d.action == "excluded"}
        )

    def report_dict(self) -> Dict[str, Any]:
        """JSON-serialisable report (pass through
        :func:`repro.core.serialize.dumps_strict`: degenerate trends
        carry ``nan`` exponents)."""
        return {
            "format": "repro-sweep",
            "version": 1,
            "workloads": list(self.config.workloads),
            "scales": list(self.config.scales),
            "threads": self.config.threads,
            "tools": list(self.config.tools),
            "repeats": self.config.repeats,
            "engine": self.config.engine,
            "parallel": self.config.parallel,
            "partitions": self.config.partitions,
            "faults": self.config.fault_seed,
            "reuse_measurements": self.config.reuse_measurements,
            "wall_time": self.wall_time,
            "cache": self.cache_stats(),
            "pool": dict(self.pool),
            "cells": [
                {
                    "workload": p["cell"].workload,
                    "scale": p["cell"].scale,
                    "threads": p["cell"].threads,
                    "cached": p["cached"],
                    "shards_cached": p["shards_cached"],
                    # retry/requeue provenance: which attempt finally
                    # finished the cell, and where it ran — degraded
                    # runs are auditable from the report alone.
                    "attempts": p.get("attempts", 1),
                    "completed_by": p.get("completed_by", "inline"),
                    "record_time": p["record_time"],
                    "events": p["events"],
                    "partitions": p.get("partitions"),
                    "wall_time": p["wall_time"],
                    "shard_bytes": dict(p["shard_bytes"]),
                    "replays": {
                        tool: dict(row)
                        for tool, row in p["replays"].items()
                    },
                }
                for p in self.cells
            ],
            "trends": self.trends,
            "excluded": self.excluded_cells,
            "degradations": [
                {
                    "stage": d.stage,
                    "cell": d.tool,
                    "attempt": d.attempt,
                    "reason": d.reason,
                    "action": d.action,
                }
                for d in self.degradations
            ],
        }
