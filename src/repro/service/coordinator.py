"""The sweep coordinator: journaled jobs, leased cells, exact recovery.

State model (DESIGN.md §13).  A *job* is a sweep spec; it decomposes
into the engine's cells ``(workload, scale)``.  Each cell walks::

    pending ──lease──▶ leased ──complete──▶ done        (terminal)
       ▲                  │
       │   expire/fail    │      attempts > max_retries
       └──────────────────┴────────────────────────────▶ failed (terminal)

Every transition is a journal record *before* it takes effect in
memory — the in-memory tables are nothing but a materialized view, and
:meth:`Coordinator.__init__` rebuilds them by replaying the journal
through the same ``_apply`` used live.  Requeue decisions (backoff
deadline, retry exhaustion) are computed once and embedded in the
record, so a restart under different knobs replays history verbatim.

Lease liveness is heartbeat-driven: a lease expires when its *most
recent* heartbeat (or grant) is older than ``lease_timeout`` — a
long-running cell keeps its lease by heartbeating, a SIGKILLed worker
stops heartbeating and loses it.  Completion is idempotent: the
content-addressed TraceStore means a cell re-executed after a lost
lease writes byte-identical artifacts under the same keys, so a
duplicate ``complete`` (or one arriving on an expired lease) can be
accepted or ignored without ever corrupting results.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.distributed import (
    FlightRecorder,
    SpanSidecar,
    TraceContext,
    flight_dump,
    sidecar_path,
)
from repro.service.journal import Journal
from repro.sweep.engine import CellTask, SweepCell
from repro.tools.runner import (
    DEFAULT_ENGINE,
    DEFAULT_TOOLS,
    Degradation,
    check_engine,
)

__all__ = [
    "CELL_DONE",
    "CELL_FAILED",
    "CELL_LEASED",
    "CELL_PENDING",
    "Coordinator",
    "JobState",
]

CELL_PENDING = "pending"
CELL_LEASED = "leased"
CELL_DONE = "done"
CELL_FAILED = "failed"

_TERMINAL = (CELL_DONE, CELL_FAILED)

#: ceiling on the per-cell requeue backoff, seconds
_MAX_BACKOFF = 60.0


@dataclass
class CellState:
    """Materialized view of one cell within a job."""

    cell: SweepCell
    state: str = CELL_PENDING
    #: attempts that ended (expired lease, explicit failure); the
    #: attempt that finally completes is ``attempts + 1``
    attempts: int = 0
    not_before: float = 0.0
    lease_id: Optional[str] = None
    worker: Optional[str] = None
    completed_by: Optional[str] = None
    completed_attempt: Optional[int] = None
    duplicate_completions: int = 0
    summary: Optional[Dict[str, Any]] = None
    history: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.cell.id,
            "workload": self.cell.workload,
            "scale": self.cell.scale,
            "threads": self.cell.threads,
            "state": self.state,
            "attempts": (
                self.completed_attempt
                if self.completed_attempt is not None
                else self.attempts
            ),
            "not_before": self.not_before,
            "lease": self.lease_id,
            "worker": self.worker,
            "completed_by": self.completed_by,
            "completed_attempt": self.completed_attempt,
            "duplicate_completions": self.duplicate_completions,
            "summary": self.summary,
            "history": list(self.history),
        }


@dataclass
class LeaseState:
    lease_id: str
    job_id: str
    cell_id: str
    worker: str
    granted_at: float
    last_heartbeat: float
    state: str = "live"  # live | expired | released

    def deadline(self, lease_timeout: float) -> float:
        return max(self.granted_at, self.last_heartbeat) + lease_timeout


@dataclass
class JobState:
    job_id: str
    spec: Dict[str, Any]
    submitted_at: float
    trace_id: str = ""
    cells: Dict[str, CellState] = field(default_factory=dict)
    #: submission order of cell ids — the canonical merge order, kept
    #: explicit so reports and shard merges match a serial ``run_sweep``
    cell_order: List[str] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {
            CELL_PENDING: 0,
            CELL_LEASED: 0,
            CELL_DONE: 0,
            CELL_FAILED: 0,
        }
        for cell in self.cells.values():
            out[cell.state] += 1
        return out

    @property
    def terminal(self) -> bool:
        return all(c.state in _TERMINAL for c in self.cells.values())

    @property
    def state(self) -> str:
        if not self.terminal:
            return "running"
        if any(c.state == CELL_FAILED for c in self.cells.values()):
            return "degraded"
        return "complete"


class Coordinator:
    """Owns the journal, the lease table, and the TraceStore root.

    Thread-safe: the HTTP layer calls in from handler threads.  The
    ``clock`` is injectable so the lease state machine is unit-testable
    without sleeping.
    """

    def __init__(
        self,
        store_root: str,
        journal_path: str,
        *,
        lease_timeout: float = 30.0,
        heartbeat_interval: Optional[float] = None,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        metrics=None,
        clock=time.time,
        fsync: bool = True,
        readonly: bool = False,
        tracer=None,
        spans_dir: Optional[str] = None,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.store_root = store_root
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(lease_timeout / 4.0, 0.05)
        )
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.clock = clock
        self._lock = threading.RLock()
        self.jobs: Dict[str, JobState] = {}
        self.job_order: List[str] = []
        self.leases: Dict[str, LeaseState] = {}
        self.dead_workers: Dict[str, str] = {}
        self._finished_jobs: set = set()
        self._job_counter = 0
        self._lease_counter = 0
        from repro.obs import NULL_REGISTRY, NULL_TRACER

        self.metrics = (
            metrics if metrics is not None and metrics.enabled else NULL_REGISTRY
        )
        self.spans_dir = spans_dir or ""
        self.tracer = (
            tracer if tracer is not None and tracer.enabled else NULL_TRACER
        )
        self._sidecar: Optional[SpanSidecar] = None
        self.flight = FlightRecorder().attach(self.tracer)
        self._renewals = 0
        if self.tracer.enabled and self.spans_dir:
            self._sidecar = SpanSidecar(
                sidecar_path(self.spans_dir, "coordinator"),
                process="coordinator",
                anchor_epoch_us=self.tracer.anchor_epoch_us,
            )
            self.tracer.sink = self._sidecar
        self.journal = Journal(
            journal_path, fsync=fsync, readonly=readonly, metrics=self.metrics
        )
        records, self.replay_stats = self.journal.replay()
        for record in records:
            self._apply(record)
        self.metrics.counter("service.journal.replayed").inc(
            self.replay_stats.records
        )
        if self.replay_stats.torn_tail_bytes:
            self.metrics.counter("service.journal.torn_tail_bytes").inc(
                self.replay_stats.torn_tail_bytes
            )
        if self.replay_stats.corrupt:
            self.metrics.counter("service.journal.corrupt_frames").inc()

    # -- journal plumbing ---------------------------------------------------

    def _record(self, record_type: str, *, durable: bool = True, **fields):
        """Append then apply: the journal is always ahead of memory."""
        record = self.journal.append(record_type, durable=durable, **fields)
        self._apply(record)
        return record

    def close(self) -> None:
        self.journal.close()
        if self._sidecar is not None:
            self._sidecar.close()
            self._sidecar = None

    # -- public operations --------------------------------------------------

    def submit(
        self,
        workloads,
        scales,
        *,
        threads: int = 4,
        tools=None,
        repeats: int = 1,
        engine: str = DEFAULT_ENGINE,
        fault_seed: Optional[int] = None,
        partitions: Optional[int] = None,
        reuse_measurements: bool = True,
    ) -> str:
        """Register a sweep job; returns its id.  Validation happens
        up front so a bad spec is rejected before it reaches the
        journal."""
        from repro.workloads.registry import get_workload

        workloads = tuple(workloads)
        scales = tuple(int(s) for s in scales)
        tools = tuple(tools) if tools else tuple(DEFAULT_TOOLS)
        if not workloads or not scales:
            raise ValueError("a job needs at least one workload and scale")
        unknown = [t for t in tools if t not in DEFAULT_TOOLS]
        if unknown:
            raise ValueError(f"unknown tools: {', '.join(unknown)}")
        check_engine(engine)
        for name in workloads:
            get_workload(name)
        with self._lock:
            self._job_counter += 1
            job_id = f"job-{self._job_counter:04d}-{uuid.uuid4().hex[:6]}"
            spec = {
                "workloads": list(workloads),
                "scales": list(scales),
                "threads": threads,
                "tools": list(tools),
                "repeats": repeats,
                "engine": engine,
                "fault_seed": fault_seed,
                "partitions": partitions,
                "reuse_measurements": reuse_measurements,
            }
            trace_id = TraceContext.new_root(job_id).trace_id
            self._record(
                "job_submitted",
                job=job_id,
                spec=spec,
                trace_id=trace_id,
                t=self.clock(),
            )
            self.tracer.instant(
                "job-submitted",
                track="jobs",
                job=job_id,
                trace_id=trace_id,
                cells=len(workloads) * len(scales),
            )
            self._emit_queue_depth()
            return job_id

    def lease(self, worker: str) -> Optional[Dict[str, Any]]:
        """Grant the next runnable cell to ``worker``, or ``None``.

        Runs an expiry tick first so a dead worker's cell becomes
        grantable the moment its lease deadline passes — no separate
        timer thread is required for liveness.
        """
        with self._lock:
            now = self.clock()
            self._expire_leases(now)
            chosen: Optional[Tuple[JobState, CellState]] = None
            for job_id in self.job_order:
                job = self.jobs[job_id]
                for cell_id in job.cell_order:
                    cell = job.cells[cell_id]
                    if cell.state == CELL_PENDING and cell.not_before <= now:
                        chosen = (job, cell)
                        break
                if chosen:
                    break
            if chosen is None:
                return None
            job, cell = chosen
            self._lease_counter += 1
            lease_id = f"L{self._lease_counter:06d}"
            self._record(
                "cell_leased",
                job=job.job_id,
                cell=cell.cell.id,
                lease=lease_id,
                worker=worker,
                deadline=now + self.lease_timeout,
                t=now,
            )
            self.metrics.counter("service.leases.granted").inc()
            self.tracer.instant(
                "lease-granted",
                track="leases",
                job=job.job_id,
                trace_id=job.trace_id,
                cell=cell.cell.id,
                worker=worker,
                lease=lease_id,
                attempt=cell.attempts + 1,
            )
            self._emit_queue_depth()
            trace_ctx = None
            if job.trace_id:
                trace_ctx = TraceContext(
                    trace_id=job.trace_id,
                    job=job.job_id,
                    worker=worker,
                    spans_dir=self.spans_dir,
                ).to_dict()
            task = CellTask(
                cell=cell.cell,
                store_root=self.store_root,
                tools=tuple(job.spec["tools"]),
                repeats=job.spec["repeats"],
                fault_seed=job.spec["fault_seed"],
                reuse_measurements=job.spec["reuse_measurements"],
                engine=job.spec["engine"],
                partitions=job.spec["partitions"],
                trace=trace_ctx,
            )
            return {
                "lease": lease_id,
                "job": job.job_id,
                "cell": cell.cell.id,
                "attempt": cell.attempts + 1,
                "deadline": now + self.lease_timeout,
                "heartbeat_interval": self.heartbeat_interval,
                "task": task.to_dict(),
                "trace": trace_ctx,
                # handshake sample for cross-process clock alignment:
                # the worker records (its now_us − this) in its sidecar
                "coordinator_time_us": self._time_us(),
            }

    def heartbeat(self, lease_id: str, worker: str) -> bool:
        """Refresh a lease; ``False`` tells the worker its lease is
        gone (expired and possibly re-granted) so it can stand down."""
        with self._lock:
            lease = self.leases.get(lease_id)
            if lease is None or lease.state != "live":
                return False
            self._record(
                "heartbeat",
                lease=lease_id,
                worker=worker,
                t=self.clock(),
                durable=False,
            )
            self._renewals += 1
            if self.tracer.enabled:
                self.tracer.counter(
                    "service.lease_renewals", self._renewals, track="leases"
                )
            return True

    def complete(
        self,
        lease_id: str,
        worker: str,
        summary: Optional[Dict[str, Any]] = None,
        *,
        job: Optional[str] = None,
        cell: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Mark a cell done — idempotently.

        Resolution order: the lease table (live *or* expired — a
        worker that outlived its lease still did exact work thanks to
        content addressing), then the explicit ``job``/``cell`` pair.
        A second completion for an already-done cell is acknowledged as
        a duplicate and journaled as nothing.
        """
        with self._lock:
            lease = self.leases.get(lease_id)
            if lease is not None:
                job = lease.job_id
                cell = lease.cell_id
            if job is None or cell is None or job not in self.jobs:
                return {"accepted": False, "duplicate": False}
            job_state = self.jobs[job]
            cell_state = job_state.cells.get(cell)
            if cell_state is None:
                return {"accepted": False, "duplicate": False}
            if cell_state.state == CELL_DONE:
                cell_state.duplicate_completions += 1
                self.metrics.counter("service.cells.duplicate").inc()
                return {"accepted": True, "duplicate": True}
            self._record(
                "cell_done",
                job=job,
                cell=cell,
                lease=lease_id,
                worker=worker,
                attempt=cell_state.attempts + 1,
                summary=summary or {},
                t=self.clock(),
            )
            self.metrics.counter("service.cells.done").inc()
            if self.tracer.enabled:
                self.tracer.instant(
                    "cell-done",
                    track="cells",
                    job=job,
                    trace_id=job_state.trace_id,
                    cell=cell,
                    worker=worker,
                )
            self._maybe_finish_job(job_state)
            return {"accepted": True, "duplicate": False}

    def fail(self, lease_id: str, worker: str, reason: str) -> bool:
        """A worker reports a deterministic cell failure."""
        with self._lock:
            lease = self.leases.get(lease_id)
            if lease is None or lease.state != "live":
                return False
            job = self.jobs[lease.job_id]
            cell = job.cells[lease.cell_id]
            now = self.clock()
            requeue, not_before = self._requeue_decision(cell, now)
            self._record(
                "cell_failed",
                job=lease.job_id,
                cell=lease.cell_id,
                lease=lease_id,
                worker=worker,
                reason=reason,
                requeue=requeue,
                not_before=not_before,
                t=now,
            )
            self.metrics.counter("service.cells.failed").inc()
            self._maybe_finish_job(job)
            return True

    def note_worker_dead(self, worker: str, reason: str) -> int:
        """Supervisor fast-path: a worker process is known dead, so its
        leases are requeued immediately instead of waiting out the
        heartbeat deadline.  Returns the number of requeued leases.

        A SIGKILLed worker cannot dump its own flight recorder, so the
        coordinator dumps *its* ring here on the dead worker's behalf —
        tagged per affected job so the dump lands in each job's merged
        trace."""
        with self._lock:
            now = self.clock()
            if worker not in self.dead_workers:
                self._record(
                    "worker_dead", worker=worker, reason=reason, t=now
                )
            requeued = 0
            affected_jobs: List[str] = []
            for lease in list(self.leases.values()):
                if lease.state == "live" and lease.worker == worker:
                    if lease.job_id not in affected_jobs:
                        affected_jobs.append(lease.job_id)
                    self._expire_one(lease, now, reason=reason)
                    requeued += 1
            for job in self.jobs.values():
                self._maybe_finish_job(job)
            if self.tracer.enabled:
                self.flight.note(
                    "worker-dead", worker=worker, reason=reason
                )
                for job_id in affected_jobs or [""]:
                    job = self.jobs.get(job_id)
                    flight_dump(
                        self.tracer,
                        f"worker-dead: {worker}",
                        worker=worker,
                        job=job_id,
                        trace_id=job.trace_id if job else "",
                    )
            return requeued

    def tick(self, now: Optional[float] = None) -> int:
        """Expire overdue leases; returns how many were requeued."""
        with self._lock:
            return self._expire_leases(self.clock() if now is None else now)

    # -- internal transitions ----------------------------------------------

    def _time_us(self) -> int:
        """Epoch-anchored µs 'now' for the lease clock handshake."""
        if self.tracer.enabled:
            return self.tracer.now_us()
        return int(time.time() * 1_000_000)

    def _emit_queue_depth(self) -> None:
        """Counter-track sample of runnable cells (Perfetto C event)."""
        if not self.tracer.enabled:
            return
        pending = sum(
            1
            for job in self.jobs.values()
            for cell in job.cells.values()
            if cell.state == CELL_PENDING
        )
        self.tracer.counter("service.queue_depth", pending, track="queue")

    def _requeue_decision(
        self, cell: CellState, now: float
    ) -> Tuple[bool, float]:
        attempts_after = cell.attempts + 1
        requeue = attempts_after <= self.max_retries
        backoff = min(
            self.backoff_base * (2.0 ** cell.attempts), _MAX_BACKOFF
        )
        return requeue, (now + backoff) if requeue else 0.0

    def _expire_leases(self, now: float) -> int:
        expired = 0
        for lease in list(self.leases.values()):
            if lease.state != "live":
                continue
            cell = self.jobs[lease.job_id].cells[lease.cell_id]
            if cell.state in _TERMINAL:
                # The cell finished under another (or a duplicate)
                # completion; quietly retire the stale lease instead of
                # journaling a meaningless expiry.
                lease.state = "released"
                continue
            if lease.deadline(self.lease_timeout) < now:
                age = now - max(lease.granted_at, lease.last_heartbeat)
                self._expire_one(
                    lease,
                    now,
                    reason=(
                        f"lease {lease.lease_id} heartbeat "
                        f"{age:.2f}s stale (timeout "
                        f"{self.lease_timeout:g}s)"
                    ),
                )
                expired += 1
        if expired:
            for job in self.jobs.values():
                self._maybe_finish_job(job)
        return expired

    def _expire_one(self, lease: LeaseState, now: float, reason: str) -> None:
        job = self.jobs[lease.job_id]
        cell = job.cells[lease.cell_id]
        requeue, not_before = self._requeue_decision(cell, now)
        self._record(
            "lease_expired",
            job=lease.job_id,
            cell=lease.cell_id,
            lease=lease.lease_id,
            worker=lease.worker,
            reason=reason,
            requeue=requeue,
            not_before=not_before,
            t=now,
        )
        self.metrics.counter("service.leases.expired").inc()
        if requeue:
            self.metrics.counter("service.requeues").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "lease-expired",
                track="leases",
                job=lease.job_id,
                trace_id=job.trace_id,
                cell=lease.cell_id,
                worker=lease.worker,
                requeue=requeue,
                reason=reason,
            )
            self._emit_queue_depth()

    def _maybe_finish_job(self, job: JobState) -> None:
        if job.terminal and job.job_id not in self._finished_jobs:
            self._record(
                "job_done",
                job=job.job_id,
                state=job.state,
                t=self.clock(),
            )

    # -- the single state-transition function -------------------------------

    def _apply(self, record: Dict[str, Any]) -> None:
        """Apply one journal record to the materialized view.

        This is the only code that mutates job/cell/lease state, and it
        runs identically on the live path (append → apply) and on
        startup replay — which is the whole recovery argument.
        """
        rtype = record.get("type")
        if rtype == "job_submitted":
            job_id = record["job"]
            spec = record["spec"]
            job = JobState(
                job_id=job_id,
                spec=spec,
                submitted_at=record.get("t", 0.0),
                trace_id=record.get("trace_id", ""),
            )
            for workload in spec["workloads"]:
                for scale in spec["scales"]:
                    cell = SweepCell(workload, scale, spec["threads"])
                    job.cells[cell.id] = CellState(cell=cell)
                    job.cell_order.append(cell.id)
            self.jobs[job_id] = job
            self.job_order.append(job_id)
            self._job_counter = max(self._job_counter, len(self.job_order))
        elif rtype == "cell_leased":
            lease = LeaseState(
                lease_id=record["lease"],
                job_id=record["job"],
                cell_id=record["cell"],
                worker=record["worker"],
                granted_at=record.get("t", 0.0),
                last_heartbeat=record.get("t", 0.0),
            )
            self.leases[lease.lease_id] = lease
            numeric = record["lease"].lstrip("L")
            if numeric.isdigit():
                self._lease_counter = max(self._lease_counter, int(numeric))
            cell = self._cell_for(record)
            if cell is not None and cell.state in (CELL_PENDING, CELL_LEASED):
                cell.state = CELL_LEASED
                cell.lease_id = lease.lease_id
                cell.worker = lease.worker
        elif rtype == "heartbeat":
            lease = self.leases.get(record.get("lease", ""))
            if lease is not None and lease.state == "live":
                lease.last_heartbeat = record.get("t", lease.last_heartbeat)
        elif rtype == "cell_done":
            cell = self._cell_for(record)
            lease = self.leases.get(record.get("lease", ""))
            if lease is not None and lease.state == "live":
                lease.state = "released"
            if cell is None or cell.state == CELL_DONE:
                if cell is not None:
                    cell.duplicate_completions += 1
                return
            cell.state = CELL_DONE
            cell.completed_by = record.get("worker")
            cell.completed_attempt = record.get("attempt", cell.attempts + 1)
            cell.summary = record.get("summary") or None
            cell.lease_id = None
            cell.worker = None
            cell.history.append(
                {
                    "event": "completed",
                    "attempt": cell.completed_attempt,
                    "worker": cell.completed_by,
                    "t": record.get("t"),
                }
            )
        elif rtype in ("cell_failed", "lease_expired"):
            cell = self._cell_for(record)
            lease = self.leases.get(record.get("lease", ""))
            if lease is not None and lease.state == "live":
                lease.state = "expired"
            if cell is None or cell.state in _TERMINAL:
                return
            cell.attempts += 1
            cell.lease_id = None
            cell.worker = None
            event = "requeued" if record.get("requeue") else "exhausted"
            cell.history.append(
                {
                    "event": event,
                    "kind": rtype,
                    "attempt": cell.attempts,
                    "worker": record.get("worker"),
                    "reason": record.get("reason"),
                    "t": record.get("t"),
                }
            )
            if record.get("requeue"):
                cell.state = CELL_PENDING
                cell.not_before = record.get("not_before", 0.0) or 0.0
            else:
                cell.state = CELL_FAILED
        elif rtype == "worker_dead":
            self.dead_workers[record["worker"]] = record.get("reason", "")
        elif rtype == "job_done":
            self._finished_jobs.add(record["job"])
        # Unknown record types are skipped: a newer coordinator's
        # journal replays (degraded but safely) on an older one.

    def _cell_for(self, record: Dict[str, Any]) -> Optional[CellState]:
        job = self.jobs.get(record.get("job", ""))
        if job is None:
            return None
        return job.cells.get(record.get("cell", ""))

    # -- reporting ----------------------------------------------------------

    def degradations(self, job_id: str) -> List[Degradation]:
        """Structured Degradations for every requeue/exhaustion, in the
        runner's shape so reports stay uniform across the repo."""
        job = self.jobs[job_id]
        out: List[Degradation] = []
        for cell_id in job.cell_order:
            cell = job.cells[cell_id]
            for event in cell.history:
                if event["event"] == "requeued":
                    out.append(
                        Degradation(
                            "service-lease",
                            cell_id,
                            event["attempt"],
                            event.get("reason") or "worker failure",
                            "requeued",
                        )
                    )
                elif event["event"] == "exhausted":
                    out.append(
                        Degradation(
                            "service-lease",
                            cell_id,
                            event["attempt"],
                            event.get("reason") or "worker failure",
                            "excluded",
                        )
                    )
        return out

    def jobs_snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            out = []
            for job_id in self.job_order:
                job = self.jobs[job_id]
                out.append(
                    {
                        "job": job_id,
                        "state": job.state,
                        "submitted_at": job.submitted_at,
                        "cells": job.counts(),
                        "workloads": job.spec["workloads"],
                        "scales": job.spec["scales"],
                        "trace_id": job.trace_id,
                    }
                )
            return out

    def all_idle(self) -> bool:
        """True once at least one job exists and every job is terminal."""
        with self._lock:
            return bool(self.jobs) and all(
                job.terminal for job in self.jobs.values()
            )

    def job_report(
        self, job_id: str, *, include_trends: bool = True
    ) -> Dict[str, Any]:
        """The auditable job report: per-cell retry/requeue provenance,
        structured degradations, and (for terminal jobs) the merged
        per-routine cost trends straight from the store's shards."""
        with self._lock:
            if job_id not in self.jobs:
                raise KeyError(f"unknown job {job_id!r}")
            job = self.jobs[job_id]
            report: Dict[str, Any] = {
                "format": "repro-service-job",
                "version": 1,
                "job": job_id,
                "state": job.state,
                "submitted_at": job.submitted_at,
                "trace_id": job.trace_id,
                "spec": dict(job.spec),
                "store": self.store_root,
                "counts": job.counts(),
                "cells": [
                    job.cells[cell_id].as_dict() for cell_id in job.cell_order
                ],
                "degradations": [
                    d.as_dict() for d in self.degradations(job_id)
                ],
                "journal": self.replay_stats.as_dict(),
                "trends": None,
            }
            if include_trends and job.terminal:
                from repro.sweep.engine import (
                    _routine_trends,
                    merge_store_profiles,
                )

                merged, missing = merge_store_profiles(
                    self.store_root,
                    job.spec["workloads"],
                    job.spec["scales"],
                    threads=job.spec["threads"],
                    fault_seed=job.spec["fault_seed"],
                    only_cells=[
                        cell_id
                        for cell_id in job.cell_order
                        if job.cells[cell_id].state == CELL_DONE
                    ],
                )
                report["trends"] = {
                    name: {
                        "drms": _routine_trends(profs["drms"]),
                        "rms": _routine_trends(profs["rms"]),
                    }
                    for name, profs in merged.items()
                }
                report["missing_shards"] = missing
            return report

    def merged_profiles(self, job_id: str):
        """Merged per-workload profilers for a job's DONE cells, in the
        canonical cell order — byte-comparable with a serial sweep."""
        with self._lock:
            from repro.sweep.engine import merge_store_profiles

            job = self.jobs[job_id]
            merged, missing = merge_store_profiles(
                self.store_root,
                job.spec["workloads"],
                job.spec["scales"],
                threads=job.spec["threads"],
                fault_seed=job.spec["fault_seed"],
                only_cells=[
                    cell_id
                    for cell_id in job.cell_order
                    if job.cells[cell_id].state == CELL_DONE
                ],
            )
            return merged, missing

    def publish_metrics(self) -> None:
        """Refresh scrape-time gauges (cell/job states, heartbeat ages)."""
        metrics = self.metrics
        if not metrics.enabled:
            return
        with self._lock:
            now = self.clock()
            counts = {
                CELL_PENDING: 0,
                CELL_LEASED: 0,
                CELL_DONE: 0,
                CELL_FAILED: 0,
            }
            job_states: Dict[str, int] = {}
            for job in self.jobs.values():
                job_states[job.state] = job_states.get(job.state, 0) + 1
                for state, n in job.counts().items():
                    counts[state] += n
            for state, n in counts.items():
                metrics.gauge("service.cells", {"state": state}).set(n)
            for state in ("running", "complete", "degraded"):
                metrics.gauge("service.jobs", {"state": state}).set(
                    job_states.get(state, 0)
                )
            live_workers = {}
            for lease in self.leases.values():
                if lease.state == "live":
                    last = max(lease.granted_at, lease.last_heartbeat)
                    live_workers[lease.worker] = max(
                        live_workers.get(lease.worker, 0.0), last
                    )
            for worker, last in live_workers.items():
                metrics.gauge(
                    "service.heartbeat.age_seconds", {"worker": worker}
                ).set(round(now - last, 6))
            metrics.gauge("service.leases.live").set(len(live_workers))

    # -- health -------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        with self._lock:
            live = sum(1 for l in self.leases.values() if l.state == "live")
            return {
                "status": "ok",
                "jobs": len(self.jobs),
                "live_leases": live,
                "journal_records": self.replay_stats.records
                + self.metrics.counter("service.journal.records").value,
                "journal_corrupt": self.replay_stats.corrupt,
            }
