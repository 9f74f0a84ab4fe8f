"""The leased worker: lease → heartbeat → run_cell → complete.

A worker is deliberately stateless: every fact it holds (which cell,
which lease, where the store is) arrives in the lease response, and
every artifact it produces lands in the content-addressed TraceStore
through the atomic-write path.  Killing a worker at *any* instruction
therefore loses at most the wall-clock of the in-flight cell — the
coordinator requeues the lease and the replacement worker either
recomputes identical bytes or rides the cache.

Crash hooks (the kill-anywhere tests and the CI ``service-smoke`` job):
``REPRO_SERVICE_TEST_KILL`` holds comma-separated ``stage@worker``
entries.  Stage ``lease`` SIGKILLs the worker right after a lease is
granted (mid-lease, no work done); stage ``complete`` after the cell's
artifacts are all committed but *before* the coordinator hears about it
(exercising idempotent completion); stage ``shard`` is honoured inside
:mod:`repro.sweep.store` mid-``_atomic_write`` of a profiler shard
(exercising torn-write recovery).  All three use a real ``SIGKILL`` —
no atexit handlers, no flushing, exactly like the OOM killer.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro.obs.distributed import flight_dump, open_span_sidecar
from repro.sweep.engine import CellTask, run_cell

__all__ = [
    "HTTPCoordinatorClient",
    "LocalClient",
    "run_worker",
    "worker_entry",
]

_KILL_ENV = "REPRO_SERVICE_TEST_KILL"
#: exported to children so the store-level ``shard`` kill stage can
#: tell *which* worker is writing
_WORKER_ENV = "REPRO_SERVICE_WORKER"


def _lease_trace_id(lease: Dict[str, Any]) -> str:
    trace = lease.get("trace") or {}
    return str(trace.get("trace_id", "")) if isinstance(trace, dict) else ""


def _maybe_kill(stage: str, worker: str) -> None:
    spec = os.environ.get(_KILL_ENV)
    if not spec:
        return
    for item in spec.split(","):
        want_stage, _, want_worker = item.strip().partition("@")
        if want_stage == stage and want_worker in ("", worker):
            os.kill(os.getpid(), signal.SIGKILL)


def _summarize_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-safe slice of a cell payload worth journaling: cache
    provenance and timings, never the (large, pickled) profilers."""
    return {
        "cached": payload["cached"],
        "shards_cached": payload["shards_cached"],
        "corrupt": payload["corrupt"],
        "events": payload["events"],
        "partitions": payload.get("partitions"),
        "record_time": payload["record_time"],
        "wall_time": payload["wall_time"],
        "replays": {
            tool: dict(row) for tool, row in payload["replays"].items()
        },
    }


class LocalClient:
    """Direct in-process coordinator access (tests, threaded workers)."""

    def __init__(self, coordinator) -> None:
        self.coordinator = coordinator

    def lease(self, worker: str) -> Optional[Dict[str, Any]]:
        return self.coordinator.lease(worker)

    def heartbeat(self, lease: Dict[str, Any], worker: str) -> bool:
        return self.coordinator.heartbeat(lease["lease"], worker)

    def complete(self, lease, worker, summary) -> Dict[str, Any]:
        return self.coordinator.complete(
            lease["lease"],
            worker,
            summary,
            job=lease.get("job"),
            cell=lease.get("cell"),
        )

    def fail(self, lease, worker, reason) -> bool:
        return self.coordinator.fail(lease["lease"], worker, reason)

    def idle(self) -> bool:
        return self.coordinator.all_idle()


class HTTPCoordinatorClient:
    """The wire client workers use: tiny JSON-over-HTTP verbs."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _post(self, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def _get(self, path: str) -> Dict[str, Any]:
        with urllib.request.urlopen(
            self.base_url + path, timeout=self.timeout
        ) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def lease(self, worker: str) -> Optional[Dict[str, Any]]:
        return self._post("/lease", {"worker": worker}).get("lease")

    def heartbeat(self, lease: Dict[str, Any], worker: str) -> bool:
        return bool(
            self._post(
                "/heartbeat",
                {
                    "lease": lease["lease"],
                    "worker": worker,
                    "trace_id": _lease_trace_id(lease),
                },
            ).get("ok")
        )

    def complete(self, lease, worker, summary) -> Dict[str, Any]:
        return self._post(
            "/complete",
            {
                "lease": lease["lease"],
                "worker": worker,
                "job": lease.get("job"),
                "cell": lease.get("cell"),
                "summary": summary,
                "trace_id": _lease_trace_id(lease),
            },
        )

    def fail(self, lease, worker, reason) -> bool:
        return bool(
            self._post(
                "/fail",
                {
                    "lease": lease["lease"],
                    "worker": worker,
                    "reason": reason,
                    "trace_id": _lease_trace_id(lease),
                },
            ).get("ok")
        )

    def submit(self, spec: Dict[str, Any]) -> str:
        return self._post("/submit", spec)["job"]

    def jobs(self):
        return self._get("/jobs")["jobs"]

    def job_report(self, job_id: str) -> Dict[str, Any]:
        return self._get(f"/jobs/{job_id}")

    def health(self) -> Dict[str, Any]:
        return self._get("/healthz")

    def idle(self) -> bool:
        jobs = self.jobs()
        return bool(jobs) and all(
            job["state"] in ("complete", "degraded") for job in jobs
        )


class _Heartbeat(threading.Thread):
    """Daemon heartbeater for one lease; flags a lost lease so the
    worker can stop burning CPU on work nobody will accept twice."""

    def __init__(self, client, lease, worker: str, interval: float) -> None:
        super().__init__(daemon=True)
        self.client = client
        self.lease = lease
        self.worker = worker
        self.interval = interval
        self.lost = threading.Event()
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                if not self.client.heartbeat(self.lease, self.worker):
                    self.lost.set()
                    return
            except Exception:
                # Coordinator briefly unreachable (e.g. mid-restart):
                # keep trying; the journal remembers the lease.
                continue

    def stop(self) -> None:
        self._stop.set()


def run_worker(
    client,
    worker_id: str,
    *,
    poll_interval: float = 0.2,
    stop_when_idle: bool = False,
    max_cells: Optional[int] = None,
) -> int:
    """Worker main loop; returns the number of cells completed.

    ``stop_when_idle`` exits once the coordinator reports at least one
    job and all jobs terminal — drain semantics for tests and
    ``serve --until-idle``.  Connection errors are retried (the
    coordinator may be restarting against its journal); everything else
    about a cell failing is reported via ``fail`` so the coordinator
    can requeue with backoff.
    """
    os.environ[_WORKER_ENV] = worker_id
    completed = 0
    while True:
        try:
            lease = client.lease(worker_id)
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(poll_interval)
            continue
        if lease is None:
            try:
                if stop_when_idle and client.idle():
                    return completed
            except (urllib.error.URLError, ConnectionError, OSError):
                pass
            time.sleep(poll_interval)
            continue
        # Open the span sidecar and record the lease instant *before*
        # the lease-stage kill hook: a SIGKILLed worker must still leave
        # a mergeable sidecar prefix, so its track (and nothing but the
        # truth about how far it got) appears in the job's trace.
        tracer, sidecar = open_span_sidecar(lease.get("trace"), worker_id)
        coord_us = lease.get("coordinator_time_us")
        if sidecar is not None and isinstance(coord_us, (int, float)) and coord_us > 0:
            # The lease-time clock handshake: our epoch-anchored "now"
            # minus the coordinator's sample, which the merger later
            # subtracts to put every track on the coordinator's clock.
            sidecar.clock_sync(tracer.now_us() - int(coord_us))
        tracer.instant(
            "lease-granted",
            track="lease",
            job=lease.get("job"),
            cell=lease.get("cell"),
            lease=lease.get("lease"),
            attempt=lease.get("attempt"),
        )
        _maybe_kill("lease", worker_id)
        task = CellTask.from_dict(lease["task"])
        heartbeat = _Heartbeat(
            client,
            lease,
            worker_id,
            interval=float(lease.get("heartbeat_interval", 1.0)),
        )
        heartbeat.start()
        error: Optional[str] = None
        summary: Optional[Dict[str, Any]] = None
        try:
            with tracer.span(
                "run-cell",
                track="cell",
                job=lease.get("job"),
                cell=lease.get("cell"),
                attempt=lease.get("attempt"),
            ):
                payload = run_cell(task)
            summary = _summarize_payload(payload)
        except Exception as exc:  # deterministic cell failure
            error = f"{type(exc).__name__}: {exc}"
        finally:
            heartbeat.stop()
        try:
            if error is None:
                tracer.instant(
                    "cell-complete",
                    track="cell",
                    cell=lease.get("cell"),
                    cached=bool(summary and summary.get("cached")),
                )
                _maybe_kill("complete", worker_id)
                client.complete(lease, worker_id, summary)
                completed += 1
            else:
                flight_dump(
                    tracer, f"cell-failure: {error}", cell=lease.get("cell")
                )
                client.fail(lease, worker_id, error)
        except (urllib.error.URLError, ConnectionError, OSError):
            # Completion lost in transit: the artifacts are already in
            # the store, so the requeued cell is a cheap no-op replay.
            pass
        finally:
            if sidecar is not None:
                sidecar.close()
        if max_cells is not None and completed >= max_cells:
            return completed


def worker_entry(
    base_url: str,
    worker_id: str,
    poll_interval: float = 0.2,
    stop_when_idle: bool = True,
) -> None:
    """``multiprocessing.Process`` / CLI entry point."""
    client = HTTPCoordinatorClient(base_url)
    run_worker(
        client,
        worker_id,
        poll_interval=poll_interval,
        stop_when_idle=stop_when_idle,
    )
