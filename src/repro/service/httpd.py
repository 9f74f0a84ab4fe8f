"""Stdlib HTTP face of the coordinator: worker verbs + scrape endpoints.

Endpoints (all JSON unless noted):

=========  ==============  ================================================
method     path            meaning
=========  ==============  ================================================
``POST``   ``/submit``     submit a sweep spec → ``{"job": id}``
``POST``   ``/lease``      ``{"worker"}`` → ``{"lease": {...}|null}``
``POST``   ``/heartbeat``  ``{"lease", "worker"}`` → ``{"ok": bool}``
``POST``   ``/complete``   ``{"lease", "worker", "summary", ...}``
``POST``   ``/fail``       ``{"lease", "worker", "reason"}``
``GET``    ``/jobs``       every job's state counts
``GET``    ``/jobs/<id>``  full auditable job report
``GET``    ``/healthz``    liveness (``{"status": "ok", ...}``)
``GET``    ``/metrics``    Prometheus text exposition of ``repro.obs``
``GET``    ``/metrics.json``  flat ``as_dict()`` metrics (``repro top``)
=========  ==============  ================================================

Worker POST bodies (``/heartbeat``, ``/complete``, ``/fail``) carry the
lease's ``trace_id`` so the wire protocol propagates trace context in
both directions; the lease response itself ships the job's
``TraceContext`` plus a ``coordinator_time_us`` clock-handshake sample.

The server is a ``ThreadingHTTPServer``; the coordinator serialises
state mutations behind its own lock, so handler threads stay dumb.
``/metrics`` refreshes scrape-time gauges (heartbeat ages, cell-state
counts) via :meth:`Coordinator.publish_metrics` before rendering.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from repro.core.serialize import dumps_strict
from repro.tools.runner import DEFAULT_ENGINE

__all__ = ["ServiceServer", "serve_http"]


class ServiceServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, coordinator, registry=None, quiet=True):
        self.coordinator = coordinator
        self.registry = registry
        self.quiet = quiet
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    server: ServiceServer

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send(self, code: int, payload, content_type="application/json"):
        if isinstance(payload, (dict, list)):
            body = (dumps_strict(payload) + "\n").encode("utf-8")
        else:
            body = str(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # -- GET ----------------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib naming
        coordinator = self.server.coordinator
        try:
            if self.path == "/healthz":
                self._send(200, coordinator.health())
            elif self.path == "/metrics":
                coordinator.tick()
                coordinator.publish_metrics()
                registry = self.server.registry or coordinator.metrics
                self._send(
                    200,
                    registry.to_prometheus(),
                    content_type="text/plain; version=0.0.4",
                )
            elif self.path == "/metrics.json":
                # the flat as_dict() form — what `repro top` and
                # `repro stats --url` poll (no Prometheus parsing)
                coordinator.tick()
                coordinator.publish_metrics()
                registry = self.server.registry or coordinator.metrics
                self._send(200, {"metrics": registry.as_dict()})
            elif self.path == "/jobs":
                coordinator.tick()
                self._send(200, {"jobs": coordinator.jobs_snapshot()})
            elif self.path.startswith("/jobs/"):
                coordinator.tick()
                job_id = self.path[len("/jobs/") :]
                try:
                    self._send(200, coordinator.job_report(job_id))
                except KeyError:
                    self._send(404, {"error": f"unknown job {job_id!r}"})
            else:
                self._send(404, {"error": f"no such path {self.path!r}"})
        except Exception as exc:  # never kill the handler thread
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    # -- POST ---------------------------------------------------------------

    def do_POST(self):  # noqa: N802 - stdlib naming
        coordinator = self.server.coordinator
        try:
            data = self._body()
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        try:
            if self.path == "/submit":
                job_id = coordinator.submit(
                    data["workloads"],
                    data["scales"],
                    threads=data.get("threads", 4),
                    tools=data.get("tools"),
                    repeats=data.get("repeats", 1),
                    engine=data.get("engine", DEFAULT_ENGINE),
                    fault_seed=data.get("fault_seed"),
                    partitions=data.get("partitions"),
                    reuse_measurements=data.get("reuse_measurements", True),
                )
                self._send(200, {"job": job_id})
            elif self.path == "/lease":
                self._send(
                    200, {"lease": coordinator.lease(data["worker"])}
                )
            elif self.path == "/heartbeat":
                ok = coordinator.heartbeat(data["lease"], data["worker"])
                self._send(200, {"ok": ok})
            elif self.path == "/complete":
                result = coordinator.complete(
                    data["lease"],
                    data["worker"],
                    data.get("summary"),
                    job=data.get("job"),
                    cell=data.get("cell"),
                )
                self._send(200, result)
            elif self.path == "/fail":
                ok = coordinator.fail(
                    data["lease"], data["worker"], data.get("reason", "")
                )
                self._send(200, {"ok": ok})
            else:
                self._send(404, {"error": f"no such path {self.path!r}"})
        except (KeyError, ValueError) as exc:
            self._send(400, {"error": f"{type(exc).__name__}: {exc}"})
        except Exception as exc:
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})


def serve_http(
    coordinator, host: str = "127.0.0.1", port: int = 0, registry=None
) -> Tuple[ServiceServer, str]:
    """Start the service server on a daemon thread; returns
    ``(server, base_url)``.  ``port=0`` binds an ephemeral port —
    that's what the tests use to avoid collisions."""
    server = ServiceServer((host, port), coordinator, registry=registry)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    bound_host, bound_port = server.server_address[:2]
    return server, f"http://{bound_host}:{bound_port}"
