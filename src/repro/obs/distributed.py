"""Cross-process distributed tracing: context, sidecars, merge, flight.

The service (PR 7) and the partition pool (PR 6) spread one logical
job across many OS processes, so a single in-memory
:class:`~repro.obs.spans.SpanTracer` can never see the whole timeline.
This module adds the four pieces that stitch it back together:

**TraceContext** — ``trace_id`` / ``parent_span_id`` generated at job
submit and propagated through the service HTTP protocol (lease /
heartbeat / complete / fail bodies) and through partition-pool task
payloads, so every process records spans under the job's trace.

**SpanSidecar** — a crash-safe per-process append-only span log
(``*.spans.jsonl``).  Every line is CRC-framed exactly in the spirit of
the service journal (``crc32-hex SPACE canonical-json``), flushed per
event, so a SIGKILL at any byte leaves a *mergeable prefix*: the reader
keeps the longest valid prefix and reports the torn tail instead of
failing.

**merge_job_trace / validate_chrome_trace** — the offline merger.  It
reads every sidecar in a directory, keeps the records belonging to one
job's trace, aligns clocks (each sidecar header carries its process's
perf_counter/epoch anchor plus the coordinator-handshake offset
measured at lease time), assigns one Chrome ``pid`` per process and one
``tid`` per track, and emits a single Perfetto-loadable Chrome trace
JSON with counter tracks passed through.  ``validate_chrome_trace``
schema-checks the result (used by tests and CI).

**FlightRecorder** — a bounded in-memory ring buffer of the last N
span/counter events plus explicitly noted metric deltas.  On
Degradation, worker death, or doctor-detected corruption, the ring is
dumped as a single ``flight-recorder`` instant event into the tracer
(and hence the sidecar), preserving the last moments before trouble.

Clock-alignment safety argument (short form; DESIGN.md §14 has the
full version): within a process, timestamps are monotonic because they
derive from ``perf_counter``.  Across processes, each sidecar's header
stores the process's epoch anchor, and workers additionally store
``handshake_offset_us`` — their own epoch-anchored "now" minus the
coordinator's, sampled from the lease response.  Subtracting that
offset maps worker timestamps onto the coordinator's clock, bounding
cross-process skew by one HTTP round trip rather than by NTP drift.
"""

from __future__ import annotations

import collections
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.spans import NULL_TRACER, SpanTracer

__all__ = [
    "TraceContext",
    "SpanSidecar",
    "SidecarReplay",
    "read_sidecar",
    "sidecar_path",
    "open_span_sidecar",
    "FlightRecorder",
    "flight_dump",
    "flight_dump_degradations",
    "merge_job_trace",
    "validate_chrome_trace",
]

SIDECAR_SUFFIX = ".spans.jsonl"
SIDECAR_VERSION = 1


def _new_id(nbytes: int = 8) -> str:
    return os.urandom(nbytes).hex()


# ---------------------------------------------------------------------------
# trace context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceContext:
    """Identity of one distributed trace, propagated across processes.

    Wire form (``to_dict``/``from_dict``) is a flat JSON object so it
    rides inside service HTTP bodies and pool task payloads unchanged.
    """

    trace_id: str
    job: str = ""
    worker: str = ""
    parent_span_id: str = ""
    spans_dir: str = ""

    @classmethod
    def new_root(cls, job: str = "") -> "TraceContext":
        return cls(trace_id=_new_id(), job=job, parent_span_id="")

    def child(self, worker: str = "", spans_dir: str = "") -> "TraceContext":
        """Derive the context handed to a downstream process."""
        return TraceContext(
            trace_id=self.trace_id,
            job=self.job,
            worker=worker or self.worker,
            parent_span_id=_new_id(4),
            spans_dir=spans_dir or self.spans_dir,
        )

    def to_dict(self) -> Dict[str, str]:
        out = {"trace_id": self.trace_id}
        for key in ("job", "worker", "parent_span_id", "spans_dir"):
            value = getattr(self, key)
            if value:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, object]]) -> Optional["TraceContext"]:
        if not data or not data.get("trace_id"):
            return None
        return cls(
            trace_id=str(data["trace_id"]),
            job=str(data.get("job", "")),
            worker=str(data.get("worker", "")),
            parent_span_id=str(data.get("parent_span_id", "")),
            spans_dir=str(data.get("spans_dir", "")),
        )


# ---------------------------------------------------------------------------
# span sidecar: CRC-framed JSON lines, torn-tail tolerant
# ---------------------------------------------------------------------------


def _frame_line(record: Mapping[str, object]) -> bytes:
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"%08x %s\n" % (crc, payload)


def sidecar_path(
    spans_dir: str, process: str, pid: Optional[int] = None
) -> str:
    """Canonical sidecar filename for one process."""
    pid = os.getpid() if pid is None else pid
    safe = "".join(
        ch if (ch.isalnum() or ch in "._-") else "_" for ch in process
    )
    return os.path.join(spans_dir, f"{safe}.pid{pid}{SIDECAR_SUFFIX}")


class SpanSidecar:
    """Append-only, per-process crash-safe span log.

    The first record is a header (process name, trace context, pid,
    clock anchor); events and later clock records append behind it.
    Each line is independently CRC-framed and flushed, so the file is
    readable up to the last complete line no matter where the process
    died.
    """

    def __init__(
        self,
        path: str,
        *,
        process: str,
        trace: Optional[TraceContext] = None,
        anchor_epoch_us: int = 0,
        worker: str = "",
    ) -> None:
        self.path = path
        self.process = process
        self.trace = trace
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fh = open(path, "ab")
        header: Dict[str, object] = {
            "type": "header",
            "version": SIDECAR_VERSION,
            "process": process,
            "worker": worker or (trace.worker if trace else ""),
            "pid": os.getpid(),
            "anchor_epoch_us": int(anchor_epoch_us),
        }
        if trace is not None:
            header["trace"] = trace.to_dict()
        self._write(header)

    def _write(self, record: Mapping[str, object]) -> None:
        self._fh.write(_frame_line(record))
        self._fh.flush()

    def emit(self, event: Mapping[str, object]) -> None:
        """Stream one Chrome event (called by SpanTracer for each)."""
        self._write({"type": "event", "ev": event})

    def clock_sync(self, handshake_offset_us: int, source: str = "lease") -> None:
        """Record the coordinator-handshake clock offset.

        ``handshake_offset_us`` is *this* process's epoch-anchored time
        minus the coordinator's, as sampled from the lease response.
        Appended (not rewritten into the header) to keep the file
        strictly append-only.
        """
        self._write(
            {
                "type": "clock",
                "handshake_offset_us": int(handshake_offset_us),
                "source": source,
            }
        )

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self) -> "SpanSidecar":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def open_span_sidecar(
    trace: Optional[Mapping[str, object]], process: str
) -> Tuple[object, Optional[SpanSidecar]]:
    """Open one process's ``(tracer, sidecar)`` pair for a job's trace.

    ``trace`` is a :meth:`TraceContext.to_dict` form (a lease's or a
    pool task's).  Returns ``(NULL_TRACER, None)`` unless it names a
    spans directory; otherwise a :class:`SpanTracer` named ``process``
    streams into a sidecar file named after the job and ``process``,
    whose header carries the trace context (its ``worker`` too), with a
    :class:`FlightRecorder` attached.  The caller closes the sidecar.
    """
    ctx = TraceContext.from_dict(trace)
    if ctx is None or not ctx.spans_dir:
        return NULL_TRACER, None
    tracer = SpanTracer(process_name=process)
    name = f"{ctx.job}__{process}" if ctx.job else process
    sidecar = SpanSidecar(
        sidecar_path(ctx.spans_dir, name),
        process=process,
        trace=ctx,
        anchor_epoch_us=tracer.anchor_epoch_us,
    )
    tracer.sink = sidecar
    FlightRecorder().attach(tracer)
    return tracer, sidecar


@dataclass
class SidecarReplay:
    """Result of reading one sidecar file."""

    path: str
    header: Dict[str, object] = field(default_factory=dict)
    events: List[Dict[str, object]] = field(default_factory=list)
    handshake_offset_us: int = 0
    records: int = 0
    torn_tail_bytes: int = 0

    @property
    def process(self) -> str:
        return str(self.header.get("process", os.path.basename(self.path)))

    @property
    def worker(self) -> str:
        return str(self.header.get("worker", ""))

    @property
    def trace_id(self) -> str:
        trace = self.header.get("trace") or {}
        if isinstance(trace, dict):
            return str(trace.get("trace_id", ""))
        return ""


def read_sidecar(path: str) -> SidecarReplay:
    """Replay a sidecar, keeping the longest valid prefix.

    Any framing violation — short line, bad CRC, malformed JSON —
    terminates the replay at the previous record; everything from the
    first bad byte onward counts as the torn tail.  A SIGKILL mid-flush
    therefore costs at most the event being written.
    """
    replay = SidecarReplay(path=path)
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    size = len(data)
    while pos < size:
        newline = data.find(b"\n", pos)
        if newline < 0:
            break  # last line never got its newline: torn mid-flush
        record = _decode_line(data[pos:newline])
        if record is None:
            break  # bad CRC / malformed frame: stop at valid prefix
        pos = newline + 1
        replay.records += 1
        rtype = record.get("type")
        if rtype == "header" and not replay.header:
            replay.header = record
        elif rtype == "event":
            event = record.get("ev")
            if isinstance(event, dict):
                replay.events.append(event)
        elif rtype == "clock":
            replay.handshake_offset_us = int(
                record.get("handshake_offset_us", 0)
            )
    replay.torn_tail_bytes = size - pos
    return replay


def _decode_line(raw: bytes) -> Optional[Dict[str, object]]:
    if len(raw) < 10 or raw[8:9] != b" ":
        return None
    try:
        want = int(raw[:8], 16)
    except ValueError:
        return None
    payload = raw[9:]
    if (zlib.crc32(payload) & 0xFFFFFFFF) != want:
        return None
    try:
        record = json.loads(payload)
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


class FlightRecorder:
    """Bounded ring buffer of recent span events and metric deltas.

    Attach to a :class:`SpanTracer` (``attach``) and every recorded
    event is mirrored here; ``note`` adds out-of-band entries (metric
    deltas, state changes).  ``dump`` freezes the ring into a single
    ``flight-recorder`` instant event on the tracer — and therefore
    into the sidecar — so the last moments before a Degradation,
    worker death, or corruption detection survive in the merged trace.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._ring: "collections.deque" = collections.deque(maxlen=capacity)
        self.dumps = 0

    def attach(self, tracer) -> "FlightRecorder":
        if getattr(tracer, "enabled", False):
            tracer.flight = self
        return self

    def record(self, event: Mapping[str, object]) -> None:
        if event.get("name") == "flight-recorder":
            return  # never recursively capture our own dumps
        self._ring.append(dict(event))

    def note(self, kind: str, **fields) -> None:
        entry: Dict[str, object] = {"name": kind, "ph": "note"}
        entry.update(fields)
        self._ring.append(entry)

    def snapshot(self) -> List[Dict[str, object]]:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def dump(self, tracer, reason: str, **extra) -> Optional[Dict[str, object]]:
        """Emit the ring as one instant event; returns the event."""
        if not getattr(tracer, "enabled", False):
            return None
        self.dumps += 1
        args: Dict[str, object] = {
            "reason": reason,
            "records": self.snapshot(),
            "capacity": self.capacity,
            "dump": self.dumps,
        }
        for key, value in extra.items():
            args[key] = value
        event: Dict[str, object] = {
            "name": "flight-recorder",
            "ph": "i",
            "ts": tracer.now_us(),
            "s": "p",
            "pid": 1,
            "tid": "flight",
            "args": args,
        }
        tracer.emit_raw(event)
        return event


def flight_dump(tracer, reason: str, **extra) -> Optional[Dict[str, object]]:
    """Dump the tracer's attached flight recorder, if any.

    The uniform hook used at Degradation sites: a no-op unless the
    caller's tracer is enabled *and* has a recorder attached, so hot
    paths need no guards.
    """
    flight = getattr(tracer, "flight", None)
    if flight is None:
        return None
    return flight.dump(tracer, reason, **extra)


def flight_dump_degradations(
    tracer, degradations, reason: str, /, **extra
) -> Optional[Dict[str, object]]:
    """Note every :class:`~repro.tools.pool.Degradation` in the flight
    ring, then :func:`flight_dump` it — the hook of the replay paths
    whose supervisor fell back.  A no-op without degradations or on a
    disabled tracer."""
    if not degradations or not getattr(tracer, "enabled", False):
        return None
    flight = getattr(tracer, "flight", None)
    if flight is not None:
        for deg in degradations:
            flight.note("degradation", **deg.as_dict())
    return flight_dump(tracer, reason, **extra)


# ---------------------------------------------------------------------------
# merger: sidecars -> one Chrome trace per job
# ---------------------------------------------------------------------------


def discover_sidecars(spans_dir: str) -> List[str]:
    if not os.path.isdir(spans_dir):
        return []
    out = []
    for name in sorted(os.listdir(spans_dir)):
        if name.endswith(SIDECAR_SUFFIX):
            out.append(os.path.join(spans_dir, name))
    return out


def _belongs_to(event: Mapping[str, object], trace_id: str, job: str) -> bool:
    args = event.get("args")
    if isinstance(args, dict):
        if args.get("trace_id") == trace_id:
            return True
        if job and args.get("job") == job:
            return True
    return False


def merge_job_trace(
    spans_dir: str,
    *,
    trace_id: str,
    job: str = "",
    extra_metadata: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Merge every sidecar in ``spans_dir`` into one job's Chrome trace.

    Sidecars whose header carries the job's trace context contribute
    all their events (they are per-job by construction: workers and
    partition processes open one sidecar per lease).  Shared sidecars —
    the coordinator's — contribute only events tagged with the job's
    ``trace_id``/``job`` in their args.  Each contributing process gets
    its own Chrome ``pid`` (coordinator first, then workers sorted by
    name) with ``process_name`` metadata; track names become stable
    integer ``tid``s with ``thread_name`` metadata.  Worker timestamps
    are shifted by the recorded handshake offset onto the coordinator's
    clock, then the whole trace is rebased so it starts at t=0.
    """
    replays = [read_sidecar(p) for p in discover_sidecars(spans_dir)]
    picked: List[Tuple[SidecarReplay, List[Dict[str, object]]]] = []
    for replay in replays:
        if replay.trace_id == trace_id:
            events = list(replay.events)
        else:
            # Shared (coordinator) sidecars contribute events tagged
            # with the job's trace plus every counter sample — queue
            # depth and lease renewals are coordinator-global tracks.
            events = [
                ev
                for ev in replay.events
                if _belongs_to(ev, trace_id, job) or ev.get("ph") == "C"
            ]
        if events or replay.trace_id == trace_id:
            picked.append((replay, events))

    # Stable process ordering: coordinator-ish first, then by name.
    def sort_key(item):
        replay = item[0]
        is_worker = 1 if replay.trace_id else 0
        return (is_worker, replay.process, replay.path)

    picked.sort(key=sort_key)

    out_events: List[Dict[str, object]] = []
    clock_meta: List[Dict[str, object]] = []
    tid_maps: List[Dict[str, int]] = []
    min_ts: Optional[int] = None

    for pid, (replay, events) in enumerate(picked, start=1):
        offset = replay.handshake_offset_us
        tid_map: Dict[str, int] = {}
        tid_maps.append(tid_map)
        clock_meta.append(
            {
                "process": replay.process,
                "pid": pid,
                "source": os.path.basename(replay.path),
                "anchor_epoch_us": replay.header.get("anchor_epoch_us", 0),
                "handshake_offset_us": offset,
                "torn_tail_bytes": replay.torn_tail_bytes,
            }
        )
        for event in events:
            ev = dict(event)
            ev["pid"] = pid
            track = str(ev.get("tid", "main"))
            if track not in tid_map:
                tid_map[track] = len(tid_map)
            ev["tid"] = tid_map[track]
            ts = ev.get("ts")
            if isinstance(ts, (int, float)):
                ev["ts"] = int(ts) - offset
                if min_ts is None or ev["ts"] < min_ts:
                    min_ts = ev["ts"]
            out_events.append(ev)

    base = min_ts or 0
    for ev in out_events:
        if isinstance(ev.get("ts"), (int, float)):
            ev["ts"] = int(ev["ts"]) - base

    meta_events: List[Dict[str, object]] = []
    for pid, (replay, _events) in enumerate(picked, start=1):
        meta_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": replay.process},
            }
        )
        for track, tid in sorted(
            tid_maps[pid - 1].items(), key=lambda kv: kv[1]
        ):
            meta_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )

    metadata: Dict[str, object] = {
        "trace_id": trace_id,
        "job": job,
        "generator": "repro trace-export",
        "base_epoch_us": base,
        "processes": clock_meta,
    }
    if extra_metadata:
        metadata.update(dict(extra_metadata))
    return {
        "traceEvents": meta_events + out_events,
        "displayTimeUnit": "ms",
        "metadata": metadata,
    }


# ---------------------------------------------------------------------------
# schema check
# ---------------------------------------------------------------------------

_KNOWN_PHASES = {"X", "i", "I", "C", "M", "B", "E"}


def validate_chrome_trace(doc) -> List[str]:
    """Schema-check a merged Chrome trace; returns a list of problems.

    Empty list ⇒ valid.  Checks the invariants Perfetto's JSON importer
    relies on: ``traceEvents`` is a non-empty list of objects, every
    event has a known phase, complete events carry non-negative
    ``ts``/``dur`` and integer ``pid``/``tid``, counter events carry
    numeric series, and metadata events are well-formed.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing, not a list, or empty"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if phase == "M":
            if not event.get("name") or not isinstance(
                event.get("args"), dict
            ):
                problems.append(f"{where}: malformed metadata event")
            continue
        if not event.get("name"):
            problems.append(f"{where}: missing name")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: non-integer pid")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: counter without series")
            elif not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where}: non-numeric counter series")
    return problems
