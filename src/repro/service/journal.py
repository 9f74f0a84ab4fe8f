"""Append-only CRC-framed job journal (the coordinator's source of truth).

The journal borrows the v2 trace format's discipline (DESIGN.md §8):
every record is individually framed and checksummed, so the file is
readable after a crash at *any* byte — the reader simply stops at the
first frame that does not verify.  Because there is exactly one
appender (the coordinator) and appends are sequential, the only
non-verifying suffix a crash can produce is a torn final record; a
mid-file CRC mismatch means real corruption and is reported as such.

On-disk layout::

    header:  b"RPJL" | u16 version (1) | u16 reserved
    record:  u32 payload length | u32 crc32(payload) | payload

The payload is one UTF-8 JSON object with at least ``"type"`` and
``"seq"`` keys; everything else is record-specific.  Record types are
the coordinator's state transitions (``job_submitted``,
``cell_leased``, ``heartbeat``, ``cell_done``,
``cell_failed``, ``lease_expired``, ``worker_dead``, ``job_done``).

Durability policy: state-changing appends ``flush`` + ``fsync``;
high-rate informational records (heartbeats) flush but skip the fsync —
losing the last heartbeat to a crash costs at most one lease-timeout of
requeue latency, never correctness.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["JOURNAL_VERSION", "Journal", "JournalError", "ReplayStats"]

JOURNAL_MAGIC = b"RPJL"
JOURNAL_VERSION = 1

_HEADER = struct.Struct("<4sHH")
_FRAME = struct.Struct("<II")

#: refuse absurd frame lengths (a corrupt length field would otherwise
#: make the reader allocate or skip gigabytes)
_MAX_RECORD_BYTES = 16 * 1024 * 1024


class JournalError(Exception):
    """The journal file is unusable (bad magic/version, not corruption)."""


@dataclass
class ReplayStats:
    """What :meth:`Journal.replay` found on disk.

    ``torn_tail_bytes`` is the benign case (a crash mid-append);
    ``corrupt`` marks a non-final frame that failed its CRC — replay
    still returns every record before the damage.
    """

    records: int = 0
    bytes_read: int = 0
    torn_tail_bytes: int = 0
    corrupt: bool = False
    error: Optional[str] = None
    error_offset: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "records": self.records,
            "bytes_read": self.bytes_read,
            "torn_tail_bytes": self.torn_tail_bytes,
            "corrupt": self.corrupt,
            "error": self.error,
            "error_offset": self.error_offset,
        }


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


class Journal:
    """Single-appender journal with crash-tolerant replay.

    ``metrics`` (an optional :class:`repro.obs.MetricsRegistry`) gets
    ``service.journal.records`` / ``service.journal.bytes`` counters on
    append.  ``readonly=True`` never opens the file for writing —
    that's how ``repro jobs --journal`` inspects a live service's file.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: bool = True,
        readonly: bool = False,
        metrics=None,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.readonly = readonly
        self.metrics = (
            metrics if metrics is not None and metrics.enabled else None
        )
        self._handle = None
        self._seq = 0
        #: set by replay when the file ends in unverifiable bytes: the
        #: offset of the last valid frame end, where the next append
        #: must resume (appending *after* torn bytes would strand every
        #: later record behind the damage).
        self._truncate_to: Optional[int] = None

    # -- writing ------------------------------------------------------------

    def _open_for_append(self):
        if self.readonly:
            raise JournalError("journal opened readonly")
        if self._handle is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            if self._truncate_to is not None and os.path.exists(self.path):
                with open(self.path, "r+b") as repair:
                    repair.truncate(self._truncate_to)
                    repair.flush()
                    os.fsync(repair.fileno())
                self._truncate_to = None
            self._handle = open(self.path, "ab")
            if self._handle.tell() == 0:
                self._handle.write(
                    _HEADER.pack(JOURNAL_MAGIC, JOURNAL_VERSION, 0)
                )
                self._handle.flush()
                os.fsync(self._handle.fileno())
        return self._handle

    def append(
        self, record_type: str, *, durable: bool = True, **fields: Any
    ) -> Dict[str, Any]:
        """Frame and append one record; returns the stamped record.

        ``durable=False`` skips the per-record ``fsync`` (heartbeats);
        the frame is still flushed to the OS so only a machine crash —
        not a process crash — can lose it.
        """
        handle = self._open_for_append()
        self._seq += 1
        record = {"type": record_type, "seq": self._seq}
        record.update(fields)
        payload = json.dumps(
            record, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        if len(payload) > _MAX_RECORD_BYTES:
            raise JournalError(
                f"record of {len(payload)} bytes exceeds the "
                f"{_MAX_RECORD_BYTES}-byte frame limit"
            )
        handle.write(_frame(payload))
        handle.flush()
        if durable and self.fsync:
            os.fsync(handle.fileno())
        if self.metrics is not None:
            self.metrics.counter("service.journal.records").inc()
            self.metrics.counter("service.journal.bytes").inc(
                _FRAME.size + len(payload)
            )
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading ------------------------------------------------------------

    def replay(self) -> Tuple[List[Dict[str, Any]], ReplayStats]:
        """Read every verifiable record; never raises on damage.

        A missing file replays as empty (a brand-new service).  A bad
        magic/version raises :class:`JournalError` — that is the one
        unrecoverable shape, because nothing after the header can be
        trusted to be *this* format.
        """
        stats = ReplayStats()
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return [], stats
        stats.bytes_read = len(data)
        if len(data) < _HEADER.size:
            stats.torn_tail_bytes = len(data)
            self._seq = 0
            self._truncate_to = 0
            return [], stats
        magic, version, _reserved = _HEADER.unpack_from(data, 0)
        if magic != JOURNAL_MAGIC:
            raise JournalError(f"bad journal magic {magic!r} in {self.path}")
        if version != JOURNAL_VERSION:
            raise JournalError(
                f"unsupported journal version {version} in {self.path}"
            )
        records: List[Dict[str, Any]] = []
        pos = _HEADER.size
        end = len(data)
        while pos < end:
            if pos + _FRAME.size > end:
                stats.torn_tail_bytes = end - pos
                break
            length, crc = _FRAME.unpack_from(data, pos)
            body_start = pos + _FRAME.size
            if length > _MAX_RECORD_BYTES:
                stats.corrupt = True
                stats.error = f"frame length {length} exceeds limit"
                stats.error_offset = pos
                break
            if body_start + length > end:
                stats.torn_tail_bytes = end - pos
                break
            payload = data[body_start : body_start + length]
            if zlib.crc32(payload) != crc:
                # A torn *final* frame is expected after a crash; a bad
                # CRC with bytes after it is mid-file damage.
                if body_start + length == end:
                    stats.torn_tail_bytes = end - pos
                else:
                    stats.corrupt = True
                    stats.error = "record CRC mismatch"
                    stats.error_offset = pos
                break
            try:
                record = json.loads(payload.decode("utf-8"))
            except ValueError as exc:
                stats.corrupt = True
                stats.error = f"unparseable record: {exc}"
                stats.error_offset = pos
                break
            if not isinstance(record, dict) or "type" not in record:
                stats.corrupt = True
                stats.error = "record is not an object with a type"
                stats.error_offset = pos
                break
            records.append(record)
            pos = body_start + length
        if pos < end:
            # Replay stopped early (torn tail or damage): the next
            # append must overwrite from here, not after the wreckage.
            self._truncate_to = pos
        stats.records = len(records)
        self._seq = max(
            (r.get("seq", 0) for r in records if isinstance(r.get("seq"), int)),
            default=0,
        )
        return records, stats
