"""Content-addressed on-disk trace store (the sweep's record-once cache).

Traces are artifacts: a recorded execution is a pure function of the
workload factory, its scale/thread parameters, the VM seed and the
fault plan — so a sweep that re-records an identical configuration is
wasting its wall clock.  The store addresses each recorded
:class:`~repro.core.events.EventBatch` by the SHA-256 digest of a
:class:`TraceKey` — ``(workload, scale, threads, vm_seed, fault-plan
digest, trace-format version)`` — and persists it in the crash-safe v2
binary format of :mod:`repro.core.tracefile`:

* **cold**: the sweep records the trace and :meth:`TraceStore.put`\\ s
  it (atomic temp-file + ``os.replace``, so a crashed writer can never
  leave a half-entry under the final name);
* **warm**: :meth:`TraceStore.get` loads it back via
  :func:`~repro.core.tracefile.scan_trace`, the per-section-CRC
  recovery scanner — a corrupt or truncated entry is treated as a
  *miss* (and counted), never as data.

Alongside each trace the store keeps two kinds of sidecars, all under
the same digest:

* ``.meta.json`` — recording metadata plus (optionally) per-tool replay
  measurements, so a fully-warm sweep can reuse measured numbers,
  as compact JSON;
* ``.<kind>.shard.pkl`` — profiler shards (a
  :class:`~repro.core.timestamping.DrmsProfiler`,
  :class:`~repro.core.rms.RmsProfiler` or partition shard after
  ``begin_trace()``, i.e. shadow-free) stored as data: the
  CRC-checked, version-tagged envelope of
  :mod:`repro.sweep.shard_codec` around zlib-compressed JSON, whose
  objects come only from a fixed list of classes.  Reading one never
  unpickles.  A shard a store holds from before that codec is a pickle
  (first byte ``0x80``, the pickle PROTO opcode); it is counted stale
  without being decoded, and recomputed like a shard of another
  version.  The ``.pkl`` suffix is kept for the tools that match on
  it.  An unreadable or version-mismatched shard is recomputed, not
  trusted.

Layout: ``root/<digest[:2]>/<digest>.trace`` (git-object-style fan-out
so a big sweep does not pile thousands of files into one directory).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.events import EventBatch, write_rows
from repro.core.tracefile import (
    TRACE_FORMAT_VERSION,
    save_trace_binary,
    scan_trace,
)
from repro.sweep.shard_codec import (
    ShardFormatError,
    decode_body,
    encode_shard,
    read_envelope,
)

__all__ = ["StoreAudit", "TraceKey", "TraceStore", "SHARD_VERSION"]

#: version tag baked into stored profiler shards; bump when profiler
#: state layout changes so stale shards are recomputed instead of
#: decoded into the wrong shape (3: per-thread partition cuts —
#: shards carry carry-in/carry-out summaries and six-field cold logs)
SHARD_VERSION = 3

#: first byte of every pickle the pre-codec shard writer produced
#: (protocol >= 2 opens with the PROTO opcode)
_PICKLE_PROTO = 0x80


class _StaleShard(Exception):
    """An intact shard written under another ``SHARD_VERSION``."""


def _load_shard(data: bytes, kind: Optional[str] = None):
    """The shard stored in ``data``: :class:`_StaleShard` for an intact
    shard of another version, any other exception for a corrupt one (or
    one stored under a kind other than ``kind``, when given).

    A codec envelope is decoded without ``pickle``.  A file that opens
    with the pickle PROTO opcode was written before the codec: it is
    stale, and nothing past that byte is read, since unpickling a
    crafted file would run its code."""
    if data[:1] == bytes([_PICKLE_PROTO]):
        raise _StaleShard("pickle")
    version, stored_kind, body = read_envelope(data)
    if kind is not None and stored_kind != kind:
        raise ShardFormatError(f"shard stored as {stored_kind!r}")
    if version != SHARD_VERSION:
        raise _StaleShard(version)
    return decode_body(body)


@dataclass(frozen=True)
class TraceKey:
    """Cache key for one recorded execution.

    Every field that can change the recorded byte stream is part of the
    key; ``trace_version`` ties entries to the on-disk format so a
    format bump invalidates the whole store instead of mis-decoding it.
    ``vm_seed`` is reserved for seeded machine variants (the current VM
    is deterministic, so it is 0 today); ``fault_digest`` is
    :meth:`FaultPlan.digest() <repro.vm.faults.FaultPlan.digest>` or
    ``""`` for fault-free runs.
    """

    workload: str
    scale: int
    threads: int
    vm_seed: int = 0
    fault_digest: str = ""
    trace_version: int = TRACE_FORMAT_VERSION

    def digest(self) -> str:
        material = repr(
            (
                "repro-trace-key-v1",
                self.workload,
                self.scale,
                self.threads,
                self.vm_seed,
                self.fault_digest,
                self.trace_version,
            )
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()


#: service test hooks (DESIGN.md §13): ``REPRO_SERVICE_TEST_KILL``
#: holds ``stage@worker`` entries; stage ``shard`` SIGKILLs the process
#: named by ``REPRO_SERVICE_WORKER`` halfway through writing a profiler
#: shard's temp file — a genuine torn write, which atomicity must turn
#: into "the final name never appeared".
_SERVICE_KILL_ENV = "REPRO_SERVICE_TEST_KILL"
_SERVICE_WORKER_ENV = "REPRO_SERVICE_WORKER"


def _maybe_torn_write_kill(path: str, handle, data: bytes) -> None:
    spec = os.environ.get(_SERVICE_KILL_ENV)
    worker = os.environ.get(_SERVICE_WORKER_ENV)
    if not spec or worker is None or not path.endswith(".shard.pkl"):
        return
    for item in spec.split(","):
        stage, _, target = item.strip().partition("@")
        if stage == "shard" and target in ("", worker):
            import signal

            handle.write(data[: max(1, len(data) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
            os.kill(os.getpid(), signal.SIGKILL)


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: temp file in the same
    directory, then ``os.replace`` — readers see the old entry or the
    complete new one, never a prefix."""
    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            _maybe_torn_write_kill(path, handle, data)
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class TraceStore:
    """Content-addressed store of recorded traces and profiler shards.

    ``metrics`` (an optional :class:`repro.obs.MetricsRegistry`) gets
    ``sweep.cache.hits`` / ``sweep.cache.misses`` /
    ``sweep.cache.corrupt`` counters; the same numbers are always
    available as plain attributes (``hits``/``misses``/``corrupt``) for
    processes without a registry.
    """

    def __init__(self, root: str, metrics=None) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        #: sidecar reads (meta JSON / stored shards) that failed for
        #: any reason other than the file being absent — counted, never
        #: raised: a truncated sidecar must cost a recompute, not a
        #: sweep abort
        self.sidecar_corrupt = 0
        #: well-formed shards rejected for a version/tag mismatch
        self.sidecar_stale = 0
        self.metrics = (
            metrics if metrics is not None and metrics.enabled else None
        )

    # -- paths --------------------------------------------------------------

    def _entry_dir(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2])

    def trace_path(self, key: TraceKey) -> str:
        digest = key.digest()
        return os.path.join(self._entry_dir(digest), digest + ".trace")

    def meta_path(self, key: TraceKey) -> str:
        digest = key.digest()
        return os.path.join(self._entry_dir(digest), digest + ".meta.json")

    def shard_path(self, key: TraceKey, kind: str) -> str:
        digest = key.digest()
        return os.path.join(
            self._entry_dir(digest), f"{digest}.{kind}.shard.pkl"
        )

    # -- counters -----------------------------------------------------------

    def _note(self, outcome: str) -> None:
        if outcome == "hit":
            self.hits += 1
            if self.metrics is not None:
                self.metrics.counter("sweep.cache.hits").inc()
            return
        # a corrupt entry is a miss as far as the caller is concerned
        self.misses += 1
        if outcome == "corrupt":
            self.corrupt += 1
        if self.metrics is not None:
            self.metrics.counter("sweep.cache.misses").inc()
            if outcome == "corrupt":
                self.metrics.counter("sweep.cache.corrupt").inc()

    def _note_sidecar(self, kind: str, *, stale: bool = False) -> None:
        if stale:
            self.sidecar_stale += 1
            if self.metrics is not None:
                self.metrics.counter("sweep.cache.sidecar_stale").inc()
            return
        self.sidecar_corrupt += 1
        if self.metrics is not None:
            self.metrics.counter(
                "sweep.cache.sidecar_corrupt", {"kind": kind}
            ).inc()

    # -- traces -------------------------------------------------------------

    def get(self, key: TraceKey) -> Optional[EventBatch]:
        """Load the cached trace rows for ``key``, or ``None`` on a miss.

        The entry is decoded with the crash-safe scanner; anything less
        than a fully intact trace (bad magic, CRC mismatch, truncation)
        counts as ``corrupt`` and is reported as a miss — the sweep
        re-records rather than profiling salvaged prefixes, so cache
        contents can never silently change results.
        """
        path = self.trace_path(key)
        try:
            with open(path, "rb") as handle:
                scan = scan_trace(handle)
        except FileNotFoundError:
            self._note("miss")
            return None
        except OSError:
            self._note("corrupt")
            return None
        if not scan.intact or len(scan.batch) == 0:
            self._note("corrupt")
            return None
        self._note("hit")
        return scan.batch

    def put(
        self, key: TraceKey, batch: EventBatch, boundaries: tuple = ()
    ) -> str:
        """Persist ``batch`` under ``key`` (atomic); returns the entry
        path.  The rows are stored as given (:func:`write_rows`): the
        sweep hands over the fused rows of
        :func:`~repro.core.events.fuse_segments`, which are also what
        it replays.  ``boundaries`` (execution-boundary row indices)
        section-align the persisted payload so a warm partition replay
        sees the same depth-zero cut points a cold one does."""
        digest = key.digest()
        directory = self._entry_dir(digest)
        os.makedirs(directory, exist_ok=True)
        path = self.trace_path(key)
        _atomic_write(path, write_rows(batch, boundaries))
        return path

    def payload(self, key: TraceKey) -> Optional[bytes]:
        """Raw persisted trace bytes (``None`` if absent) — the exact
        section framing written by :meth:`put`, for consumers like the
        partition planner whose cut points follow section boundaries."""
        try:
            with open(self.trace_path(key), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def entry_bytes(self, key: TraceKey) -> int:
        """On-disk size of the trace entry (0 if absent)."""
        try:
            return os.path.getsize(self.trace_path(key))
        except OSError:
            return 0

    # -- metadata sidecar ---------------------------------------------------

    def get_meta(self, key: TraceKey) -> Optional[Dict[str, Any]]:
        """The entry's JSON sidecar, or ``None`` if absent/unreadable.

        Absent is normal (a fresh entry); anything else — truncated
        JSON, permission errors, a non-object payload — is a *counted*
        sidecar miss, never an exception: losing cached measurements
        must never abort a sweep.
        """
        try:
            with open(self.meta_path(key), "r") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            self._note_sidecar("meta")
            return None
        if not isinstance(data, dict):
            self._note_sidecar("meta")
            return None
        return data

    def put_meta(self, key: TraceKey, meta: Dict[str, Any]) -> None:
        digest = key.digest()
        os.makedirs(self._entry_dir(digest), exist_ok=True)
        payload = json.dumps(
            meta, separators=(",", ":"), sort_keys=True, allow_nan=False
        )
        _atomic_write(self.meta_path(key), payload.encode("utf-8"))

    # -- profiler shards ----------------------------------------------------

    def get_shard(self, key: TraceKey, kind: str):
        """Decode the ``kind`` profiler shard for ``key``, or ``None``.

        A codec envelope (:mod:`repro.sweep.shard_codec`) is decoded
        as data — no ``pickle`` call, objects only from the codec's
        class list.  Any failure — missing file, bad CRC, damaged zlib
        or JSON, an unknown tag or class, a kind or version mismatch, a
        pickle written before the codec — yields ``None`` so the caller
        recomputes the shard from the trace; a cache can be deleted at
        any time without changing results.  Damaged shards count as
        ``sidecar_corrupt``; intact shards of another ``SHARD_VERSION``
        and pickled shards, which are never unpickled, count as
        ``sidecar_stale``.
        """
        try:
            with open(self.shard_path(key, kind), "rb") as handle:
                return _load_shard(handle.read(), kind)
        except FileNotFoundError:
            return None
        except _StaleShard:
            self._note_sidecar("shard", stale=True)
        except Exception:
            self._note_sidecar("shard")
        return None

    def put_shard(self, key: TraceKey, kind: str, shard) -> None:
        """Store ``shard`` as ``kind`` for ``key`` (atomic), encoded by
        :func:`~repro.sweep.shard_codec.encode_shard` at
        ``SHARD_VERSION``.  Raises before writing anything when the
        shard holds a type outside the codec's tree or a non-empty
        shadow memory."""
        digest = key.digest()
        os.makedirs(self._entry_dir(digest), exist_ok=True)
        payload = encode_shard(kind, SHARD_VERSION, shard)
        _atomic_write(self.shard_path(key, kind), payload)

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Hit/miss/corrupt counts plus the derived hit rate."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def sidecar_stats(self) -> Dict[str, int]:
        """Sidecar (meta/shard) failure counts, kept separate from
        :meth:`stats` so existing consumers of that dict are
        undisturbed."""
        return {
            "sidecar_corrupt": self.sidecar_corrupt,
            "sidecar_stale": self.sidecar_stale,
        }

    # -- audit / recovery ---------------------------------------------------

    def audit(self) -> "StoreAudit":
        """Walk the whole store and classify every file.

        Used by ``repro doctor --store``: each trace is re-scanned with
        the crash-safe decoder, each meta sidecar is re-parsed, each
        shard is re-decoded and version-checked, and sidecars whose
        trace entry is gone are flagged as orphans.  Leftover
        ``.tmp`` files (from writers killed before ``os.replace``) are
        reported too — they are harmless but worth sweeping.  The
        ``quarantine/`` subdirectory is skipped so repeated audits
        converge.
        """
        audit = StoreAudit(root=self.root)
        quarantine_dir = os.path.join(self.root, "quarantine")
        for dirpath, dirnames, filenames in os.walk(self.root):
            if os.path.abspath(dirpath).startswith(
                os.path.abspath(quarantine_dir)
            ):
                continue
            dirnames[:] = [d for d in dirnames if d != "quarantine"]
            traces_here = {
                name[: -len(".trace")]
                for name in filenames
                if name.endswith(".trace")
            }
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if name.endswith(".tmp"):
                    audit.tmp_files.append(path)
                    continue
                if name.endswith(".trace"):
                    audit.traces += 1
                    if not self._trace_intact(path):
                        audit.corrupt_traces.append(path)
                    continue
                if name.endswith(".meta.json"):
                    audit.metas += 1
                    digest = name[: -len(".meta.json")]
                    if digest not in traces_here:
                        audit.orphan_sidecars.append(path)
                    if not self._meta_intact(path):
                        audit.corrupt_metas.append(path)
                    continue
                if name.endswith(".shard.pkl"):
                    audit.shards += 1
                    digest = name.split(".", 1)[0]
                    if digest not in traces_here:
                        audit.orphan_sidecars.append(path)
                    verdict = self._shard_verdict(path)
                    if verdict == "corrupt":
                        audit.corrupt_shards.append(path)
                    elif verdict == "stale":
                        audit.stale_shards.append(path)
        return audit

    @staticmethod
    def _trace_intact(path: str) -> bool:
        try:
            with open(path, "rb") as handle:
                scan = scan_trace(handle)
        except OSError:
            return False
        return bool(scan.intact and len(scan.batch))

    @staticmethod
    def _meta_intact(path: str) -> bool:
        try:
            with open(path, "r") as handle:
                return isinstance(json.load(handle), dict)
        except Exception:
            return False

    @staticmethod
    def _shard_verdict(path: str) -> str:
        """``ok``, ``stale`` or ``corrupt``, by the rules of
        :meth:`get_shard` (a pickled shard is ``stale``)."""
        try:
            with open(path, "rb") as handle:
                _load_shard(handle.read())
        except _StaleShard:
            return "stale"
        except Exception:
            return "corrupt"
        return "ok"

    def quarantine(self, audit: "StoreAudit") -> List[str]:
        """Move every bad file from ``audit`` into ``root/quarantine/``.

        The move preserves the fan-out subdirectory (so two corrupt
        entries with the same digest prefix cannot collide) and is a
        plain ``os.replace`` — after recovery a re-run sweep sees clean
        misses and re-records.  Returns the quarantined paths, and
        also unlinks leftover ``.tmp`` files outright.
        """
        moved: List[str] = []
        quarantine_dir = os.path.join(self.root, "quarantine")
        for path in audit.bad_files():
            if not os.path.exists(path):
                continue
            rel = os.path.relpath(path, self.root)
            dest = os.path.join(quarantine_dir, rel)
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            os.replace(path, dest)
            moved.append(dest)
        for path in audit.tmp_files:
            try:
                os.unlink(path)
            except OSError:
                pass
        return moved


@dataclass
class StoreAudit:
    """Result of :meth:`TraceStore.audit` — what's intact and what isn't."""

    root: str
    traces: int = 0
    metas: int = 0
    shards: int = 0
    corrupt_traces: List[str] = field(default_factory=list)
    corrupt_metas: List[str] = field(default_factory=list)
    corrupt_shards: List[str] = field(default_factory=list)
    stale_shards: List[str] = field(default_factory=list)
    orphan_sidecars: List[str] = field(default_factory=list)
    tmp_files: List[str] = field(default_factory=list)

    def bad_files(self) -> List[str]:
        """Every file :meth:`TraceStore.quarantine` should move
        (orphans included — a sidecar without its trace can only serve
        stale data)."""
        seen: Dict[str, None] = {}
        for group in (
            self.corrupt_traces,
            self.corrupt_metas,
            self.corrupt_shards,
            self.stale_shards,
            self.orphan_sidecars,
        ):
            for path in group:
                seen.setdefault(path)
        return list(seen)

    @property
    def clean(self) -> bool:
        return not (self.bad_files() or self.tmp_files)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "traces": self.traces,
            "metas": self.metas,
            "shards": self.shards,
            "corrupt_traces": list(self.corrupt_traces),
            "corrupt_metas": list(self.corrupt_metas),
            "corrupt_shards": list(self.corrupt_shards),
            "stale_shards": list(self.stale_shards),
            "orphan_sidecars": list(self.orphan_sidecars),
            "tmp_files": list(self.tmp_files),
            "clean": self.clean,
        }
