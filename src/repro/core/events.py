"""Typed trace events consumed by the profiling algorithms.

The paper (Section 3) defines the profiler over *traces of program
operations associated with timing information*.  Each trace is generated by
a different thread and includes routine activations (``call``), routine
completions (``return``), read/write memory accesses, and read/write
operations performed through kernel system calls (``userToKernel`` and
``kernelToUser``).  After the per-thread traces are merged (see
:mod:`repro.core.tracing`) the merged stream additionally carries
``switchThread`` markers between operations of different threads.

Events are plain frozen dataclasses so traces can be generated, stored,
sliced and replayed cheaply, and so property-based tests can synthesise
arbitrary traces.
"""

from __future__ import annotations

import enum
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as _np

from repro.core.codec import (
    FLAG_ZLIB,
    SECTION_HEADER,
    SectionCodecError,
    decode_section_payload,
    encode_section_payload,
)

__all__ = [
    "TRACE_FORMAT_VERSION",
    "EventKind",
    "LockAcquire",
    "LockRelease",
    "ThreadStart",
    "ThreadExit",
    "AUXILIARY_EVENTS",
    "Call",
    "Return",
    "Read",
    "Write",
    "UserToKernel",
    "KernelToUser",
    "SwitchThread",
    "Event",
    "ThreadEvent",
    "describe",
    # opcode-encoded batch layer
    "OP_CALL",
    "OP_RETURN",
    "OP_READ",
    "OP_WRITE",
    "OP_USER_TO_KERNEL",
    "OP_KERNEL_TO_USER",
    "OP_SWITCH_THREAD",
    "OP_LOCK_ACQUIRE",
    "OP_LOCK_RELEASE",
    "OP_THREAD_START",
    "OP_THREAD_EXIT",
    "OP_READ_RUN",
    "OP_WRITE_RUN",
    "OP_KFILL_RUN",
    "SUPEROP_NAMES",
    "RUN_OPCODES",
    "OPCODE_BY_KIND",
    "KIND_BY_OPCODE",
    "OPCODE_NAMES",
    "EventBatch",
    "TraceEncoder",
    "encode_events",
    "decode_batch",
    "fuse_batch",
    "count_superops",
    "TraceIntegrityError",
    "TraceScan",
    "scan_batch_bytes",
]


class EventKind(enum.Enum):
    """Discriminator for trace events (useful for dispatch tables)."""

    CALL = "call"
    RETURN = "return"
    READ = "read"
    WRITE = "write"
    USER_TO_KERNEL = "userToKernel"
    KERNEL_TO_USER = "kernelToUser"
    SWITCH_THREAD = "switchThread"
    LOCK_ACQUIRE = "lockAcquire"
    LOCK_RELEASE = "lockRelease"
    THREAD_START = "threadStart"
    THREAD_EXIT = "threadExit"


@dataclass(frozen=True)
class Call:
    """Activation of routine ``routine`` by thread ``thread``.

    ``cost`` is the value of the thread's cost counter (executed basic
    blocks) at the moment of the activation; the profiler charges a routine
    the difference between the counter at return and at call.
    """

    thread: int
    routine: str
    cost: int = 0
    kind = EventKind.CALL


@dataclass(frozen=True)
class Return:
    """Completion of the topmost pending routine activation of ``thread``."""

    thread: int
    cost: int = 0
    kind = EventKind.RETURN


@dataclass(frozen=True)
class Read:
    """Thread ``thread`` reads memory location ``addr``."""

    thread: int
    addr: int
    kind = EventKind.READ


@dataclass(frozen=True)
class Write:
    """Thread ``thread`` writes memory location ``addr``."""

    thread: int
    addr: int
    kind = EventKind.WRITE


@dataclass(frozen=True)
class UserToKernel:
    """The kernel reads ``addr`` on behalf of ``thread`` (outbound I/O).

    Emitted for each memory cell passed to an outbound system call such as
    ``write``, ``sendto``, ``pwrite64``, ``writev``, ``msgsnd`` or
    ``pwritev`` (Section 4.1 of the paper).
    """

    thread: int
    addr: int
    kind = EventKind.USER_TO_KERNEL


@dataclass(frozen=True)
class KernelToUser:
    """The kernel writes fresh external data into ``addr`` (inbound I/O).

    Emitted for each memory cell filled by an inbound system call such as
    ``read``, ``recvfrom``, ``pread64``, ``readv``, ``msgrcv`` or
    ``preadv``.  ``thread`` records which thread issued the system call;
    the drms algorithm treats the write as performed by the *kernel*, not
    by that thread.
    """

    thread: int
    addr: int
    kind = EventKind.KERNEL_TO_USER


@dataclass(frozen=True)
class SwitchThread:
    """Marker inserted in a merged trace between operations of two threads."""

    kind = EventKind.SWITCH_THREAD


# -- tool-visible auxiliary events ------------------------------------------
#
# The drms/rms profilers ignore these (synchronisation performs no
# profiled memory accesses, per the paper's Figure 2 discussion), but the
# comparison tools need them: helgrind tracks lock operations and thread
# creation/join to build its happens-before relation, and callgrind uses
# thread lifetimes.


@dataclass(frozen=True)
class LockAcquire:
    """Thread ``thread`` acquired lock ``lock``."""

    thread: int
    lock: str
    kind = EventKind.LOCK_ACQUIRE


@dataclass(frozen=True)
class LockRelease:
    """Thread ``thread`` released lock ``lock``."""

    thread: int
    lock: str
    kind = EventKind.LOCK_RELEASE


@dataclass(frozen=True)
class ThreadStart:
    """Thread ``thread`` was created by ``parent`` (0 for the initial one)."""

    thread: int
    parent: int
    kind = EventKind.THREAD_START


@dataclass(frozen=True)
class ThreadExit:
    """Thread ``thread`` finished."""

    thread: int
    kind = EventKind.THREAD_EXIT


#: Events that can appear in a per-thread trace.
ThreadEvent = Union[
    Call,
    Return,
    Read,
    Write,
    UserToKernel,
    KernelToUser,
    LockAcquire,
    LockRelease,
    ThreadStart,
    ThreadExit,
]

#: Events that can appear in a merged trace.
Event = Union[ThreadEvent, SwitchThread]

#: Auxiliary events ignored by the rms/drms profilers.
AUXILIARY_EVENTS = (LockAcquire, LockRelease, ThreadStart, ThreadExit)


def describe(event: Event) -> str:
    """Render ``event`` as a short human-readable string (for debugging)."""
    if isinstance(event, Call):
        return f"call({event.routine}, T{event.thread})"
    if isinstance(event, Return):
        return f"return(T{event.thread})"
    if isinstance(event, Read):
        return f"read(0x{event.addr:x}, T{event.thread})"
    if isinstance(event, Write):
        return f"write(0x{event.addr:x}, T{event.thread})"
    if isinstance(event, UserToKernel):
        return f"userToKernel(0x{event.addr:x}, T{event.thread})"
    if isinstance(event, KernelToUser):
        return f"kernelToUser(0x{event.addr:x}, T{event.thread})"
    if isinstance(event, SwitchThread):
        return "switchThread()"
    if isinstance(event, LockAcquire):
        return f"lockAcquire({event.lock}, T{event.thread})"
    if isinstance(event, LockRelease):
        return f"lockRelease({event.lock}, T{event.thread})"
    if isinstance(event, ThreadStart):
        return f"threadStart(T{event.thread} by T{event.parent})"
    if isinstance(event, ThreadExit):
        return f"threadExit(T{event.thread})"
    raise TypeError(f"not a trace event: {event!r}")


# ---------------------------------------------------------------------------
# Opcode-encoded batches (the fast path)
# ---------------------------------------------------------------------------
#
# The dataclasses above are the *reference* representation: convenient to
# build by hand, pattern-match and pretty-print, but each event costs one
# heap allocation and each consumer an ``isinstance`` chain.  The batch
# layer encodes the same trace as a struct-of-arrays of integers — one
# opcode array plus three operand arrays — with routine and lock names
# interned into a side table.  Producers append four integers per event;
# consumers dispatch on the opcode with all hot state in locals.  The two
# representations are interconvertible and the test suite pins
# ``decode_batch(encode_events(t)) == t`` on arbitrary traces.

OP_CALL = 0
OP_RETURN = 1
OP_READ = 2
OP_WRITE = 3
OP_USER_TO_KERNEL = 4
OP_KERNEL_TO_USER = 5
OP_SWITCH_THREAD = 6
OP_LOCK_ACQUIRE = 7
OP_LOCK_RELEASE = 8
OP_THREAD_START = 9
OP_THREAD_EXIT = 10

#: EventKind -> integer opcode (dense, starting at 0)
OPCODE_BY_KIND = {
    EventKind.CALL: OP_CALL,
    EventKind.RETURN: OP_RETURN,
    EventKind.READ: OP_READ,
    EventKind.WRITE: OP_WRITE,
    EventKind.USER_TO_KERNEL: OP_USER_TO_KERNEL,
    EventKind.KERNEL_TO_USER: OP_KERNEL_TO_USER,
    EventKind.SWITCH_THREAD: OP_SWITCH_THREAD,
    EventKind.LOCK_ACQUIRE: OP_LOCK_ACQUIRE,
    EventKind.LOCK_RELEASE: OP_LOCK_RELEASE,
    EventKind.THREAD_START: OP_THREAD_START,
    EventKind.THREAD_EXIT: OP_THREAD_EXIT,
}

#: integer opcode -> EventKind
KIND_BY_OPCODE = {op: kind for kind, op in OPCODE_BY_KIND.items()}

#: opcode -> wire-format event name ("call", "read", "switchThread", ...);
#: indexable by opcode since the opcodes are dense from 0
OPCODE_NAMES = tuple(
    KIND_BY_OPCODE[op].value for op in range(len(KIND_BY_OPCODE))
)

# -- fused superops ---------------------------------------------------------
#
# A run superop encodes N consecutive plain reads, writes or kernel
# fills (``kernelToUser``) by one thread at stride-1 addresses
# ``args[i], args[i]+1, ..., args[i]+n-1`` with the run length ``n``
# stored in ``costs[i]``.  Runs are capped so they never cross a
# 64-cell leaf boundary (see :func:`fuse_batch`), which lets the
# columnar kernel service a whole run with one leaf probe and C-level
# array slices.  Superops are a *replay-side* encoding: they carry no
# ``EventKind`` (``iter_events`` expands them back into the plain
# dataclasses) and the VM never emits them.
#
# Reads and writes do not move the profiler's global counter, so every
# cell of a read or write run executes at one timestamp.  A kernel fill
# bumps the counter once per cell (Figure 9), so a fill run is an
# arithmetic-progression stamp ``count+1 ... count+n`` of the global
# write timestamps — exact unless renumbering falls inside the run, in
# which case the kernel replays it cell by cell.  ``userToKernel`` never
# fuses: what it means depends on the profiler policy (a read when
# external input counts, nothing otherwise), so it stays a plain row.

OP_READ_RUN = 11
OP_WRITE_RUN = 12
OP_KFILL_RUN = 13

#: superop opcode -> debug name (kept out of OPCODE_NAMES, which is the
#: VM-emitted wire vocabulary indexed by EventKind-backed opcodes)
SUPEROP_NAMES = {
    OP_READ_RUN: "readRun",
    OP_WRITE_RUN: "writeRun",
    OP_KFILL_RUN: "kernelFillRun",
}

#: plain opcode -> the run superop it fuses into; the one statement of
#: what fuses, from which ``fuse_batch``, ``iter_events``,
#: ``event_count`` and ``count_superops`` are derived
RUN_OPCODES = {
    OP_READ: OP_READ_RUN,
    OP_WRITE: OP_WRITE_RUN,
    OP_KERNEL_TO_USER: OP_KFILL_RUN,
}
assert set(RUN_OPCODES.values()) == set(SUPEROP_NAMES)

#: run superop -> the dataclass of each event it stands for
_RUN_EVENT = {
    run: {OP_READ: Read, OP_WRITE: Write, OP_KERNEL_TO_USER: KernelToUser}[plain]
    for plain, run in RUN_OPCODES.items()
}

#: opcode (as an unsigned byte) -> the run class it belongs to: a plain
#: fusable opcode and its run superop share their run opcode (so a run
#: superop is an opcode equal to its class), every other opcode is -1
_RUN_CLASS = _np.full(256, -1, dtype=_np.int8)
for _plain, _run in RUN_OPCODES.items():
    _RUN_CLASS[_plain] = _RUN_CLASS[_run] = _run
del _plain, _run

#: legacy unchecksummed format (still readable)
_BATCH_MAGIC_V1 = b"RPRB\x01"
#: fixed-width crash-safe format: CRC-guarded name table + 25-byte-per-
#: event sections (still readable and writable via ``version=2``)
_BATCH_MAGIC = b"RPRB\x02"
#: current compact format: same header, per-lane delta/width-tagged
#: columnar sections with optional per-section zlib (see
#: :mod:`repro.core.codec`)
_BATCH_MAGIC_V3 = b"RPRB\x03"

#: current binary trace format version (the ``RPRB\x03`` magic).  Cache
#: keys that address recorded traces must include it: a format bump
#: invalidates every stored entry rather than mis-decoding it.
TRACE_FORMAT_VERSION = 3

#: bytes per event inside a v2 section payload (ops 1 + threads/args/costs 8)
_EVENT_BYTES = 25

#: events per v2 section when serialising (~25 KB sections — the CRC
#: granularity, i.e. the most a single flipped bit or torn tail can
#: cost; framing overhead is 12 bytes per section, under 0.05%)
_SECTION_EVENTS = 1024


class TraceIntegrityError(ValueError):
    """A binary trace is malformed, truncated or CRC-corrupt.

    ``offset`` is the byte position at which the stream stopped making
    sense — the context a raw ``struct.error`` never carries."""

    def __init__(self, message: str, offset: int = 0) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


@dataclass
class TraceScan:
    """Result of scanning a binary trace for its longest valid prefix.

    ``batch`` holds every event from sections whose CRC verified, in
    order; ``error`` carries the first integrity problem found (``None``
    for a pristine trace).  ``intact`` is the doctor's verdict: no
    errors *and* every declared event recovered."""

    batch: "EventBatch"
    version: int
    declared_events: int
    events_loaded: int
    sections_valid: int
    valid_bytes: int
    error: Optional[TraceIntegrityError] = field(default=None)
    #: events salvaged from each CRC-verified section, in file order
    #: (``sum(section_events) == events_loaded``); a v1 trace reads as
    #: one all-or-nothing section
    section_events: List[int] = field(default_factory=list)
    #: 0-based index of the section where the scan stopped (``None``
    #: when every section verified) — the count of valid sections
    #: before the damage, so doctors can say *which* section died, not
    #: just at what byte
    error_section: Optional[int] = field(default=None)

    @property
    def intact(self) -> bool:
        return self.error is None and self.events_loaded == self.declared_events


def _native_le(arr: array) -> array:
    """Return ``arr`` in little-endian byte order (copying only on
    big-endian hosts, which are vanishingly rare)."""
    if sys.byteorder == "big":  # pragma: no cover - exotic hardware
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr


class EventBatch:
    """A trace slice as a struct-of-arrays of integers.

    Per event ``i``:

    * ``ops[i]``     — opcode (one of the ``OP_*`` constants);
    * ``threads[i]`` — thread id (0 for ``switchThread``);
    * ``args[i]``    — address for memory/kernel events, interned
      routine-name id for ``call``, interned lock-name id for lock
      events, parent thread for ``threadStart``, 0 otherwise;
    * ``costs[i]``   — basic-block counter for ``call``/``return``, 0
      otherwise.

    ``names`` is the intern table shared by routine and lock names:
    ``names[args[i]]`` recovers the string.  Batches pickle cheaply
    (array buffers, no per-event objects) and serialise to a compact
    binary form via :meth:`to_bytes`/:meth:`from_bytes`.
    """

    __slots__ = ("ops", "threads", "args", "costs", "names")

    def __init__(
        self,
        ops: Optional[array] = None,
        threads: Optional[array] = None,
        args: Optional[array] = None,
        costs: Optional[array] = None,
        names: Optional[List[str]] = None,
    ) -> None:
        self.ops = ops if ops is not None else array("b")
        self.threads = threads if threads is not None else array("q")
        self.args = args if args is not None else array("q")
        self.costs = costs if costs is not None else array("q")
        self.names = names if names is not None else []

    def __len__(self) -> int:
        return len(self.ops)

    def event_count(self) -> int:
        """Logical event count: run superops weigh their run length, so a
        fused batch counts the same as its unfused original."""
        runs, covered = count_superops(self)
        return len(self.ops) - runs + covered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventBatch({len(self)} events, {len(self.names)} names)"

    def iter_events(self) -> Iterator[Event]:
        """Decode back into dataclass events (the slow, generic path).

        Run superops are expanded into their individual ``Read``/
        ``Write``/``KernelToUser`` events, so generic consumers see
        fused and unfused batches identically."""
        ops, threads, args, costs = self.ops, self.threads, self.args, self.costs
        names = self.names
        for i in range(len(ops)):
            op = ops[i]
            if op == OP_READ:
                yield Read(threads[i], args[i])
            elif op == OP_WRITE:
                yield Write(threads[i], args[i])
            elif op == OP_CALL:
                yield Call(threads[i], names[args[i]], costs[i])
            elif op == OP_RETURN:
                yield Return(threads[i], costs[i])
            elif op == OP_USER_TO_KERNEL:
                yield UserToKernel(threads[i], args[i])
            elif op == OP_KERNEL_TO_USER:
                yield KernelToUser(threads[i], args[i])
            elif op == OP_SWITCH_THREAD:
                yield SwitchThread()
            elif op == OP_LOCK_ACQUIRE:
                yield LockAcquire(threads[i], names[args[i]])
            elif op == OP_LOCK_RELEASE:
                yield LockRelease(threads[i], names[args[i]])
            elif op == OP_THREAD_START:
                yield ThreadStart(threads[i], args[i])
            elif op == OP_THREAD_EXIT:
                yield ThreadExit(threads[i])
            elif op in _RUN_EVENT:
                event, thread, base = _RUN_EVENT[op], threads[i], args[i]
                for off in range(costs[i]):
                    yield event(thread, base + off)
            else:
                raise ValueError(f"unknown opcode {op} at index {i}")

    # -- binary serialisation -------------------------------------------
    #
    # Shared header (little-endian throughout):
    #
    #   magic "RPRB\x02" (v2) or "RPRB\x03" (v3)
    #   u32   names_size                # bytes of names payload
    #   bytes names payload             # u32 n_names, then (u32 len, utf8)*
    #   u32   crc32(names payload)
    #   u64   declared event count
    #
    # v2 sections until EOF, each:
    #     u64   n                       # events in this section
    #     bytes payload                 # ops[n] ++ threads[8n] ++ args[8n]
    #                                   #   ++ costs[8n]
    #     u32   crc32(payload)
    #
    # v3 sections until EOF, each:
    #     u32   n                       # events in this section
    #     u8    flags                   # bit0: payload zlib-compressed
    #     u32   calls                   # OP_CALL count (planner shortcut)
    #     u32   returns                 # OP_RETURN count
    #     u32   enc_size                # stored payload bytes
    #     bytes payload                 # per-lane columns, see core.codec
    #     u32   crc32(stored payload)
    #
    # A crashed writer leaves a truncated tail; a bad disk flips bits.
    # Either way every section is independently verifiable, so readers
    # recover the longest valid prefix instead of losing the whole run.

    def to_bytes(
        self,
        section_events: int = _SECTION_EVENTS,
        boundaries: Iterable[int] = (),
        version: int = TRACE_FORMAT_VERSION,
        compress: bool = True,
    ) -> bytes:
        """Serialise to the crash-safe binary trace form.

        ``boundaries`` (optional, sorted or not) are event indices at
        which a section MUST end — a new section starts at each listed
        index.  A multi-run recording passes its per-run start offsets
        here so every ``begin_trace()`` execution boundary lands on a
        section boundary, which is what makes the trace partitionable
        by :func:`repro.core.tracefile.plan_partitions`.  Out-of-range
        indices are ignored; the default is the plain fixed-size
        sectioning.

        ``version`` selects the wire format: 3 (the default) writes the
        compact per-lane columnar sections of :mod:`repro.core.codec`
        (with per-section zlib unless ``compress=False``); 2 writes the
        legacy fixed 25-bytes-per-event sections.  Readers accept both.
        """
        if section_events < 1:
            raise ValueError("section_events must be >= 1")
        if version not in (2, 3):
            raise ValueError(f"unsupported trace format version {version}")
        name_parts = [struct.pack("<I", len(self.names))]
        for name in self.names:
            raw = name.encode("utf-8")
            name_parts.append(struct.pack("<I", len(raw)))
            name_parts.append(raw)
        names_payload = b"".join(name_parts)
        n_events = len(self.ops)
        parts = [
            _BATCH_MAGIC if version == 2 else _BATCH_MAGIC_V3,
            struct.pack("<I", len(names_payload)),
            names_payload,
            struct.pack("<I", zlib.crc32(names_payload)),
            struct.pack("<Q", n_events),
        ]
        cuts = sorted({int(b) for b in boundaries if 0 < int(b) < n_events})
        seg_lo = 0
        for seg_hi in cuts + [n_events]:
            for start in range(seg_lo, seg_hi, section_events):
                stop = min(start + section_events, seg_hi)
                if version == 2:
                    payload = b"".join(
                        _native_le(arr[start:stop]).tobytes()
                        for arr in (
                            self.ops,
                            self.threads,
                            self.args,
                            self.costs,
                        )
                    )
                    parts.append(struct.pack("<Q", stop - start))
                else:
                    ops_b = _native_le(self.ops[start:stop]).tobytes()
                    flags, payload = encode_section_payload(
                        ops_b,
                        self.threads[start:stop],
                        self.args[start:stop],
                        self.costs[start:stop],
                        compress=compress,
                    )
                    parts.append(
                        SECTION_HEADER.pack(
                            stop - start,
                            flags,
                            ops_b.count(OP_CALL),
                            ops_b.count(OP_RETURN),
                            len(payload),
                        )
                    )
                parts.append(payload)
                parts.append(struct.pack("<I", zlib.crc32(payload)))
            seg_lo = seg_hi
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, lenient: bool = False) -> "EventBatch":
        """Deserialise a binary trace (v1 or v2).

        Strict mode (the default) raises :class:`TraceIntegrityError` on
        any truncation or CRC mismatch.  ``lenient=True`` returns the
        longest valid prefix instead — possibly empty when even the
        header is unusable.  Use :func:`scan_batch_bytes` when the
        diagnosis itself is wanted."""
        scan = scan_batch_bytes(data)
        if scan.error is not None and not lenient:
            raise scan.error
        return scan.batch

    @classmethod
    def _from_bytes_v1(cls, data: bytes) -> "EventBatch":
        """Parse the legacy v1 layout (no checksums, all-or-nothing)."""
        pos = len(_BATCH_MAGIC_V1)
        try:
            (n_names,) = struct.unpack_from("<I", data, pos)
            pos += 4
            names: List[str] = []
            for _ in range(n_names):
                (length,) = struct.unpack_from("<I", data, pos)
                pos += 4
                raw = data[pos : pos + length]
                if len(raw) != length:
                    raise TraceIntegrityError(
                        "truncated name table entry", pos
                    )
                names.append(raw.decode("utf-8"))
                pos += length
            (n_events,) = struct.unpack_from("<Q", data, pos)
            pos += 8
        except struct.error as exc:
            raise TraceIntegrityError(
                f"truncated v1 header: {exc}", pos
            ) from exc
        except UnicodeDecodeError as exc:
            raise TraceIntegrityError(
                f"corrupt name table: {exc}", pos
            ) from exc
        arrays = []
        for typecode in ("b", "q", "q", "q"):
            arr = array(typecode)
            size = n_events * arr.itemsize
            chunk = data[pos : pos + size]
            if len(chunk) != size:
                raise TraceIntegrityError(
                    f"truncated v1 event arrays: expected {size} bytes "
                    f"for the {typecode!r} array, found {len(chunk)}",
                    pos,
                )
            arr.frombytes(chunk)
            if sys.byteorder == "big":  # pragma: no cover
                arr.byteswap()
            arrays.append(arr)
            pos += size
        return cls(*arrays, names=names)


class TraceEncoder:
    """Append-only builder of :class:`EventBatch` slices.

    Producers call :meth:`append` with raw integers (the VM's fast
    emitters do this — no event objects are materialised) or
    :meth:`append_event` with a dataclass event.  With a ``consumer``
    the encoder flushes a batch every ``flush_events`` appends and at
    :meth:`flush`; without one it simply records (``.batch`` grows
    unboundedly — the record-once measurement mode).  Encoders never
    fuse: run superops are made on the replay side by
    :func:`fuse_batch`.
    """

    def __init__(
        self,
        consumer: Optional[Callable[["EventBatch"], None]] = None,
        flush_events: Optional[int] = 8192,
    ) -> None:
        self.batch = EventBatch()
        self.consumer = consumer
        self.flush_events = flush_events if consumer is not None else None
        self.events_emitted = 0
        #: execution-boundary hints recorded by :meth:`mark_boundary`
        #: (record mode): row indices where a section must end, handed
        #: to :meth:`EventBatch.to_bytes` so recorded traces are
        #: partition-friendly by construction
        self.boundaries: list = []
        self._ids = {}
        self._bind()

    def _bind(self) -> None:
        batch = self.batch
        self._ops_append = batch.ops.append
        self._threads_append = batch.threads.append
        self._args_append = batch.args.append
        self._costs_append = batch.costs.append

    def intern(self, name: str) -> int:
        """Intern ``name`` into the shared string table; returns its id."""
        ids = self._ids
        ident = ids.get(name)
        if ident is None:
            ident = len(self.batch.names)
            self.batch.names.append(name)
            ids[name] = ident
        return ident

    def append(self, op: int, thread: int = 0, arg: int = 0, cost: int = 0) -> None:
        """Append one encoded event (hot path)."""
        self._ops_append(op)
        self._threads_append(thread)
        self._args_append(arg)
        self._costs_append(cost)
        self.events_emitted += 1
        limit = self.flush_events
        if limit is not None and len(self.batch.ops) >= limit:
            self.flush()

    def append_event(self, event: Event) -> None:
        """Encode one dataclass event (generic, non-hot path)."""
        kind = event.kind
        op = OPCODE_BY_KIND[kind]
        if op == OP_READ or op == OP_WRITE:
            self.append(op, event.thread, event.addr)
        elif op == OP_CALL:
            self.append(op, event.thread, self.intern(event.routine), event.cost)
        elif op == OP_RETURN:
            self.append(op, event.thread, 0, event.cost)
        elif op == OP_USER_TO_KERNEL or op == OP_KERNEL_TO_USER:
            self.append(op, event.thread, event.addr)
        elif op == OP_SWITCH_THREAD:
            self.append(op)
        elif op == OP_LOCK_ACQUIRE or op == OP_LOCK_RELEASE:
            self.append(op, event.thread, self.intern(event.lock))
        elif op == OP_THREAD_START:
            self.append(op, event.thread, event.parent)
        else:  # OP_THREAD_EXIT
            self.append(op, event.thread)

    def mark_boundary(self) -> None:
        """Record an execution boundary at the current recording
        position (record mode only — with a consumer the rows have
        already been handed off and section framing is moot).

        The VM calls this when a run completes, so a multi-run
        recording serialised with ``to_bytes(boundaries=...)`` puts
        every ``begin_trace()`` point on a section boundary — the
        depth-zero cuts the partition planner prefers.  Idempotent at
        one position; a boundary at row 0 or past the end is dropped
        by ``to_bytes`` anyway.
        """
        if self.consumer is not None:
            return
        pos = len(self.batch.ops)
        if pos and (not self.boundaries or self.boundaries[-1] != pos):
            self.boundaries.append(pos)

    def flush(self) -> None:
        """Hand the pending batch to the consumer (no-op when empty or
        when recording without a consumer)."""
        if self.consumer is None or not self.batch.ops:
            return
        full = self.batch
        # A fresh batch shares the intern table: ids stay stable across
        # flushes so consumers may cache decoded names.
        self.batch = EventBatch(names=full.names)
        self._bind()
        self.consumer(full)


def encode_events(
    events: Iterable[Event], encoder: Optional[TraceEncoder] = None
) -> EventBatch:
    """Encode dataclass events into one :class:`EventBatch`."""
    if encoder is None:
        encoder = TraceEncoder()
    for event in events:
        encoder.append_event(event)
    return encoder.batch


def decode_batch(batch: EventBatch) -> List[Event]:
    """Decode a batch back into a list of dataclass events."""
    return list(batch.iter_events())


def fuse_batch(batch: EventBatch, leaf_bits: int = 6) -> EventBatch:
    """Collapse stride-1 same-thread runs of one fusable opcode into
    superops.

    Returns a new batch (the input is untouched) in which every maximal
    run of consecutive plain ``read``, ``write`` or ``kernelToUser``
    rows of one kind by one thread at addresses ``a, a+1, ...`` within
    a single ``1 << leaf_bits``-cell leaf is replaced by one run
    superop (:data:`RUN_OPCODES`) carrying the base address in ``args``
    and the run length in ``costs``.  ``iter_events`` of the fused
    batch yields exactly the events of the original, so fusion is
    invisible to every generic consumer; the leaf cap means the
    columnar kernel services a run with one leaf probe.  Already-fused
    input rows pass through (and keep extending), so the pass is
    idempotent.

    The pass is vectorised: whether row ``i`` extends the row before it
    depends only on rows ``i - 1`` and ``i`` (a plain row continues a
    plain row of its own kind at ``addr + 1``, or a run of its kind at
    ``base + length``, on the same thread and leaf), so one mask over
    adjacent pairs finds every continuation and the surviving head rows
    are the output.  Address sums wrap in int64, but a wrap flips the
    sign and so the leaf check (an arithmetic shift) rejects it.
    """
    n = len(batch.ops)
    if n == 0:
        return EventBatch(names=batch.names)
    ops = _np.frombuffer(batch.ops, dtype=_np.int8)
    threads = _np.frombuffer(batch.threads, dtype=_np.int64)
    args = _np.frombuffer(batch.args, dtype=_np.int64)
    costs = _np.frombuffer(batch.costs, dtype=_np.int64)
    run_class = _RUN_CLASS.take(ops.view(_np.uint8))
    in_class = run_class >= 0
    is_run = in_class & (run_class == ops)
    prev_addr, addr = args[:-1], args[1:]
    with _np.errstate(over="ignore"):
        expected = prev_addr + _np.where(is_run[:-1], costs[:-1], 1)
    joins = (
        in_class[1:]
        & ~is_run[1:]
        & (run_class[:-1] == run_class[1:])
        & (threads[1:] == threads[:-1])
        & (addr == expected)
        & ((addr >> leaf_bits) == (prev_addr >> leaf_bits))
    )
    if not joins.any():
        return EventBatch(
            batch.ops[:], batch.threads[:], batch.args[:], batch.costs[:],
            names=batch.names,
        )
    heads = _np.flatnonzero(_np.concatenate(([True], ~joins)))
    extra = _np.append(heads[1:], n) - heads - 1  # followers per head
    becomes_run = (extra > 0) & ~is_run[heads]
    f_ops = _np.where(becomes_run, run_class[heads], ops[heads])
    # A fresh run counts its rows; an input run grows by its followers.
    f_costs = _np.where(becomes_run, extra + 1, costs[heads] + extra)
    return EventBatch(
        array("b", f_ops.tobytes()),
        array("q", threads[heads].tobytes()),
        array("q", args[heads].tobytes()),
        array("q", f_costs.tobytes()),
        names=batch.names,
    )


def count_superops(batch: EventBatch) -> Tuple[int, int]:
    """``(runs, events_covered)`` for the run superops in ``batch`` —
    the observability hook behind the ``kernel.superops_fused`` gauge."""
    ops = _np.frombuffer(batch.ops, dtype=_np.int8)
    run_class = _RUN_CLASS.take(ops.view(_np.uint8))
    runs = (run_class >= 0) & (run_class == ops)
    covered = _np.frombuffer(batch.costs, dtype=_np.int64)[runs].sum()
    return int(runs.sum()), int(covered)


def scan_batch_bytes(data: bytes) -> TraceScan:
    """Scan a binary trace, recovering its longest valid prefix.

    Never raises on malformed input: the verdict — including the first
    :class:`TraceIntegrityError` found, if any — is in the returned
    :class:`TraceScan`.  ``repro doctor`` is a thin CLI over this."""
    empty = EventBatch()
    if data[: len(_BATCH_MAGIC_V1)] == _BATCH_MAGIC_V1:
        # v1 has no checksums or sections: all-or-nothing.
        try:
            batch = EventBatch._from_bytes_v1(data)
        except TraceIntegrityError as exc:
            return TraceScan(empty, 1, 0, 0, 0, 0, exc, error_section=0)
        return TraceScan(
            batch, 1, len(batch), len(batch), 1, len(data),
            section_events=[len(batch)],
        )
    if data[: len(_BATCH_MAGIC)] == _BATCH_MAGIC:
        version = 2
    elif data[: len(_BATCH_MAGIC_V3)] == _BATCH_MAGIC_V3:
        version = 3
    else:
        return TraceScan(
            empty, 0, 0, 0, 0, 0,
            TraceIntegrityError("not a binary trace: bad magic", 0),
        )

    pos = len(_BATCH_MAGIC)
    total = len(data)

    def bad(message: str, offset: int) -> TraceScan:
        return TraceScan(
            empty, version, 0, 0, 0, 0, TraceIntegrityError(message, offset)
        )

    # -- name table (one CRC guards the whole payload) -------------------
    if total - pos < 4:
        return bad("truncated header: missing name-table size", pos)
    (names_size,) = struct.unpack_from("<I", data, pos)
    pos += 4
    names_payload = data[pos : pos + names_size]
    if len(names_payload) != names_size or total - pos - names_size < 4:
        return bad("truncated name table", pos)
    pos += names_size
    (names_crc,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if zlib.crc32(names_payload) != names_crc:
        return bad("name table CRC mismatch", pos - 4)
    names: List[str] = []
    try:
        (n_names,) = struct.unpack_from("<I", names_payload, 0)
        off = 4
        for _ in range(n_names):
            (length,) = struct.unpack_from("<I", names_payload, off)
            off += 4
            raw = names_payload[off : off + length]
            if len(raw) != length:
                raise struct.error("name overruns payload")
            names.append(raw.decode("utf-8"))
            off += length
    except (struct.error, UnicodeDecodeError) as exc:
        return bad(f"corrupt name table: {exc}", pos - 4 - names_size)
    if total - pos < 8:
        return bad("truncated header: missing event count", pos)
    (declared,) = struct.unpack_from("<Q", data, pos)
    pos += 8

    # -- sections: accept every one whose CRC verifies, stop at the ------
    # -- first that does not ----------------------------------------------
    arrays = (array("b"), array("q"), array("q"), array("q"))
    loaded = 0
    sections_valid = 0
    valid_bytes = pos
    section_events: List[int] = []
    error: Optional[TraceIntegrityError] = None
    header_size = 8 if version == 2 else SECTION_HEADER.size
    while pos < total and loaded < declared:
        if total - pos < header_size:
            error = TraceIntegrityError("truncated section header", pos)
            break
        if version == 2:
            (n,) = struct.unpack_from("<Q", data, pos)
            flags = 0
            payload_size = n * _EVENT_BYTES
        else:
            n, flags, _calls, _rets, payload_size = SECTION_HEADER.unpack_from(
                data, pos
            )
        if n == 0 or n > declared - loaded:
            error = TraceIntegrityError(
                f"implausible section event count {n}", pos
            )
            break
        if total - pos - header_size < payload_size + 4:
            error = TraceIntegrityError(
                f"truncated section ({n} events declared)", pos
            )
            break
        payload = data[pos + header_size : pos + header_size + payload_size]
        (crc,) = struct.unpack_from("<I", data, pos + header_size + payload_size)
        if zlib.crc32(payload) != crc:
            error = TraceIntegrityError("section CRC mismatch", pos)
            break
        if version == 2:
            off = 0
            for arr in arrays:
                width = arr.itemsize
                chunk = array(arr.typecode)
                chunk.frombytes(payload[off : off + n * width])
                if sys.byteorder == "big":  # pragma: no cover
                    chunk.byteswap()
                arr.extend(chunk)
                off += n * width
        else:
            try:
                columns = decode_section_payload(payload, n, flags)
            except SectionCodecError as exc:
                error = TraceIntegrityError(
                    f"corrupt section encoding: {exc}", pos
                )
                break
            for arr, col in zip(arrays, columns):
                arr.extend(col)
        loaded += n
        sections_valid += 1
        section_events.append(n)
        pos += header_size + payload_size + 4
        valid_bytes = pos
    if error is None and loaded < declared:
        error = TraceIntegrityError(
            f"trace truncated: {loaded} of {declared} events recovered", pos
        )
    if error is None and pos != total:
        error = TraceIntegrityError("trailing bytes after final section", pos)
    batch = EventBatch(*arrays, names=names)
    return TraceScan(
        batch, version, declared, loaded, sections_valid, valid_bytes, error,
        section_events=section_events,
        error_section=sections_valid if error is not None else None,
    )
