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
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as _np

from repro.core.codec import SECTION_HEADER, encode_section_payload

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
    "OP_FILL_READ_LOOP",
    "SUPEROP_NAMES",
    "RUN_OPCODES",
    "LOOP_OPCODES",
    "pack_loop",
    "unpack_loop",
    "OPCODE_BY_KIND",
    "KIND_BY_OPCODE",
    "OPCODE_NAMES",
    "EventBatch",
    "TraceEncoder",
    "encode_events",
    "decode_batch",
    "fuse_batch",
    "fuse_segments",
    "expand_runs",
    "unfold_loops",
    "write_rows",
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
# array slices.  The VM records plain rows; the trace writer fuses them
# (:func:`fuse_segments`), so stored traces carry superops and replay
# decodes them straight into the kernel.  They carry no ``EventKind``:
# ``iter_events`` expands them back into the plain dataclasses, and
# :func:`expand_runs` back into plain rows for tools that know only
# the plain opcodes.
#
# Reads and writes do not move the profiler's global counter, so every
# cell of a read or write run executes at one timestamp.  A kernel fill
# bumps the counter once per cell (Figure 9), so a fill run is an
# arithmetic-progression stamp ``count+1 ... count+n`` of the global
# write timestamps — exact unless renumbering falls inside the run, in
# which case the kernel replays it cell by cell.  ``userToKernel`` never
# fuses: what it means depends on the profiler policy (a read when
# external input counts, nothing otherwise), so it stays a plain row.
#
# A loop superop folds the syscall read loop of a buffered scan (the
# Figure 4 table scan): ``k >= 2`` back-to-back repetitions, all by one
# thread, of "the kernel fills cells ``[a, a+n)``, then the thread
# reads ``[a, a+n)``" — a fill run followed by a read run of the same
# buffer, repeated.  ``args`` holds ``a``, and ``(n, k)`` are packed
# into ``costs`` (:func:`pack_loop` / :func:`unpack_loop`).  The buffer
# sits in one 64-cell leaf and a loop weighs ``2 * n * k`` logical
# events, at most one section's event budget.  Every read of a loop is
# induced by the fill just before it, so the drms kernel replays the
# whole loop in one leaf segment (see :mod:`repro.core.kernel`).

OP_READ_RUN = 11
OP_WRITE_RUN = 12
OP_KFILL_RUN = 13
OP_FILL_READ_LOOP = 14

#: superop opcode -> debug name (kept out of OPCODE_NAMES, which is the
#: VM-emitted wire vocabulary indexed by EventKind-backed opcodes)
SUPEROP_NAMES = {
    OP_READ_RUN: "readRun",
    OP_WRITE_RUN: "writeRun",
    OP_KFILL_RUN: "kernelFillRun",
    OP_FILL_READ_LOOP: "fillReadLoop",
}

#: plain opcode -> the run superop it fuses into; the one statement of
#: what fuses, from which ``fuse_batch``, ``iter_events``,
#: ``event_count`` and ``count_superops`` are derived
RUN_OPCODES = {
    OP_READ: OP_READ_RUN,
    OP_WRITE: OP_WRITE_RUN,
    OP_KERNEL_TO_USER: OP_KFILL_RUN,
}

#: loop superop -> the (first, second) run superops of the pair it
#: repeats; the one statement of what folds, from which the fold in
#: ``fuse_batch``, ``iter_events``, ``expand_runs``, ``event_count``,
#: ``count_superops`` and the trace decoder's row check are derived
LOOP_OPCODES = {OP_FILL_READ_LOOP: (OP_KFILL_RUN, OP_READ_RUN)}
assert set(RUN_OPCODES.values()) | set(LOOP_OPCODES) == set(SUPEROP_NAMES)

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

#: opcode (as an unsigned byte) -> the opcode of the rows it expands to:
#: a run superop's plain opcode, every other opcode itself
_PLAIN_OF = _np.arange(256, dtype=_np.uint8).view(_np.int8).copy()
for _plain, _run in RUN_OPCODES.items():
    _PLAIN_OF[_run] = _plain
del _plain, _run

#: opcode (as an unsigned byte) -> the run superops its unfolding
#: alternates between: a loop's pair, every other opcode itself twice
_LOOP_PAIR = (
    _np.arange(256, dtype=_np.uint8).view(_np.int8).repeat(2).reshape(256, 2)
)
#: opcode (as an unsigned byte) -> whether it is a loop superop
_IS_LOOP = _np.zeros(256, dtype=bool)
for _loop, _pair in LOOP_OPCODES.items():
    _LOOP_PAIR[_loop] = _pair
    _IS_LOOP[_loop] = True
del _loop, _pair

#: ``costs`` of a loop row: the buffer length ``n`` (1..64) in the low
#: ``_LOOP_N_BITS`` bits, the repetition count ``k`` above them
_LOOP_N_BITS = 7
_LOOP_N_MASK = (1 << _LOOP_N_BITS) - 1


def pack_loop(n, k):
    """The ``costs`` value of a loop of ``k`` fill/read pairs over an
    ``n``-cell buffer (ints or int64 arrays alike)."""
    return (k << _LOOP_N_BITS) | n


def unpack_loop(cost):
    """``(n, k)`` of a loop row's ``costs`` value (ints or int64 arrays
    alike); the inverse of :func:`pack_loop`."""
    return cost & _LOOP_N_MASK, cost >> _LOOP_N_BITS


def _superops(ops) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """Which rows of an opcode column are run superops, and which are
    loop superops."""
    ops = _np.frombuffer(ops, dtype=_np.int8)
    run_class = _RUN_CLASS.take(ops.view(_np.uint8))
    runs = (run_class >= 0) & (run_class == ops)
    return runs, _IS_LOOP.take(ops.view(_np.uint8))


def _row_weights(batch: "EventBatch") -> Tuple["_np.ndarray", "_np.ndarray"]:
    """The logical events each row stands for (a run weighs its length,
    a loop ``2 * n * k``, any other row 1), and which rows are
    superops."""
    runs, loops = _superops(batch.ops)
    costs = _np.frombuffer(batch.costs, dtype=_np.int64)
    weights = _np.where(runs, costs, 1)
    if loops.any():
        n, k = unpack_loop(costs[loops])
        weights[loops] = 2 * n * k
    return weights, runs | loops


#: magic of every readable binary trace format -> its version.  Only
#: the current one is written; v2 (fixed 25-byte rows) and v3 (compact
#: columnar rows, one row per event) stay readable, and both are the
#: rows == events case of the current layout.
_BATCH_MAGIC_V2 = b"RPRB\x02"
_BATCH_MAGIC_V3 = b"RPRB\x03"
#: current format: the v3 columnar sections, storing fused rows (run
#: superops included) with each section's logical event count beside
#: its row count (see :mod:`repro.core.codec`)
_BATCH_MAGIC = b"RPRB\x04"
_BATCH_MAGICS = {_BATCH_MAGIC_V2: 2, _BATCH_MAGIC_V3: 3, _BATCH_MAGIC: 4}

#: current binary trace format version (the ``RPRB\x04`` magic).  Cache
#: keys that address recorded traces must include it: a format bump
#: invalidates every stored entry rather than mis-decoding it.
TRACE_FORMAT_VERSION = 4

#: bytes per event inside a v2 section payload (ops 1 + threads/args/costs 8)
_EVENT_BYTES = 25

#: rows per section when serialising — the CRC granularity, i.e. the
#: most a single flipped bit or torn tail can cost
_SECTION_ROWS = 1024

#: logical events per section, as a multiple of its row cap (see
#: :func:`write_rows`)
_SECTION_WEIGHT = 4

#: shadow-leaf width every stored run respects: a run never crosses a
#: ``1 << _LEAF_BITS``-cell leaf, so the columnar kernel services it with
#: one leaf probe (the decoder rejects a run that does)
_LEAF_BITS = 6

#: the most logical events one loop row may stand for: the default
#: section's event budget, so a loop never outweighs a section
_LOOP_MAX_WEIGHT = _SECTION_WEIGHT * _SECTION_ROWS


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

    ``batch`` holds the stored rows (run superops included) of every
    section that verified, in order; ``error`` carries the first
    integrity problem found (``None`` for a pristine trace).
    ``intact`` is the doctor's verdict: no errors *and* every declared
    event recovered."""

    batch: "EventBatch"
    version: int
    declared_events: int
    events_loaded: int
    sections_valid: int
    valid_bytes: int
    error: Optional[TraceIntegrityError] = field(default=None)
    #: logical events salvaged from each verified section, in file
    #: order (``sum(section_events) == events_loaded``)
    section_events: List[int] = field(default_factory=list)
    #: 0-based index of the section where the scan stopped (``None``
    #: when every section verified) — the count of valid sections
    #: before the damage, so doctors can say *which* section died, not
    #: just at what byte
    error_section: Optional[int] = field(default=None)

    @property
    def intact(self) -> bool:
        return self.error is None and self.events_loaded == self.declared_events


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
        """Logical event count: run superops weigh their run length and
        loops ``2 * n * k``, so a fused batch counts the same as its
        unfused original."""
        return int(_row_weights(self)[0].sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventBatch({len(self)} events, {len(self.names)} names)"

    def iter_events(self) -> Iterator[Event]:
        """Decode back into dataclass events (the slow, generic path).

        Run and loop superops are expanded into their individual
        ``Read``/``Write``/``KernelToUser`` events, so generic consumers
        see fused and unfused batches identically."""
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
            elif op in LOOP_OPCODES:
                pair = [_RUN_EVENT[run] for run in LOOP_OPCODES[op]]
                thread, base = threads[i], args[i]
                n, k = unpack_loop(costs[i])
                for _ in range(k):
                    for event in pair:
                        for off in range(n):
                            yield event(thread, base + off)
            else:
                raise ValueError(f"unknown opcode {op} at index {i}")

    # -- binary serialisation -------------------------------------------
    #
    # Header (little-endian throughout):
    #
    #   magic "RPRB\x04"
    #   u32   names_size                # bytes of names payload
    #   bytes names payload             # u32 n_names, then (u32 len, utf8)*
    #   u32   crc32(names payload)
    #   u64   declared event count      # logical events, runs expanded
    #
    # then sections until EOF, each:
    #     u32   rows                    # stored rows (run superops fused)
    #     u32   events                  # logical events those rows stand for
    #     u8    flags                   # bit0: payload zlib-compressed
    #     u32   calls                   # OP_CALL count (planner shortcut)
    #     u32   returns                 # OP_RETURN count
    #     u32   enc_size                # stored payload bytes
    #     bytes payload                 # per-lane columns, see core.codec
    #     u32   crc32(stored payload)
    #
    # The writer fuses (``fuse_segments``), so replay decodes run
    # superops straight off the wire and never fuses.  Readers still
    # accept v3 (the same sections without the ``events`` field) and v2
    # (25-byte rows); both store one row per event.
    #
    # A crashed writer leaves a truncated tail; a bad disk flips bits.
    # Either way every section is independently verifiable, so readers
    # recover the longest valid prefix instead of losing the whole run.

    def to_bytes(
        self,
        section_events: int = _SECTION_ROWS,
        boundaries: Iterable[int] = (),
        compress: bool = True,
    ) -> bytes:
        """Serialise to the crash-safe binary trace form, fused.

        Each boundary segment is fused into run superops separately
        (:func:`fuse_segments`) and written by :func:`write_rows`, so
        no run crosses an execution boundary or a section.
        ``section_events`` caps the *rows* per section (and, fourfold,
        its logical events).

        ``boundaries`` (optional, sorted or not) are event indices at
        which a section MUST end — a new section starts at each listed
        index.  A multi-run recording passes its per-run start offsets
        here so every ``begin_trace()`` execution boundary lands on a
        section boundary, which is what makes the trace partitionable
        by :func:`repro.core.tracefile.plan_partitions`.  Out-of-range
        indices are ignored; the default is the plain fixed-size
        sectioning.  Sections are zlib-compressed unless
        ``compress=False``.
        """
        rows, cuts = fuse_segments(self, boundaries)
        return write_rows(rows, cuts, section_events, compress)

    @classmethod
    def from_bytes(cls, data: bytes, lenient: bool = False) -> "EventBatch":
        """Deserialise a binary trace into its stored rows (run
        superops included; :meth:`iter_events` expands them).

        Strict mode (the default) raises :class:`TraceIntegrityError` on
        any truncation or CRC mismatch.  ``lenient=True`` returns the
        longest valid prefix instead — possibly empty when even the
        header is unusable.  Use :func:`scan_batch_bytes` when the
        diagnosis itself is wanted."""
        scan = scan_batch_bytes(data)
        if scan.error is not None and not lenient:
            raise scan.error
        return scan.batch


class TraceEncoder:
    """Append-only builder of :class:`EventBatch` slices.

    Producers call :meth:`append` with raw integers (the VM's fast
    emitters do this — no event objects are materialised) or
    :meth:`append_event` with a dataclass event.  With a ``consumer``
    the encoder flushes a batch every ``flush_events`` appends and at
    :meth:`flush`; without one it simply records (``.batch`` grows
    unboundedly — the record-once measurement mode).  Encoders never
    fuse: the trace writer makes run superops (:func:`fuse_segments`).
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


def fuse_batch(batch: EventBatch, leaf_bits: int = _LEAF_BITS) -> EventBatch:
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

    The runs then fold into loop superops (:data:`LOOP_OPCODES`): every
    stretch of two or more back-to-back fill-run/read-run pairs on one
    thread's buffer in one 64-cell leaf becomes one ``fillReadLoop`` row
    per ``_LOOP_MAX_WEIGHT`` events (see :func:`_fold_loops`).
    """
    return _fuse(batch, leaf_bits, ())[0]


def fuse_segments(
    batch: EventBatch, boundaries: Iterable[int] = ()
) -> Tuple[EventBatch, List[int]]:
    """Fuse each boundary segment of ``batch`` separately: the rows the
    trace writer stores.

    ``boundaries`` are event indices where a segment starts (the
    recording's execution boundaries; out-of-range ones are ignored).
    No run or loop crosses one.  Returns ``(rows, row_boundaries)``,
    with each kept boundary mapped to the index of the row it now
    starts at — the ``boundaries`` argument of :func:`write_rows`.  A
    caller that both replays and writes a recording fuses once here
    and hands the same rows to both.
    """
    n = len(batch.ops)
    cuts = sorted({int(b) for b in boundaries if 0 < int(b) < n})
    rows, heads = _fuse(batch, _LEAF_BITS, cuts)
    if heads is None:  # nothing fused: rows are events
        return rows, cuts
    return rows, _np.searchsorted(heads, cuts).tolist()


def _fuse(
    batch: EventBatch, leaf_bits: int, cuts: List[int]
) -> Tuple[EventBatch, Optional["_np.ndarray"]]:
    """The fusion pass behind :func:`fuse_batch`; no row joins the row
    before an index in ``cuts``.  Returns the fused batch and the input
    index of each output row (``None`` when no row fused)."""
    n = len(batch.ops)
    if n == 0:
        return EventBatch(names=batch.names), None
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
    cut_rows = _np.asarray(cuts, dtype=_np.int64)
    if cuts:
        joins[cut_rows - 1] = False
    heads = None
    if joins.any():
        heads = _np.flatnonzero(_np.concatenate(([True], ~joins)))
        extra = _np.append(heads[1:], n) - heads - 1  # followers per head
        becomes_run = (extra > 0) & ~is_run[heads]
        ops = _np.where(becomes_run, run_class[heads], ops[heads])
        # A fresh run counts its rows; an input run grows by its followers.
        costs = _np.where(becomes_run, extra + 1, costs[heads] + extra)
        threads, args = threads[heads], args[heads]
        cut_rows = _np.searchsorted(heads, cut_rows)
    folded = _fold_loops(ops, threads, args, costs, cut_rows)
    if folded is not None:
        keep, ops, costs = folded
        heads = _np.flatnonzero(keep) if heads is None else heads[keep]
        ops, threads, args, costs = (
            ops[keep], threads[keep], args[keep], costs[keep]
        )
    if heads is None:
        return (
            EventBatch(
                batch.ops[:], batch.threads[:], batch.args[:], batch.costs[:],
                names=batch.names,
            ),
            None,
        )
    fused = EventBatch(
        array("b", ops.astype(_np.int8, copy=False).tobytes()),
        array("q", threads.tobytes()),
        array("q", args.tobytes()),
        array("q", costs.tobytes()),
        names=batch.names,
    )
    return fused, heads


def _fold_loops(ops, threads, args, costs, cut_rows):
    """Fold run rows into loop superops; ``None`` when nothing folds,
    else ``(keep, ops, costs)``: which rows survive, and the columns
    with each loop's head row rewritten into the loop.

    Vectorised like the run pass: a *pair* is a fill run at row ``i``
    followed by a read run of the same thread, base and length in one
    64-cell leaf; pair ``i`` *continues* pair ``i - 2`` when both cover
    the same buffer.  Neither may span an index in ``cut_rows`` (the
    row where an execution-boundary segment starts).  Each maximal
    chain of continuing pairs is cut into chunks of at most
    ``_LOOP_MAX_WEIGHT`` events, and every chunk of two or more pairs
    becomes one loop row in place of its first fill run."""
    m = len(ops)
    ((loop_op, (first, second)),) = LOOP_OPCODES.items()
    if m < 4:
        return None
    head = ops[:-1] == first
    if not head.any():
        return None
    base, length = args[:-1], costs[:-1]
    with _np.errstate(over="ignore"):
        pair = (
            head
            & (ops[1:] == second)
            & (threads[1:] == threads[:-1])
            & (args[1:] == base)
            & (costs[1:] == length)
            & (length > 0)
            & ((base >> _LEAF_BITS) == ((base + length - 1) >> _LEAF_BITS))
        )
    if len(cut_rows):
        pair[cut_rows - 1] = False
    same = (
        (threads[2:-1] == threads[:-3])
        & (args[2:-1] == args[:-3])
        & (costs[2:-1] == costs[:-3])
    )
    cont = _np.zeros(m - 1, dtype=bool)
    cont[2:] = pair[2:] & pair[:-2] & same
    if len(cut_rows):
        cont[cut_rows[cut_rows < m - 1]] = False
    pos = _np.flatnonzero(pair)
    if len(pos) < 2:
        return None
    starts = ~cont[pos]
    stretch = _np.cumsum(starts) - 1
    first_pair = _np.flatnonzero(starts)
    j = _np.arange(len(pos)) - first_pair[stretch]  # index in its stretch
    n = costs[pos]
    k_max = _LOOP_MAX_WEIGHT // (2 * n)
    chunk = j // k_max
    left = _np.bincount(stretch)[stretch] - chunk * k_max
    k = _np.minimum(k_max, left)  # pairs in this pair's chunk
    fold = k >= 2
    if not fold.any():
        return None
    lead = fold & (j == chunk * k_max)
    keep = _np.ones(m, dtype=bool)
    keep[pos[fold] + 1] = False
    keep[pos[fold & ~lead]] = False
    ops = ops.copy()
    costs = costs.copy()
    ops[pos[lead]] = loop_op
    costs[pos[lead]] = pack_loop(n[lead], k[lead])
    return keep, ops, costs


def expand_runs(batch: EventBatch) -> EventBatch:
    """The plain rows a batch stands for: each loop superop becomes its
    pairs of runs (:func:`unfold_loops`) and each run superop its run of
    plain ``read``/``write``/``kernelToUser`` rows (the inverse of
    :func:`fuse_batch`, vectorised).

    This is the one step between stored rows and the tools whose
    ``consume_batch`` loops know only plain opcodes.  A batch with no
    superop is returned as is."""
    batch = unfold_loops(batch)
    runs = _superops(batch.ops)[0]
    if not runs.any():
        return batch
    costs = _np.frombuffer(batch.costs, dtype=_np.int64)
    reps = _np.where(runs, costs, 1)
    ends = _np.cumsum(reps)
    starts = ends - reps  # output index of each row's first expansion
    # cell ``j`` of a run at ``base`` is ``base + (j - start)``; int64
    # wraps identically on both sides
    e_args = _np.repeat(
        _np.frombuffer(batch.args, dtype=_np.int64) - starts, reps
    ) + _np.arange(ends[-1], dtype=_np.int64)
    ops = _np.frombuffer(batch.ops, dtype=_np.uint8)
    return EventBatch(
        array("b", _np.repeat(_PLAIN_OF.take(ops), reps).tobytes()),
        array("q", _np.repeat(
            _np.frombuffer(batch.threads, dtype=_np.int64), reps
        ).tobytes()),
        array("q", e_args.tobytes()),
        array("q", _np.repeat(_np.where(runs, 0, costs), reps).tobytes()),
        names=batch.names,
    )


def unfold_loops(batch: EventBatch) -> EventBatch:
    """The batch with each loop superop replaced by the ``k`` pairs of
    run rows it stands for (vectorised); a batch with no loop is
    returned as is."""
    ops = _np.frombuffer(batch.ops, dtype=_np.int8)
    loops = _IS_LOOP.take(ops.view(_np.uint8))
    if not loops.any():
        return batch
    costs = _np.frombuffer(batch.costs, dtype=_np.int64)
    n, k = unpack_loop(costs)
    reps = _np.where(loops, 2 * k, 1)
    src = _np.repeat(_np.arange(len(ops)), reps)  # source row per output
    ends = _np.cumsum(reps)
    half = (_np.arange(ends[-1]) - (ends - reps)[src]) & 1
    is_loop = loops[src]
    pairs = _LOOP_PAIR.take(ops.view(_np.uint8), axis=0)[src, half]
    threads = _np.frombuffer(batch.threads, dtype=_np.int64)[src]
    return EventBatch(
        array("b", _np.where(is_loop, pairs, ops[src]).tobytes()),
        array("q", threads.tobytes()),
        array("q", _np.frombuffer(batch.args, dtype=_np.int64)[src].tobytes()),
        array("q", _np.where(is_loop, n[src], costs[src]).tobytes()),
        names=batch.names,
    )


def count_superops(batch: EventBatch) -> Tuple[int, int]:
    """``(superops, events_covered)`` for the run and loop superops in
    ``batch`` — the observability hook behind the
    ``kernel.superops_fused`` gauge."""
    weights, superops = _row_weights(batch)
    return int(superops.sum()), int(weights[superops].sum())


def write_rows(
    rows: EventBatch,
    boundaries: Iterable[int] = (),
    section_rows: int = _SECTION_ROWS,
    compress: bool = True,
) -> bytes:
    """Serialise ``rows`` as they are — the one trace writer.

    ``rows`` is normally the output of :func:`fuse_segments` and
    ``boundaries`` its row boundaries: a section ends at each one,
    after ``section_rows`` rows, and before it would hold more than
    ``4 * section_rows`` logical events.  Each section header records its
    row count and the logical event count of those rows, and the file
    header the logical total, so planners and doctors count events
    whatever the fusion.  :meth:`EventBatch.to_bytes` is this applied
    to :func:`fuse_segments` of a recording.
    """
    if section_rows < 1:
        raise ValueError("rows per section must be >= 1")
    name_parts = [struct.pack("<I", len(rows.names))]
    for name in rows.names:
        raw = name.encode("utf-8")
        name_parts.append(struct.pack("<I", len(raw)))
        name_parts.append(raw)
    names_payload = b"".join(name_parts)
    n_rows = len(rows.ops)
    # logical events before each row (a run weighs its length, a loop
    # ``2 * n * k``)
    weights = _row_weights(rows)[0]
    weight_sums = _np.concatenate(([0], _np.cumsum(weights)))
    parts = [
        _BATCH_MAGIC,
        struct.pack("<I", len(names_payload)),
        names_payload,
        struct.pack("<I", zlib.crc32(names_payload)),
        struct.pack("<Q", int(weight_sums[-1])),
    ]
    # A section also ends once it holds ``_SECTION_WEIGHT`` times its
    # row cap in events: a run row stands for up to 64 events and a
    # loop row for up to ``_LOOP_MAX_WEIGHT``, and sections are the cut
    # points the partition planner balances by events, so a section
    # must bound replay work as well as rows.
    event_cap = _SECTION_WEIGHT * section_rows
    cuts = sorted({int(b) for b in boundaries if 0 < int(b) < n_rows})
    seg_lo = 0
    for seg_hi in cuts + [n_rows]:
        start = seg_lo
        while start < seg_hi:
            by_events = int(
                _np.searchsorted(
                    weight_sums, weight_sums[start] + event_cap, "right"
                )
            ) - 1
            stop = min(start + section_rows, seg_hi, max(by_events, start + 1))
            ops_b = rows.ops[start:stop].tobytes()
            flags, payload = encode_section_payload(
                ops_b,
                rows.threads[start:stop],
                rows.args[start:stop],
                rows.costs[start:stop],
                compress=compress,
            )
            parts.append(
                SECTION_HEADER.pack(
                    stop - start,
                    int(weight_sums[stop] - weight_sums[start]),
                    flags,
                    ops_b.count(OP_CALL),
                    ops_b.count(OP_RETURN),
                    len(payload),
                )
            )
            parts.append(payload)
            parts.append(struct.pack("<I", zlib.crc32(payload)))
            start = stop
        seg_lo = seg_hi
    return b"".join(parts)


def scan_batch_bytes(data: bytes) -> TraceScan:
    """Scan a binary trace, recovering its longest valid prefix.

    A fold over the section decode loop of :mod:`repro.core.tracefile`
    (the one :func:`~repro.core.tracefile.iter_section_batches` streams):
    every section that decodes and verifies is kept, in order, and the
    first that does not ends the scan.  Never raises on malformed
    input: the verdict — including the first
    :class:`TraceIntegrityError` found, if any — is in the returned
    :class:`TraceScan`.  ``repro doctor`` is a thin CLI over this."""
    from repro.core.tracefile import (
        TraceFormatError,
        _decode_groups,
        _parse_batch_header,
    )

    empty = EventBatch()
    version = _BATCH_MAGICS.get(bytes(data[: len(_BATCH_MAGIC)]), 0)
    try:
        version, names, declared, pos = _parse_batch_header(data)
    except TraceFormatError as exc:
        return TraceScan(
            empty, version, 0, 0, 0, 0,
            TraceIntegrityError(str(exc), exc.offset),
        )
    arrays = (array("b"), array("q"), array("q"), array("q"))
    section_events: List[int] = []
    error: Optional[TraceIntegrityError] = None
    try:
        # ``pos`` ends one past the last section kept
        for lanes, counts, pos in _decode_groups(
            data, version, declared, pos, len(data), False
        ):
            for arr, lane in zip(arrays, lanes):
                arr += lane
            section_events += counts
    except TraceFormatError as exc:
        error = TraceIntegrityError(str(exc), exc.offset)
    return TraceScan(
        EventBatch(*arrays, names=names), version, declared,
        sum(section_events), len(section_events), pos, error,
        section_events=section_events,
        error_section=len(section_events) if error is not None else None,
    )
