"""Trace persistence: a line-oriented text format and a binary format.

The paper's profiler is "given as input multiple traces of program
operations" — traces are artifacts.  This module serialises event
traces to a one-event-per-line text format so runs can be recorded
once and re-profiled offline under any metric, diffed, or shipped to
another machine:

    C 1 mysql_select 42     call(thread, routine, cost)
    R 1 65536               read(thread, addr)
    W 2 65537               write(thread, addr)
    > 1 65539               userToKernel
    < 1 65540               kernelToUser
    T 1 99                  return(thread, cost)
    S                       switchThread
    L+ 1 mutex              lockAcquire       L- releases
    B 2 1                   threadStart(thread, parent)
    E 2                     threadExit

Routine and lock names are percent-encoded so whitespace cannot break
the framing.

For the measurement fast path there is additionally a **binary** format:
the opcode-encoded struct-of-arrays of :class:`repro.core.events.EventBatch`
serialised with an interned string table up front (see
``EventBatch.to_bytes`` for the layout).  It loads straight into flat
arrays with no per-line parsing and no per-event object construction,
and is what the record-once/replay runner ships to its worker
processes.  Both formats round-trip through each other
(property-tested).
"""

from __future__ import annotations

import struct
import urllib.parse
import zlib
from array import array
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as _np

from repro.core.codec import (
    FLAG_ZLIB,
    SECTION_HEADER,
    SECTION_HEADER_V3,
    _MODE_RAW,
    Lane,
    SectionCodecError,
    decode_group_lanes,
    split_section_payload,
)
from repro.core.events import (
    _BATCH_MAGIC,
    _BATCH_MAGICS,
    _EVENT_BYTES,
    _IS_LOOP,
    _LEAF_BITS,
    _LOOP_MAX_WEIGHT,
    _SECTION_ROWS,
    KIND_BY_OPCODE,
    OP_CALL,
    OP_RETURN,
    SUPEROP_NAMES,
    TRACE_FORMAT_VERSION,
    Call,
    Event,
    EventBatch,
    KernelToUser,
    LockAcquire,
    LockRelease,
    Read,
    Return,
    SwitchThread,
    ThreadExit,
    ThreadStart,
    TraceScan,
    UserToKernel,
    Write,
    encode_events,
    scan_batch_bytes,
    unpack_loop,
)

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TraceFormatError",
    "event_to_line",
    "line_to_event",
    "save_trace",
    "load_trace",
    "save_trace_binary",
    "load_trace_binary",
    "load_batch",
    "scan_trace",
    "iter_section_batches",
    "TracePartition",
    "PartitionPlan",
    "plan_partitions",
    "SectionStats",
    "trace_section_stats",
]


class TraceFormatError(ValueError):
    """Malformed trace content — text line or binary stream.

    For binary traces ``offset`` carries the byte position where the
    stream stopped making sense (-1 when not applicable)."""

    def __init__(self, message: str, offset: int = -1) -> None:
        super().__init__(message)
        self.offset = offset


def _quote(name: str) -> str:
    return urllib.parse.quote(name, safe="")


def _unquote(name: str) -> str:
    return urllib.parse.unquote(name)


def event_to_line(event: Event) -> str:
    if isinstance(event, Call):
        return f"C {event.thread} {_quote(event.routine)} {event.cost}"
    if isinstance(event, Return):
        return f"T {event.thread} {event.cost}"
    if isinstance(event, Read):
        return f"R {event.thread} {event.addr}"
    if isinstance(event, Write):
        return f"W {event.thread} {event.addr}"
    if isinstance(event, UserToKernel):
        return f"> {event.thread} {event.addr}"
    if isinstance(event, KernelToUser):
        return f"< {event.thread} {event.addr}"
    if isinstance(event, SwitchThread):
        return "S"
    if isinstance(event, LockAcquire):
        return f"L+ {event.thread} {_quote(event.lock)}"
    if isinstance(event, LockRelease):
        return f"L- {event.thread} {_quote(event.lock)}"
    if isinstance(event, ThreadStart):
        return f"B {event.thread} {event.parent}"
    if isinstance(event, ThreadExit):
        return f"E {event.thread}"
    raise TraceFormatError(f"unserialisable event {event!r}")


def line_to_event(line: str) -> Event:
    parts = line.split()
    if not parts:
        raise TraceFormatError("empty trace line")
    tag = parts[0]
    try:
        if tag == "C":
            return Call(int(parts[1]), _unquote(parts[2]), int(parts[3]))
        if tag == "T":
            return Return(int(parts[1]), int(parts[2]))
        if tag == "R":
            return Read(int(parts[1]), int(parts[2]))
        if tag == "W":
            return Write(int(parts[1]), int(parts[2]))
        if tag == ">":
            return UserToKernel(int(parts[1]), int(parts[2]))
        if tag == "<":
            return KernelToUser(int(parts[1]), int(parts[2]))
        if tag == "S":
            return SwitchThread()
        if tag == "L+":
            return LockAcquire(int(parts[1]), _unquote(parts[2]))
        if tag == "L-":
            return LockRelease(int(parts[1]), _unquote(parts[2]))
        if tag == "B":
            return ThreadStart(int(parts[1]), int(parts[2]))
        if tag == "E":
            return ThreadExit(int(parts[1]))
    except (IndexError, ValueError) as exc:
        raise TraceFormatError(f"malformed trace line {line!r}") from exc
    raise TraceFormatError(f"unknown event tag {tag!r} in {line!r}")


def save_trace(events: Iterable[Event], stream: IO[str]) -> int:
    """Write events, one per line; returns the number written."""
    count = 0
    for event in events:
        stream.write(event_to_line(event))
        stream.write("\n")
        count += 1
    return count


def load_trace(stream: IO[str]) -> List[Event]:
    """Read a full trace back into memory."""
    return list(iter_trace(stream))


def iter_trace(stream: IO[str]) -> Iterator[Event]:
    """Stream events from a trace file (constant memory)."""
    for line in stream:
        line = line.strip()
        if line and not line.startswith("#"):
            yield line_to_event(line)


# -- binary format -----------------------------------------------------------


def save_trace_binary(
    trace: Union[EventBatch, Iterable[Event]], stream: IO[bytes]
) -> int:
    """Write a trace in the binary opcode format; returns the logical
    events written.

    Accepts either an already-encoded :class:`EventBatch` (plain or
    fused rows) or any iterable of dataclass events; the writer fuses
    either way (:meth:`EventBatch.to_bytes`).
    """
    batch = trace if isinstance(trace, EventBatch) else encode_events(trace)
    stream.write(batch.to_bytes())
    return batch.event_count()


def load_batch(stream: IO[bytes], strict: bool = True) -> EventBatch:
    """Read a binary trace back as an :class:`EventBatch` of its stored
    rows (fast path; run superops included).

    ``strict`` (the default) raises :class:`TraceFormatError` — with a
    byte-offset context, never a raw ``struct.error`` — on truncation or
    corruption.  ``strict=False`` recovers the longest valid prefix
    (crash-salvage mode; possibly empty)."""
    data = stream.read()
    try:
        return EventBatch.from_bytes(data, lenient=not strict)
    except ValueError as exc:
        offset = getattr(exc, "offset", -1)
        raise TraceFormatError(str(exc), offset) from exc


def load_trace_binary(stream: IO[bytes], strict: bool = True) -> List[Event]:
    """Read a binary trace back as a list of dataclass events."""
    return list(load_batch(stream, strict=strict).iter_events())


def scan_trace(stream: IO[bytes]) -> TraceScan:
    """Diagnose a binary trace: version, declared vs recovered events,
    valid sections and the first integrity error.  Never raises on
    malformed input — this is the engine behind ``repro doctor``."""
    return scan_batch_bytes(stream.read())


# -- streaming zero-copy decode ----------------------------------------------
#
# ``load_batch`` materialises the whole trace before the first event is
# profiled.  ``iter_section_batches`` instead turns a trace into a
# stream of read-ahead groups whose columns are decoded straight off
# ``memoryview`` slices of the CRC-checked section payloads (no
# per-event object; each section is checked alone, then the group's
# lanes are decoded together, one numpy pass per lane).  A group's
# batch holds the stored rows — fused by the writer — of consecutive
# sections, so replay loops feed it to every profiler inline, as is,
# one kernel call per kind per group: decode is GIL-bound, so a reader
# thread could not overlap it with the kernels anyway.
# ``_decode_section`` is the one section parser, ``_decode_groups`` the
# one loop over it and ``codec.decode_group_lanes`` the one lane
# decoder: the scanner (``scan_batch_bytes``) folds over that loop, the
# replay iterator yields its groups, and only the planner's carry
# snapshots call the parser and the lane decoder directly.


def _parse_batch_header(data) -> Tuple[int, List[str], int, int]:
    """Decode the trace header: returns ``(version, names,
    declared_events, body_start)`` where ``body_start`` is the byte
    offset of the first section header.  Raises
    :class:`TraceFormatError` on damage."""
    version = _BATCH_MAGICS.get(bytes(data[: len(_BATCH_MAGIC)]))
    if version is None:
        raise TraceFormatError("not a binary trace: bad magic", 0)
    view = memoryview(data)
    total = len(data)
    pos = len(_BATCH_MAGIC)
    if total - pos < 4:
        raise TraceFormatError("truncated header: missing name-table size", pos)
    (names_size,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if total - pos < names_size + 4:
        raise TraceFormatError("truncated name table", pos)
    names_payload = view[pos : pos + names_size]
    pos += names_size
    (names_crc,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if zlib.crc32(names_payload) != names_crc:
        raise TraceFormatError("name table CRC mismatch", pos - 4)
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
            names.append(bytes(raw).decode("utf-8"))
            off += length
    except (struct.error, UnicodeDecodeError) as exc:
        raise TraceFormatError(
            f"corrupt name table: {exc}", pos - 4 - names_size
        ) from exc
    if total - pos < 8:
        raise TraceFormatError("truncated header: missing event count", pos)
    (declared,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    return version, names, declared, pos


#: the CRC-32 after each section payload
_CRC = struct.Struct("<I")

#: section header bytes per format version
_SECTION_HEADER_SIZE = {
    2: 8,
    3: SECTION_HEADER_V3.size,
    4: SECTION_HEADER.size,
}


def _read_section_header(
    data, pos: int, version: int, remaining: Optional[int] = None
) -> Tuple[int, int, int, int, int, int, int]:
    """Parse and sanity-check one section header at ``pos``; returns
    ``(rows, events, flags, calls, returns, payload_size,
    header_size)``.

    Raises :class:`TraceFormatError` when the header or its payload
    and CRC run past the end of ``data``, or when the counts are
    implausible: no rows, fewer events than rows, or more events than
    ``remaining`` (the events the file header has left to declare).
    v2 and v3 store one row per event; v2 has no stored call/return
    counts, so they are counted off its raw opcode lane."""
    total = len(data)
    header_size = _SECTION_HEADER_SIZE[version]
    if total - pos < header_size:
        raise TraceFormatError("truncated section header", pos)
    if version == 2:
        (rows,) = struct.unpack_from("<Q", data, pos)
        events, flags, payload_size = rows, 0, rows * _EVENT_BYTES
        lane = bytes(data[pos + 8 : pos + 8 + rows])
        calls, rets = lane.count(OP_CALL), lane.count(OP_RETURN)
    elif version == 3:
        rows, flags, calls, rets, payload_size = SECTION_HEADER_V3.unpack_from(
            data, pos
        )
        events = rows
    else:
        rows, events, flags, calls, rets, payload_size = (
            SECTION_HEADER.unpack_from(data, pos)
        )
    if rows == 0 or events < rows or (
        remaining is not None and events > remaining
    ):
        raise TraceFormatError(
            f"implausible section event count {events}", pos
        )
    if total - pos - header_size < payload_size + 4:
        raise TraceFormatError(
            f"truncated section ({events} events declared)", pos
        )
    return rows, events, flags, calls, rets, payload_size, header_size


#: the opcodes are dense: the plain ones from 0, then the run and loop
#: superops up to the last opcode a writer stores
_FIRST_RUN_OPCODE = min(SUPEROP_NAMES)
_LAST_OPCODE = max(SUPEROP_NAMES)
assert sorted(KIND_BY_OPCODE) + sorted(SUPEROP_NAMES) == list(
    range(_LAST_OPCODE + 1)
)
#: a read-ahead group of sections takes sections until it holds this
#: many rows: the unit of the decoder's row check and of a replay's
#: kernel call
_GROUP_ROWS = 64 * _SECTION_ROWS
_LOOP_ERROR = (
    "loop superop of fewer than two pairs, over a buffer outside one "
    "shadow leaf or over its weight cap"
)


def _check_rows(ops, args, costs, events, pos: int, starts=None) -> None:
    """Reject decoded rows no writer produces: an unknown opcode, a run
    superop shorter than one cell or crossing a shadow leaf, a loop
    superop of fewer than two pairs, over a buffer of 0 or more than 64
    cells or crossing a leaf, or outweighing ``_LOOP_MAX_WEIGHT``, or
    rows whose summed weights (a run weighs its length, a loop
    ``2 * n * k``) differ from the section header's event count.  The
    columnar kernel trusts all of them.

    With ``starts`` the lanes are several sections concatenated:
    ``starts`` holds each section's first row and ``events`` each
    section's header count, and every section must weigh its own count
    (so two miscounts cannot cancel out).  The error then names ``pos``
    only; :func:`_decode_groups` re-checks section by section to find
    the exact one."""
    # Reductions are ``count_nonzero``: on arrays this small a check's
    # cost is its numpy calls, and the ``.any()``/``.max()`` methods
    # cost three times as much per call.
    nonzero = _np.count_nonzero
    op_u8 = _np.frombuffer(ops, dtype=_np.uint8)
    superops = op_u8 >= _FIRST_RUN_OPCODE
    super_ops = op_u8[superops]
    weights = None
    if len(super_ops):
        # an unknown opcode sorts above every superop
        if nonzero(super_ops > _LAST_OPCODE):
            raise TraceFormatError("unknown opcode in section", pos)
        # per superop: the cells it covers from ``base``, and how many
        # times (1 for a run, ``2 * k`` for a loop)
        cells = _np.frombuffer(costs, dtype=_np.int64)[superops]
        bases = _np.frombuffer(args, dtype=_np.int64)[superops]
        loops = _IS_LOOP.take(super_ops)
        times = 1
        if nonzero(loops):
            n, k = unpack_loop(cells)
            # ``k`` is bounded before it multiplies, so no weight wraps
            if nonzero(loops & ((k < 2) | (k > _LOOP_MAX_WEIGHT // 2))):
                raise TraceFormatError(_LOOP_ERROR, pos)
            cells = _np.where(loops, n, cells)
            times = _np.where(loops, 2 * k, 1)
        # every superop covers ``base .. base + span`` with ``0 <= span
        # < 64`` in one leaf; int64 wraps, but a wrap flips the sign
        # bit, so the leaf test still fails
        spans = cells - 1
        outside = (spans | (bases ^ (bases + spans))) >> _LEAF_BITS
        if nonzero(outside):
            raise TraceFormatError(
                _LOOP_ERROR
                if nonzero(outside.astype(bool) & loops)
                else "run superop shorter than one cell or crossing a "
                "shadow leaf",
                pos,
            )
        weights = cells * times
        if nonzero(weights > _LOOP_MAX_WEIGHT):
            raise TraceFormatError(_LOOP_ERROR, pos)
    if starts is not None:
        row_weights = _np.empty(len(op_u8), dtype=_np.int64)
        row_weights.fill(1)
        if weights is not None:
            row_weights[superops] = weights
        if _np.add.reduceat(row_weights, starts).tolist() != events:
            raise TraceFormatError(
                "section rows weigh other than their headers say", pos
            )
        return
    weight = len(op_u8)
    if weights is not None:
        weight += int(_np.add.reduce(weights)) - len(weights)
    if weight != events:
        raise TraceFormatError(
            f"section rows weigh {weight} events, header says {events}", pos
        )


def _decode_section(
    data,
    pos: int,
    version: int,
    remaining: Optional[int] = None,
    verify: bool = True,
) -> Tuple[int, memoryview, Tuple[Lane, Lane, Lane], int]:
    """Check and split the section at ``pos``; returns ``(events, ops,
    lanes, next_pos)`` where ``events`` is the logical event count of
    its rows, ``ops`` its opcode lane (one byte per row) and ``lanes``
    its three operand lanes, split but not yet decoded (feed them to
    :func:`~repro.core.codec.decode_group_lanes`; a v2 section's are
    raw width-8 lanes).  ``remaining`` bounds the plausible event count
    (see :func:`_read_section_header`).  ``verify`` checks the payload
    CRC first (ranged replay must; the planner's carry snapshots may
    skip it and let the workers' checked decode fail later).  Raises
    :class:`TraceFormatError` at the point of damage: header, CRC,
    zlib or lane encoding.  The rows themselves are checked by the
    caller, after decoding (:func:`_check_rows`).
    """
    rows, events, flags, _calls, _rets, payload_size, header_size = (
        _read_section_header(data, pos, version, remaining)
    )
    start = pos + header_size
    end = start + payload_size
    payload = memoryview(data)[start:end]
    if verify and zlib.crc32(payload) != _CRC.unpack_from(data, end)[0]:
        raise TraceFormatError("section CRC mismatch", pos)
    if version == 2:
        ops = payload[:rows]
        lanes = tuple(
            (_MODE_RAW, 8, payload[lo : lo + 8 * rows])
            for lo in range(rows, 25 * rows, 8 * rows)
        )
    else:
        try:
            ops, lanes = split_section_payload(payload, rows, flags)
        except SectionCodecError as exc:
            raise TraceFormatError(
                f"corrupt section encoding: {exc}", pos
            ) from exc
    return events, ops, lanes, end + 4


def _decode_groups(
    view, version: int, declared: int, pos: int, stop: int, ranged: bool
) -> Iterator[Tuple[Tuple[array, ...], List[int], int]]:
    """The one section decode loop, from ``pos`` up to ``stop``.

    Reads ahead a group of consecutive sections — taking sections until
    it holds ``_GROUP_ROWS`` rows, so always at least one — checking
    each section on its own (header, CRC, zlib, lane encoding:
    :func:`_decode_section`) and keeping its lanes split but undecoded.
    The group's lanes are then decoded together, once per lane
    (:func:`~repro.core.codec.decode_group_lanes`), and its rows
    checked in one :func:`_check_rows` pass, each section's weight
    against its own header count.  Yields ``(lanes, section_events,
    end)`` per group: its four lanes, each section's logical event
    count, and the offset one past its last CRC.  A group that fails
    the row check is re-checked section by section to find the damaged
    one.  Raises :class:`TraceFormatError` at the point of damage after
    yielding the checked sections before it (a shortened group), so
    every earlier section stands.

    Stop rules: ``ranged`` decoding reads every section up to ``stop``
    and bounds each section's event count by ``declared``; otherwise
    decoding stops once ``declared`` events are in, bounds each section
    by the events still declared, and raises when fewer arrive.  Either
    way bytes left before ``stop`` are an error."""
    loaded = 0
    while pos < stop and (ranged or loaded < declared):
        positions: List[int] = []
        counts: List[int] = []
        starts: List[int] = []
        op_lanes: List[memoryview] = []
        operand_lanes: List[Tuple[Lane, Lane, Lane]] = []
        rows = 0
        error: Optional[TraceFormatError] = None
        while (
            pos < stop
            and (ranged or loaded < declared)
            and rows < _GROUP_ROWS
        ):
            try:
                events, ops, lanes, next_pos = _decode_section(
                    view,
                    pos,
                    version,
                    declared if ranged else declared - loaded,
                )
            except TraceFormatError as exc:
                error = exc
                break
            positions.append(pos)
            counts.append(events)
            starts.append(rows)
            op_lanes.append(ops)
            operand_lanes.append(lanes)
            rows += len(ops)
            loaded += events
            pos = next_pos
        if counts:
            ops = array("b")
            ops.frombytes(
                op_lanes[0] if len(op_lanes) == 1 else b"".join(op_lanes)
            )
            threads, args, costs = decode_group_lanes(
                operand_lanes, [len(lane) for lane in op_lanes]
            )
            group = (ops, threads, args, costs)
            try:
                if len(counts) == 1:
                    _check_rows(ops, args, costs, counts[0], positions[0])
                else:
                    _check_rows(ops, args, costs, counts, positions[0], starts)
            except TraceFormatError:
                ends = starts[1:] + [rows]
                for i, (lo, hi) in enumerate(zip(starts, ends)):
                    try:
                        _check_rows(
                            ops[lo:hi], args[lo:hi], costs[lo:hi],
                            counts[i], positions[i],
                        )
                    except TraceFormatError:
                        if i:
                            yield (
                                tuple(lane[:lo] for lane in group),
                                counts[:i],
                                positions[i],
                            )
                        raise
            yield group, counts, pos
        if error is not None:
            raise error
    if not ranged and loaded < declared:
        raise TraceFormatError(
            f"trace truncated: {loaded} of {declared} events recovered", pos
        )
    if pos != stop:
        raise TraceFormatError("trailing bytes after final section", pos)


def iter_section_batches(
    data: bytes,
    start: Optional[int] = None,
    end: Optional[int] = None,
) -> Iterator[EventBatch]:
    """Yield one :class:`EventBatch` per read-ahead group of
    CRC-verified sections of a binary trace, decoding zero-copy off a
    ``memoryview``.

    Each batch holds the stored rows of consecutive sections, run
    superops included (:func:`repro.core.events.expand_runs` gives the
    plain rows), taken until the batch holds ``_GROUP_ROWS`` rows.
    Sections are the CRC and damage granularity (at most 1024 rows as
    written): each is checked on its own — header, CRC, zlib and lane
    encoding — and then the group's lanes are decoded together and its
    rows checked in one pass, so the first batch is ready after one
    group.  The profilers carry their state across batches, so the
    grouping is invisible to replay.  The shared intern table is
    decoded once and referenced by every yielded batch.  Raises :class:`TraceFormatError` at the point of
    damage, after yielding every section before it (events of
    previously yielded sections stand — the longest-valid-prefix
    contract of the scanner, streamed; see :func:`_decode_groups`).

    ``start``/``end`` restrict decoding to the byte range of a
    :class:`TracePartition` (section-header to past-final-CRC offsets
    from :func:`plan_partitions`), which is how partition workers
    replay just their slice of a shared trace; the header is still
    parsed for the intern table, and the declared-event total is not
    enforced for a sub-range (the partition carries its own count).
    """
    version, names, declared, body_start = _parse_batch_header(data)
    ranged = start is not None or end is not None
    pos = body_start if start is None else start
    stop = len(data) if end is None else end
    if pos < body_start or stop > len(data) or pos > stop:
        raise TraceFormatError(
            f"partition range [{pos}, {stop}) outside trace body", pos
        )
    # a sub-range ends at ``stop``: decode as if the data did too
    view = memoryview(data)[:stop]
    for lanes, _counts, _end in _decode_groups(
        view, version, declared, pos, stop, ranged
    ):
        yield EventBatch(*lanes, names=names)


# -- partitioned replay planning ---------------------------------------------
#
# One big trace is the last serial bottleneck of a sweep: every cell's
# replay walks its sections in order on one core.  ``plan_partitions``
# turns the section framing into an embarrassingly parallel job by
# finding byte offsets where the trace can be cut WITHOUT changing any
# profiler's answer, and balancing event counts across the cuts.  The
# safety argument (DESIGN.md §12 and §15, condensed): a boundary where
# the cumulative call depth is zero leaves every shadow stack empty —
# exactly the state ``begin_trace()`` expects between traces — so those
# partitions fold with the plain associative ``merge()``.  A boundary
# inside activations is *also* cuttable: per-thread stacks are
# section-boundary-consistent, so the planner snapshots each thread's
# live activations (its carry-in) and the next partition's workers
# re-seed those frames; the merge reassembles the carried activations
# from per-shard partial sums.  Depth-zero cuts are the carry-in = ∅
# special case and are still preferred when enough of them exist.
# Depth is computable from the opcode column alone; carry-in snapshots
# additionally decode the thread/arg/cost lanes of the prefix sections,
# and only when a chosen cut actually lands mid-activation.


#: a thread's carried stack, bottom-to-top: ``(seq, routine, call_cost)``
#: per live activation, where ``seq`` is the thread-local call ordinal —
#: the stable cross-partition activation identity ``(thread, seq)``.
CarryStack = Tuple[Tuple[int, str, int], ...]
#: per-thread carry at one cut, sorted by thread id: ``(thread, stack)``
CarryIn = Tuple[Tuple[int, CarryStack], ...]


@dataclass(frozen=True)
class TracePartition:
    """One byte-range of a binary trace, replayable in isolation.

    ``start``/``end`` delimit whole sections (``start`` is a section
    header offset, ``end`` is one past a section CRC) and are valid
    ``iter_section_batches`` range arguments.  ``events`` is the exact
    logical event count of the range (from section headers, not an
    estimate).

    ``carry_in`` lists the activations live at ``start`` (empty for a
    depth-zero cut): the worker seeds its shadow stacks with them
    before replaying.  ``carry_out_ids`` is the next partition's
    ``carry_in`` — the identities of the activations still live at
    ``end``, positionally aligned with the worker's end-of-partition
    stacks so the shard can label its partial sums.
    """

    index: int
    start: int
    end: int
    sections: int
    events: int
    carry_in: CarryIn = ()
    carry_out_ids: CarryIn = ()


def _carry_count(carry: CarryIn) -> int:
    return sum(len(stack) for _t, stack in carry)


@dataclass(frozen=True)
class PartitionPlan:
    """A partitioning of one trace into independently replayable ranges.

    ``partitions`` covers the trace body exactly, in order, with no
    overlap.  When the trace cannot be split (a single
    section, an unmatched-depth or torn trace) the plan degrades to
    one partition and ``reason`` says why — callers fall back to serial
    replay rather than failing.  ``carried`` counts the activation
    frames carried across all interior cuts (0 for a pure depth-zero
    plan).
    """

    requested: int
    total_events: int
    total_sections: int
    safe_boundaries: int
    partitions: Tuple[TracePartition, ...]
    reason: Optional[str] = None
    carried: int = 0

    @property
    def imbalance(self) -> float:
        """Max partition's event count over the ideal share, minus 1.

        0.0 is a perfect split; 1.0 means the largest partition holds
        twice its fair share.  Published as the ``partition.imbalance``
        gauge so lopsided traces are visible in telemetry.
        """
        if len(self.partitions) <= 1 or self.total_events == 0:
            return 0.0
        ideal = self.total_events / len(self.partitions)
        return max(p.events for p in self.partitions) / ideal - 1.0


def _greedy_cuts(
    candidates: List[int], cum_events: List[int], events: int, want: int
) -> List[int]:
    """Greedy quantile cuts: for each ideal share ``k*events/want``, take
    the nearest unused candidate (monotone pointer keeps the cuts
    ordered and the scan linear).  Returns section indices whose *after*
    boundary is cut."""
    cuts: List[int] = []
    ci = 0
    for k in range(1, want):
        target = events * k / want
        while ci < len(candidates) and cum_events[candidates[ci]] < target:
            ci += 1
        # candidates[ci] is the first boundary at/after the target;
        # the one before may be closer.
        best = None
        if ci < len(candidates):
            best = candidates[ci]
        if ci > 0:
            prev = candidates[ci - 1]
            if prev not in cuts and (
                best is None
                or abs(cum_events[prev] - target)
                <= abs(cum_events[best] - target)
            ):
                best = prev
        if best is not None and best not in cuts:
            cuts.append(best)
    return cuts


def _carry_snapshots(
    data: bytes,
    names: List[str],
    starts: List[int],
    cuts: List[int],
    version: int,
) -> Optional[List[CarryIn]]:
    """Simulate per-thread call stacks over the prefix sections and
    snapshot the live activations at each cut boundary.

    Returns one :data:`CarryIn` per cut (the carry into the partition
    *after* that cut), or ``None`` if the trace pops an empty stack or
    a prefix section fails to decode (malformed — the caller degrades
    instead of guessing).  Activation identity is ``(thread, seq)``
    with ``seq`` the thread-local call ordinal, which both sides of a
    cut can recompute independently.
    """
    stacks: dict = {}  # tid -> [(seq, routine, call_cost), ...]
    seqs: dict = {}  # tid -> next call ordinal
    snapshots: List[CarryIn] = []
    ci = 0
    last = cuts[-1]
    for s in range(last + 1):
        pos = starts[s]
        _rows, _events, _flags, calls, rets, _size, _hs = _read_section_header(
            data, pos, version
        )
        if calls != 0 or rets != 0:
            try:
                events, ops, lanes, _next = _decode_section(
                    data, pos, version, verify=False
                )
                threads, args, costs = decode_group_lanes([lanes], [len(ops)])
                _check_rows(ops, args, costs, events, pos)
            except TraceFormatError:
                return None
            for i, op in enumerate(ops):
                if op == OP_CALL:
                    if not 0 <= args[i] < len(names):
                        return None
                    tid = threads[i]
                    seq = seqs.get(tid, 0)
                    seqs[tid] = seq + 1
                    stacks.setdefault(tid, []).append(
                        (seq, names[args[i]], costs[i])
                    )
                elif op == OP_RETURN:
                    st = stacks.get(threads[i])
                    if not st:
                        return None
                    st.pop()
        if s == cuts[ci]:
            snapshots.append(
                tuple(
                    (t, tuple(st))
                    for t, st in sorted(stacks.items())
                    if st
                )
            )
            ci += 1
            if ci == len(cuts):
                break
    return snapshots


def plan_partitions(data: bytes, partitions: int) -> PartitionPlan:
    """Plan up to ``partitions`` balanced cuts of a binary trace.

    Walks section headers only (CRC payloads are not verified here —
    the workers' ranged decode does that) accumulating per-section
    event counts and call-depth deltas from the opcode lane.  Every
    interior section boundary is a cut candidate: depth-zero
    boundaries cut for free, others carry each thread's live
    activations into the next partition (``TracePartition.carry_in``).
    Cuts are chosen greedily at the candidate nearest each ideal
    event-count quantile — over depth-zero boundaries alone when
    enough exist to honour the request, otherwise over all boundaries.
    Always returns a plan — unsplittable or damaged traces yield a
    single-partition plan (covering the longest valid prefix) with
    ``reason`` set, never an exception for salvageable input.
    """
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    version, names, declared, body_start = _parse_batch_header(data)
    total = len(data)
    # Walk the section framing: starts[i] is section i's header offset,
    # cum_events[i]/depth after section i, plus whether the boundary
    # *after* section i is a depth-zero (carry-free) cut.  Events and
    # depth deltas come from the section headers (no payload decode).
    starts: List[int] = []
    cum_events: List[int] = []
    safe_after: List[bool] = []
    pos = body_start
    events = 0
    depth = 0
    torn: Optional[str] = None
    # A v4 header is read inline under the checks of
    # ``_read_section_header``, which reads any other header and names
    # the damage when a check fails.
    unpack = SECTION_HEADER.unpack_from if version == 4 else None
    header_size = SECTION_HEADER.size
    while pos < total:
        if unpack is not None and total - pos >= header_size:
            rows, n, _flags, calls, rets, payload_size = unpack(data, pos)
            end = pos + header_size + payload_size + 4
            ok = 0 < rows <= n <= declared - events and end <= total
        else:
            ok = False
        if not ok:
            try:
                _rows, n, _flags, calls, rets, payload_size, size = (
                    _read_section_header(data, pos, version, declared - events)
                )
            except TraceFormatError as exc:
                torn = str(exc)
                break
            end = pos + size + payload_size + 4
        depth += calls - rets
        starts.append(pos)
        events += n
        cum_events.append(events)
        safe_after.append(depth == 0)
        pos = end
    if torn is None and events < declared:
        torn = f"trace truncated: {events} of {declared} events recovered"
    n_sections = len(starts)
    # ``pos`` stopped either one past the final CRC (clean walk) or at
    # the damaged section's header (the loop breaks before advancing),
    # so it is the end of the longest valid prefix either way.
    body_end = pos
    ends = starts[1:] + [body_end]

    def single(reason: Optional[str]) -> PartitionPlan:
        part = TracePartition(0, body_start, body_end, n_sections, events)
        return PartitionPlan(
            requested=partitions,
            total_events=events,
            total_sections=n_sections,
            safe_boundaries=sum(safe_after[:-1]),
            partitions=(part,) if n_sections else (),
            reason=reason,
        )

    if n_sections == 0:
        return PartitionPlan(
            requested=partitions,
            total_events=0,
            total_sections=0,
            safe_boundaries=0,
            partitions=(),
            reason=torn or "empty trace",
        )
    if torn is not None:
        # Doctor-salvageable damage: degrade to the longest valid
        # prefix as a single partition instead of refusing to plan
        # (the prefix may well end mid-activation).
        if depth != 0:
            torn += f"; valid prefix ends at call depth {depth}"
        return single(torn)
    if depth != 0:
        return single(
            f"final call depth {depth} != 0: trace has unmatched calls"
        )
    if partitions == 1:
        return single(None)
    zero_candidates = [i for i in range(n_sections - 1) if safe_after[i]]
    all_candidates = list(range(n_sections - 1))
    if not all_candidates:
        return single("single section: no interior boundary to cut at")
    want = min(partitions, n_sections)
    # Prefer carry-free depth-zero cuts when they can honour the full
    # request; otherwise plan over every boundary and carry.
    cuts = _greedy_cuts(zero_candidates, cum_events, events, want)
    carries: List[CarryIn] = [() for _ in cuts]
    if len(cuts) < want - 1:
        thread_cuts = _greedy_cuts(all_candidates, cum_events, events, want)
        carried_cuts = [c for c in thread_cuts if not safe_after[c]]
        snapshots = (
            _carry_snapshots(data, names, starts, carried_cuts, version)
            if carried_cuts
            else []
        )
        if snapshots is not None:
            by_cut = dict(zip(carried_cuts, snapshots))
            cuts = thread_cuts
            carries = [by_cut.get(c, ()) for c in cuts]
        elif not cuts:
            return single("return with empty call stack: malformed trace")
    if not cuts:
        return single("no interior section boundary to cut at")
    parts: List[TracePartition] = []
    lo = 0
    prev_events = 0
    carry_bounds = [()] + carries + [()]
    for idx, cut in enumerate(cuts + [n_sections - 1]):
        part_events = cum_events[cut] - prev_events
        parts.append(
            TracePartition(
                index=idx,
                start=starts[lo],
                end=ends[cut],
                sections=cut - lo + 1,
                events=part_events,
                carry_in=carry_bounds[idx],
                carry_out_ids=carry_bounds[idx + 1],
            )
        )
        prev_events = cum_events[cut]
        lo = cut + 1
    return PartitionPlan(
        requested=partitions,
        total_events=events,
        total_sections=n_sections,
        safe_boundaries=len(zero_candidates),
        partitions=tuple(parts),
        reason=None,
        carried=sum(_carry_count(c) for c in carries),
    )


# -- per-section size accounting ----------------------------------------------


@dataclass(frozen=True)
class SectionStats:
    """Size accounting for one section of a binary trace.

    ``events`` counts logical events (a stored run weighs its length).
    ``stored_bytes`` is the section's full on-disk footprint (header +
    stored payload + CRC); ``raw_bytes`` is what the same events cost
    under the v2 fixed 25-bytes-per-event layout, so
    ``stored_bytes / raw_bytes`` is the section's compression ratio
    independent of which version actually stored it.  ``compressed``
    reports the zlib flag (always False for v2 sections).
    """

    index: int
    offset: int
    version: int
    events: int
    stored_bytes: int
    raw_bytes: int
    compressed: bool

    @property
    def bytes_per_event(self) -> float:
        return self.stored_bytes / self.events if self.events else 0.0

    @property
    def ratio(self) -> float:
        """Stored over raw-equivalent size (lower is better)."""
        return self.stored_bytes / self.raw_bytes if self.raw_bytes else 1.0


def trace_section_stats(data: bytes) -> List[SectionStats]:
    """Walk a binary trace's section framing and report per-section
    size accounting (``repro doctor --trace`` renders this).

    Headers only — payloads are not CRC-checked or decoded.  Stops
    quietly at the first implausible or truncated section (the stats of
    the valid prefix stand); raises :class:`TraceFormatError` only when
    the trace header itself is unreadable.
    """
    version, _names, declared, body_start = _parse_batch_header(data)
    out: List[SectionStats] = []
    pos = body_start
    events = 0
    while pos < len(data) and events < declared:
        try:
            _rows, n, flags, _c, _r, payload_size, header_size = (
                _read_section_header(data, pos, version, declared - events)
            )
        except TraceFormatError:
            break
        out.append(
            SectionStats(
                index=len(out),
                offset=pos,
                version=version,
                events=n,
                stored_bytes=header_size + payload_size + 4,
                raw_bytes=8 + n * _EVENT_BYTES + 4,
                compressed=bool(flags & FLAG_ZLIB),
            )
        )
        events += n
        pos += header_size + payload_size + 4
    return out
