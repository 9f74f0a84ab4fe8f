"""The fused trace format (v4): the writer stores run superops.

* **row identity** — the decoded rows of a written trace are exactly
  ``fuse_batch`` of each boundary segment, no section straddles a
  boundary, and ``iter_events``/``expand_runs`` give back the recording;
* **size** — the Figure 4 ``mysql_select`` run ×16 stores in at most
  0.05 bytes per event;
* **a validating decoder** — a run row of length < 1, a run crossing a
  shadow leaf, a loop row of fewer than two pairs, over a buffer of 0 or
  more than 64 cells or one crossing a leaf, or with an overflowing
  packed cost, an unknown opcode, or a section whose row weights differ
  from its header's event count is a :class:`TraceFormatError`;
* **group lane decode** — a read-ahead group's lanes, decoded together,
  equal its sections decoded alone for every mix of lane modes and
  widths, and lane damage the CRC cannot see stops the decode at its
  own section;
* **a structured fuzz** — random lane tags, widths, zlib flags, section
  counts, opcodes and run rows make ``iter_section_batches``,
  ``scan_batch_bytes`` and ``plan_partitions`` raise only the trace
  integrity errors.
"""

import struct
import zlib
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tracefile
from repro.core.codec import (
    FLAG_ZLIB,
    SECTION_HEADER,
    SECTION_HEADER_V3,
    SectionCodecError,
    encode_section_payload,
)
from repro.core.events import (
    OP_CALL,
    OP_FILL_READ_LOOP,
    OP_KFILL_RUN,
    OP_READ,
    OP_READ_RUN,
    OP_RETURN,
    OP_WRITE_RUN,
    Call,
    EventBatch,
    KernelToUser,
    Read,
    Return,
    SwitchThread,
    TraceIntegrityError,
    UserToKernel,
    Write,
    encode_events,
    expand_runs,
    fuse_batch,
    pack_loop,
    scan_batch_bytes,
    write_rows,
)
from repro.core.tracefile import (
    TraceFormatError,
    iter_section_batches,
    plan_partitions,
)


@st.composite
def runny_trace(draw):
    """Traces rich in stride-1 runs of every fusable kind (some crossing
    a leaf, some longer than a leaf), with execution boundaries at
    arbitrary event indices — inside runs too."""
    events = []
    for r in range(draw(st.integers(1, 4))):
        thread = draw(st.integers(1, 3))
        events.append(Call(thread, f"r{r}"))
        for _ in range(draw(st.integers(0, 6))):
            kind = draw(
                st.sampled_from([Read, Write, KernelToUser, UserToKernel])
            )
            base = draw(st.integers(0, 300))
            events.extend(
                kind(thread, base + i) for i in range(draw(st.integers(1, 80)))
            )
        events.append(Return(thread))
        if draw(st.booleans()):
            events.append(SwitchThread())
    bounds = draw(st.lists(st.integers(1, len(events) - 1), max_size=4))
    return events, sorted(set(bounds))


def _rows(batch, lo, hi):
    return EventBatch(
        batch.ops[lo:hi], batch.threads[lo:hi], batch.args[lo:hi],
        batch.costs[lo:hi], names=batch.names,
    )


def _lanes(batch):
    return (batch.ops, batch.threads, batch.args, batch.costs)


def _concat(batches):
    out = EventBatch()
    for batch in batches:
        for lane, part in zip(_lanes(out), _lanes(batch)):
            lane.extend(part)
    return out


@given(runny_trace(), st.integers(1, 64), st.booleans())
@settings(max_examples=60, deadline=None)
def test_v4_rows_are_fuse_batch_of_each_boundary_segment(
    trace, section_rows, compress
):
    events, bounds = trace
    batch = encode_events(events)
    payload = batch.to_bytes(
        section_events=section_rows, boundaries=bounds, compress=compress
    )
    expected = _concat(
        fuse_batch(_rows(batch, lo, hi))
        for lo, hi in zip([0] + bounds, bounds + [len(batch)])
    )
    # a one-row group budget yields each section alone
    with mock.patch.object(tracefile, "_GROUP_ROWS", 1):
        sections = list(iter_section_batches(payload))
    assert _lanes(_concat(sections)) == _lanes(expected)
    # no section straddles a boundary; sections respect both caps
    starts, seen = set(), 0
    for section in sections:
        starts.add(seen)
        seen += section.event_count()
        assert len(section) <= section_rows
        assert section.event_count() <= max(4 * section_rows, 64)
    assert seen == len(events)
    assert set(bounds) <= starts


@given(runny_trace())
@settings(max_examples=40, deadline=None)
def test_v4_decodes_to_the_recorded_events(trace):
    events, bounds = trace
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=32, boundaries=bounds)
    rows = EventBatch.from_bytes(payload)
    assert list(rows.iter_events()) == events
    assert _lanes(expand_runs(rows)) == _lanes(batch)
    scan = scan_batch_bytes(payload)
    assert scan.intact
    assert scan.declared_events == scan.events_loaded == len(events)
    assert sum(scan.section_events) == len(events)
    plan = plan_partitions(payload, 3)
    assert plan.total_events == sum(p.events for p in plan.partitions)
    assert plan.total_events == len(events)


def test_fig4_payload_is_at_most_five_hundredths_of_a_byte_per_event():
    """The fig-4 ``mysql_select`` run ×16 with run boundaries, as the
    repository benchmark builds it: ~130k events stored as ~4.4k fused
    rows (the one-row-per-event v3 form took 0.179 B/event)."""
    from repro.core.tracing import with_switches
    from repro.vm.machine import Machine
    from repro.vm.scheduler import RandomScheduler
    from repro.workloads.mysql import select_sweep

    machine = select_sweep(machine=Machine(scheduler=RandomScheduler(7)))
    machine.run()
    run = with_switches(machine.trace)
    events, bounds = [], []
    for _ in range(16):
        if events:
            bounds.append(len(events))
            events.append(SwitchThread())
        events.extend(run)
    payload = encode_events(events).to_bytes(boundaries=bounds)
    assert len(payload) / len(events) <= 0.05
    assert scan_batch_bytes(payload).events_loaded == len(events)


# -- the validating decoder ---------------------------------------------------


def _trace(rows, declared_delta=0, events_delta=0):
    """Write ``(op, thread, arg, cost)`` rows as one v4 section; the
    deltas then bump the file's declared total and the section's
    logical event count (the CRC covers the payload only)."""
    batch = EventBatch(
        array("b", [r[0] for r in rows]),
        array("q", [r[1] for r in rows]),
        array("q", [r[2] for r in rows]),
        array("q", [r[3] for r in rows]),
        names=["f"],
    )
    data = bytearray(write_rows(batch))
    # the single section follows magic, names size, names, CRC and count
    names_size = struct.unpack_from("<I", data, 5)[0]
    count_at = 5 + 4 + names_size + 4
    section_at = count_at + 8
    declared = struct.unpack_from("<Q", data, count_at)[0]
    struct.pack_into("<Q", data, count_at, declared + declared_delta)
    events = struct.unpack_from("<I", data, section_at + 4)[0]
    struct.pack_into("<I", data, section_at + 4, events + events_delta)
    return bytes(data)


@pytest.mark.parametrize(
    "rows,deltas,match",
    [
        # a zero-length run beside a real one (weights stay >= rows)
        (
            [(OP_READ_RUN, 1, 0x100, 0), (OP_READ_RUN, 1, 0x200, 5),
             (OP_READ, 1, 0x300, 0)],
            (0, 0),
            "shorter than one cell",
        ),
        # a write run from cell 60 to 69 crosses the 64-cell leaf
        ([(OP_WRITE_RUN, 1, 60, 10)], (0, 0), "crossing a shadow leaf"),
        # a kernel-fill run longer than a leaf
        ([(OP_KFILL_RUN, 1, 0, 65)], (0, 0), "crossing a shadow leaf"),
        # opcode 15 is past the last superop
        ([(OP_READ, 1, 0, 0), (15, 1, 0, 0)], (0, 0), "unknown opcode"),
        ([(OP_READ, 1, 0, 0), (-1, 1, 0, 0)], (0, 0), "unknown opcode"),
        # the header claims one event more than the rows weigh
        (
            [(OP_CALL, 1, 0, 0), (OP_READ_RUN, 1, 0x40, 8),
             (OP_RETURN, 1, 0, 0)],
            (1, 1),
            "weigh 10 events, header says 11",
        ),
    ],
)
def test_decoder_rejects_malformed_run_rows(rows, deltas, match):
    data = _trace(rows, *deltas)
    with pytest.raises(TraceFormatError, match=match):
        list(iter_section_batches(data))
    scan = scan_batch_bytes(data)
    assert not scan.intact and match in str(scan.error)
    assert scan.sections_valid == 0 and scan.error_section == 0
    with pytest.raises(TraceIntegrityError):
        EventBatch.from_bytes(data)


def _section(rows, events):
    """One v4 section of ``(op, thread, arg, cost)`` rows whose header
    states ``events`` logical events (written by hand: the writer
    cannot weigh a malformed loop row)."""
    flags, payload = encode_section_payload(
        array("b", [r[0] for r in rows]).tobytes(),
        array("q", [r[1] for r in rows]),
        array("q", [r[2] for r in rows]),
        array("q", [r[3] for r in rows]),
    )
    head = b"RPRB\x04" + struct.pack("<I", 4) + struct.pack("<I", 0)
    head += struct.pack("<I", zlib.crc32(struct.pack("<I", 0)))
    return (
        head
        + struct.pack("<Q", events)
        + SECTION_HEADER.pack(len(rows), events, flags, 0, 0, len(payload))
        + payload
        + struct.pack("<I", zlib.crc32(payload))
    )


_LOOP_ERROR = "loop superop"


@pytest.mark.parametrize(
    "rows,events,match",
    [
        # one pair is not a loop (k < 2)
        ([(OP_FILL_READ_LOOP, 1, 0, pack_loop(4, 1))], 8, _LOOP_ERROR),
        ([(OP_FILL_READ_LOOP, 1, 0, pack_loop(4, 0))], 1, _LOOP_ERROR),
        # an empty buffer, and one longer than a leaf
        ([(OP_FILL_READ_LOOP, 1, 0, pack_loop(0, 3))], 1, _LOOP_ERROR),
        ([(OP_FILL_READ_LOOP, 1, 0, pack_loop(65, 2))], 260, _LOOP_ERROR),
        ([(OP_FILL_READ_LOOP, 1, 0, pack_loop(127, 2))], 508, _LOOP_ERROR),
        # a buffer from cell 60 to 67 crosses the 64-cell leaf
        ([(OP_FILL_READ_LOOP, 1, 60, pack_loop(8, 2))], 32, _LOOP_ERROR),
        # a buffer at INT64_MAX wraps
        (
            [(OP_FILL_READ_LOOP, 1, (1 << 63) - 2, pack_loop(4, 2))],
            16,
            _LOOP_ERROR,
        ),
        # packed costs that overflow: a negative cost, the largest k
        # (its weight is just under 2**63), a weight that wraps int64,
        # a k past the weight cap
        ([(OP_FILL_READ_LOOP, 1, 0, -1)], 1, _LOOP_ERROR),
        ([(OP_FILL_READ_LOOP, 1, 0, pack_loop(64, (1 << 56) - 1))], 1,
         _LOOP_ERROR),
        ([(OP_FILL_READ_LOOP, 1, 0, pack_loop(127, (1 << 56) - 1))], 1,
         _LOOP_ERROR),
        ([(OP_FILL_READ_LOOP, 1, 0, pack_loop(64, 33))], 4224, _LOOP_ERROR),
        # the header states one event more, or fewer, than the rows weigh
        (
            [(OP_CALL, 1, 0, 0), (OP_FILL_READ_LOOP, 1, 0x40, pack_loop(8, 3)),
             (OP_RETURN, 1, 0, 0)],
            51,
            "weigh 50 events, header says 51",
        ),
        (
            [(OP_FILL_READ_LOOP, 1, 0x40, pack_loop(8, 3))],
            47,
            "weigh 48 events, header says 47",
        ),
    ],
)
def test_decoder_rejects_malformed_loop_rows(rows, events, match):
    data = _section(rows, events)
    with pytest.raises(TraceFormatError, match=match):
        list(iter_section_batches(data))
    scan = scan_batch_bytes(data)
    assert not scan.intact and match in str(scan.error)
    assert scan.sections_valid == 0 and scan.error_section == 0
    with pytest.raises(TraceIntegrityError):
        EventBatch.from_bytes(data)
    for partitions in (1, 2):
        try:
            plan_partitions(data, partitions)
        except (TraceFormatError, TraceIntegrityError):
            pass


def test_decoder_accepts_loops_at_the_limits():
    rows = [
        (OP_FILL_READ_LOOP, 1, 0x40, pack_loop(64, 32)),
        (OP_FILL_READ_LOOP, 2, 0x83, pack_loop(1, 2048)),
    ]
    (section,) = iter_section_batches(_section(rows, 2 * 4096))
    assert section.event_count() == 2 * 4096
    assert len(list(section.iter_events())) == 2 * 4096


def test_decoder_accepts_a_full_leaf_run():
    data = _trace([(OP_READ_RUN, 1, 64, 64), (OP_READ, 1, 200, 0)])
    (section,) = iter_section_batches(data)
    assert section.event_count() == 65
    addrs = [e.addr for e in section.iter_events()]
    assert addrs == list(range(64, 128)) + [200]


# -- damage inside a read-ahead group -----------------------------------------
#
# The decoder checks a group of consecutive sections at once; damage in
# the middle of a group must still surface section by section: the same
# valid prefix, then the same error at the same offset as a decode that
# checks one section at a time.


def _group_rows(i):
    """Section ``i``'s rows: a call wrapping a read run and a loop,
    weighing 34 events."""
    return [
        (OP_CALL, 1, 0, i),
        (OP_READ_RUN, 1, 0x40 * (i + 1), 8),
        (OP_FILL_READ_LOOP, 1, 0x40 * (i + 1) + 8, pack_loop(4, 3)),
        (OP_RETURN, 1, 0, i + 1),
    ]


def _group_trace(damage, sections=8):
    """A v4 trace of ``sections`` uncompressed sections of
    :func:`_group_rows`, with ``damage`` applied; returns ``(data,
    section_offsets, body_start)``."""
    blobs = []
    total = 0
    for i in range(sections):
        rows = _group_rows(i)
        if damage == "loop" and i == 4:
            rows[2] = (OP_FILL_READ_LOOP, 1, 0x40 * 5 + 8, pack_loop(4, 1))
        flags, payload = encode_section_payload(
            array("b", [r[0] for r in rows]).tobytes(),
            array("q", [r[1] for r in rows]),
            array("q", [r[2] for r in rows]),
            array("q", [r[3] for r in rows]),
            compress=False,
        )
        if damage == "tag" and i == 4:
            payload = payload[: len(rows)] + b"\xff" + payload[len(rows) + 1 :]
        events = 34 + {("miscount", 2): 1, ("miscount", 5): -1}.get(
            (damage, i), 0
        )
        crc = zlib.crc32(payload) ^ (damage == "crc" and i == 4)
        blobs.append(
            SECTION_HEADER.pack(len(rows), events, flags, 1, 1, len(payload))
            + payload
            + struct.pack("<I", crc)
        )
        total += events
    names = struct.pack("<I", 1) + struct.pack("<I", 1) + b"f"
    head = (
        b"RPRB\x04"
        + struct.pack("<I", len(names))
        + names
        + struct.pack("<I", zlib.crc32(names))
        + struct.pack("<Q", total)
    )
    offsets, pos = [], len(head)
    for blob in blobs:
        offsets.append(pos)
        pos += len(blob)
    return head + b"".join(blobs), offsets, len(head)


def _decode_until_error(*args):
    sections = []
    with pytest.raises(TraceFormatError) as info:
        for section in iter_section_batches(*args):
            sections.append(section)
    return sections, info.value


@pytest.mark.parametrize(
    "damage,bad,message",
    [
        ("crc", 4, "section CRC mismatch"),
        ("tag", 4, "corrupt section encoding: bad threads lane tag 0xff"),
        (
            "loop",
            4,
            "loop superop of fewer than two pairs, over a buffer outside "
            "one shadow leaf or over its weight cap",
        ),
        # +1 in one section and -1 in a later one: the group's total
        # still matches, each section's does not
        ("miscount", 2, "section rows weigh 34 events, header says 35"),
    ],
)
def test_damage_inside_a_group_stops_at_the_damaged_section(
    damage, bad, message
):
    from repro.core.tracefile import TracePartition
    from repro.tools.partition import replay_partition

    data, offsets, body_start = _group_trace(damage)
    intact, _offsets, _body = _group_trace(None)
    with mock.patch.object(tracefile, "_GROUP_ROWS", 1):
        expected = list(iter_section_batches(intact))
    assert len(expected) == 8

    sections, error = _decode_until_error(data)
    assert (str(error), error.offset) == (message, offsets[bad])
    assert _lanes(_concat(sections)) == _lanes(_concat(expected[:bad]))

    # the scanner agrees on prefix, message and offset
    scan = scan_batch_bytes(data)
    assert scan.sections_valid == scan.error_section == bad
    assert scan.section_events == [34] * bad
    assert str(scan.error) == f"{message} (at byte {offsets[bad]})"

    # ranged decode from the second section, and ranged replay
    sections, error = _decode_until_error(data, offsets[1], len(data))
    assert (str(error), error.offset) == (message, offsets[bad])
    assert _lanes(_concat(sections)) == _lanes(_concat(expected[1:bad]))
    part = TracePartition(0, body_start, len(data), 8, 8 * 34)
    with pytest.raises(TraceFormatError) as info:
        replay_partition(data, part, ("drms", "rms"), 1)
    assert (str(info.value), info.value.offset) == (message, offsets[bad])


# -- group lane decode --------------------------------------------------------
#
# A group's operand lanes are decoded together, one column per lane
# across every section; each section picks its own lane mode and
# width, and each delta chain still starts from 0 at its section.


def _wrap64(value):
    return (value + (1 << 63)) % (1 << 64) - (1 << 63)


def _lane_values(mode, width, column):
    """What a stored column decodes to: itself (raw), or its running
    sum wrapping at 64 bits (delta)."""
    if mode == 0x00:
        return list(column)
    values, total = [], 0
    for delta in column:
        total = _wrap64(total + delta)
        values.append(total)
    return values


@st.composite
def _stored_lane(draw, rows):
    """One operand lane as stored: ``(mode, width, column)``, the
    column's values in range for its width, extremes included."""
    mode = draw(st.sampled_from([0x00, 0x10]))
    width = draw(st.sampled_from([1, 2, 4, 8]))
    lo, hi = -(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1
    column = draw(
        st.lists(
            st.integers(lo, hi) | st.sampled_from([lo, hi]),
            min_size=rows,
            max_size=rows,
        )
    )
    return mode, width, column


@st.composite
def _lane_group(draw):
    """``(version, sections, compress)``: 1-12 sections of plain rows,
    each operand lane with its own mode and width."""
    sections = []
    for _ in range(draw(st.integers(1, 12))):
        rows = draw(st.integers(1, 8))
        ops = draw(
            st.lists(
                st.sampled_from([OP_READ, OP_CALL, OP_RETURN]),
                min_size=rows,
                max_size=rows,
            )
        )
        sections.append((ops, [draw(_stored_lane(rows)) for _ in range(3)]))
    return draw(st.sampled_from([2, 3, 4])), sections, draw(st.booleans())


def _lane_group_trace(version, sections, compress):
    """Write ``sections`` by hand as a v2, v3 or v4 trace; returns
    ``(data, lanes)`` with ``lanes`` the rows they must decode to.  v2
    stores every operand lane raw at width 8."""
    body = []
    lanes = (array("b"), array("q"), array("q"), array("q"))
    for ops, stored in sections:
        rows = len(ops)
        ops_b = array("b", ops).tobytes()
        values = [_lane_values(*lane) for lane in stored]
        if version == 2:
            payload = ops_b + b"".join(array("q", v).tobytes() for v in values)
            header = struct.pack("<Q", rows)
        else:
            payload = ops_b + b"".join(
                bytes((mode | width,))
                + b"".join(v.to_bytes(width, "little", signed=True) for v in col)
                for mode, width, col in stored
            )
            flags = 0
            if compress:
                payload, flags = zlib.compress(payload), FLAG_ZLIB
            calls, rets = ops_b.count(OP_CALL), ops_b.count(OP_RETURN)
            if version == 3:
                header = SECTION_HEADER_V3.pack(
                    rows, flags, calls, rets, len(payload)
                )
            else:
                header = SECTION_HEADER.pack(
                    rows, rows, flags, calls, rets, len(payload)
                )
        body.append(header + payload + struct.pack("<I", zlib.crc32(payload)))
        lanes[0].extend(ops)
        for lane, column in zip(lanes[1:], values):
            lane.extend(column)
    names = struct.pack("<I", 0)
    data = b"".join(
        [
            b"RPRB" + bytes((version,)),
            struct.pack("<I", len(names)),
            names,
            struct.pack("<I", zlib.crc32(names)),
            struct.pack("<Q", len(lanes[0])),
        ]
        + body
    )
    return data, lanes


def _assert_group_decodes(version, sections, compress):
    data, expected = _lane_group_trace(version, sections, compress)
    (group,) = iter_section_batches(data)
    # a one-row group budget decodes every section alone
    with mock.patch.object(tracefile, "_GROUP_ROWS", 1):
        alone = list(iter_section_batches(data))
    assert len(alone) == len(sections)
    assert _lanes(group) == _lanes(_concat(alone)) == expected
    scan = scan_batch_bytes(data)
    assert scan.intact and _lanes(scan.batch) == expected


@given(_lane_group())
@settings(max_examples=150, deadline=None)
def test_group_lane_decode_equals_each_section_alone(group):
    _assert_group_decodes(*group)


@pytest.mark.parametrize("version", [3, 4])
@pytest.mark.parametrize("middle", [0x00, 0x10])
def test_group_lane_decode_wraps_int64_across_section_boundaries(
    version, middle
):
    """Width-8 delta lanes whose group-wide running sum wraps inside a
    section and at each boundary, around a raw or a delta section."""
    hi, lo = (1 << 63) - 1, -(1 << 63)
    lane = [(0x10, 8, [hi, hi, 1]), (middle, 8, [lo, hi, lo]),
            (0x10, 8, [lo, -1, lo])]
    sections = [
        ([OP_READ] * 3, [lane[i], lane[(i + 1) % 3], lane[(i + 2) % 3]])
        for i in range(3)
    ]
    _assert_group_decodes(version, sections, False)


def _codec_damage_trace(damage, bad, compress, sections=6):
    """A v4 trace of ``sections`` sections of :func:`_group_rows` whose
    section ``bad`` fails only the lane codec: its CRC is valid, but
    one lane tag is bad, its cost column truncated, or bytes trail it.
    Returns ``(data, section_offsets)``."""
    blobs = []
    for i in range(sections):
        rows = _group_rows(i)
        flags, payload = encode_section_payload(
            array("b", [r[0] for r in rows]).tobytes(),
            array("q", [r[1] for r in rows]),
            array("q", [r[2] for r in rows]),
            array("q", [r[3] for r in rows]),
            compress=False,
        )
        if i == bad:
            # the tag offsets of the threads, args and costs lanes
            tags = [len(rows)]
            for _ in range(2):
                tags.append(tags[-1] + 1 + len(rows) * (payload[tags[-1]] & 0x0F))
            if damage == "args tag":
                payload = (
                    payload[: tags[1]] + b"\x13" + payload[tags[1] + 1 :]
                )
            elif damage == "costs tag":
                payload = (
                    payload[: tags[2]] + b"\x21" + payload[tags[2] + 1 :]
                )
            elif damage == "truncated":
                payload = payload[:-1]
            else:
                payload += b"\x00"
        if compress:
            payload, flags = zlib.compress(payload), FLAG_ZLIB
        blobs.append(
            SECTION_HEADER.pack(len(rows), 34, flags, 1, 1, len(payload))
            + payload
            + struct.pack("<I", zlib.crc32(payload))
        )
    names = struct.pack("<I", 1) + struct.pack("<I", 1) + b"f"
    head = (
        b"RPRB\x04"
        + struct.pack("<I", len(names))
        + names
        + struct.pack("<I", zlib.crc32(names))
        + struct.pack("<Q", 34 * sections)
    )
    offsets, pos = [], len(head)
    for blob in blobs:
        offsets.append(pos)
        pos += len(blob)
    return head + b"".join(blobs), offsets


@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("bad", [0, 3, 5])
@pytest.mark.parametrize(
    "damage,message",
    [
        ("args tag", "bad args lane tag 0x13"),
        ("costs tag", "bad costs lane tag 0x21"),
        ("truncated", "costs lane truncated"),
        ("trailing", "trailing bytes after cost lane"),
    ],
)
def test_codec_damage_inside_a_group_stays_located(
    damage, message, bad, compress
):
    """Lanes are checked section by section before the group decodes
    them: damage the CRC cannot see still stops the decode at its own
    section, after every section before it."""
    data, offsets = _codec_damage_trace(damage, bad, compress)
    intact, _offsets = _codec_damage_trace(None, None, compress)
    with mock.patch.object(tracefile, "_GROUP_ROWS", 1):
        expected = list(iter_section_batches(intact))
    assert len(expected) == 6

    sections, error = _decode_until_error(data)
    assert str(error) == f"corrupt section encoding: {message}"
    assert error.offset == offsets[bad]
    assert _lanes(_concat(sections)) == _lanes(_concat(expected[:bad]))

    scan = scan_batch_bytes(data)
    assert scan.valid_bytes == offsets[bad]
    assert scan.sections_valid == scan.error_section == bad
    assert _lanes(scan.batch) == _lanes(_concat(expected[:bad]))


# -- structured fuzz ----------------------------------------------------------

_INT64 = st.integers(-(1 << 63), (1 << 63) - 1)


@st.composite
def _lane_bytes(draw, values):
    """One operand lane: a valid width-tagged column, or a damaged one
    (bad tag, wrong width, short column)."""
    n = len(values)
    mode = draw(st.sampled_from([0x00, 0x10, 0x20]))
    width = draw(st.sampled_from([1, 2, 4, 8, 3]))
    tag = mode | width if draw(st.booleans()) else draw(st.integers(0, 255))
    mask = (1 << (8 * width)) - 1
    packed = b"".join((v & mask).to_bytes(width, "little") for v in values)
    if draw(st.integers(0, 9)) == 0:
        packed = packed[: draw(st.integers(0, max(0, len(packed) - 1)))]
    return bytes((tag,)) + packed


@st.composite
def fuzzed_trace(draw):
    version = draw(st.sampled_from([2, 3, 4, 4, 4]))
    names = draw(st.lists(st.text(max_size=3), max_size=3))
    name_parts = [struct.pack("<I", len(names))]
    for name in names:
        raw = name.encode("utf-8")
        name_parts += [struct.pack("<I", len(raw)), raw]
    names_payload = b"".join(name_parts)
    sections = []
    total = 0
    for _ in range(draw(st.integers(0, 4))):
        rows = draw(st.integers(1, 6))
        ops = draw(
            st.lists(
                st.sampled_from(range(15)) | st.integers(-128, 127),
                min_size=rows,
                max_size=rows,
            )
        )
        threads = draw(
            st.lists(st.integers(0, 3), min_size=rows, max_size=rows)
        )
        args = draw(
            st.lists(
                st.integers(0, 200) | st.integers(0, len(names) + 1) | _INT64,
                min_size=rows,
                max_size=rows,
            )
        )
        costs = draw(
            st.lists(
                st.integers(-2, 70)
                | _INT64
                | st.builds(pack_loop, st.integers(0, 70), st.integers(-1, 40)),
                min_size=rows,
                max_size=rows,
            )
        )
        ops_b = array("b", ops).tobytes()
        weight = sum(
            c if op in (OP_READ_RUN, OP_WRITE_RUN, OP_KFILL_RUN)
            else 2 * (c & 127) * (c >> 7) if op == OP_FILL_READ_LOOP
            else 1
            for op, c in zip(ops, costs)
        )
        events = draw(
            st.sampled_from([weight, weight, rows, weight + 1])
            | st.integers(0, 1 << 32 - 1)
        ) % (1 << 32)
        if version == 2:
            payload = ops_b + b"".join(
                array("q", lane).tobytes() for lane in (threads, args, costs)
            )
            header = struct.pack("<Q", rows)
            events = rows
        else:
            if draw(st.booleans()):
                flags, payload = encode_section_payload(
                    ops_b,
                    array("q", threads),
                    array("q", args),
                    array("q", costs),
                    compress=draw(st.booleans()),
                )
            else:
                payload = ops_b + b"".join(
                    draw(_lane_bytes(lane)) for lane in (threads, args, costs)
                )
                flags = 0
                if draw(st.booleans()):
                    payload = zlib.compress(payload)
                    flags = FLAG_ZLIB
            flags = draw(
                st.sampled_from([flags, flags, flags ^ FLAG_ZLIB, 0xFE])
            )
            calls, rets = ops_b.count(OP_CALL), ops_b.count(OP_RETURN)
            if draw(st.integers(0, 4)) == 0:
                calls, rets = draw(st.integers(0, 5)), draw(st.integers(0, 5))
            if version == 3:
                header = struct.pack(
                    "<IBIII", rows, flags, calls, rets, len(payload)
                )
                events = rows
            else:
                header = SECTION_HEADER.pack(
                    rows, events, flags, calls, rets, len(payload)
                )
        crc = zlib.crc32(payload)
        if draw(st.integers(0, 9)) == 0:
            crc ^= 1
        sections.append(header + payload + struct.pack("<I", crc))
        total += events
    declared = draw(
        st.sampled_from([total, total, total + 1]) | st.integers(0, 99)
    )
    data = b"".join(
        [
            b"RPRB" + bytes((version,)),
            struct.pack("<I", len(names_payload)),
            names_payload,
            struct.pack("<I", zlib.crc32(names_payload)),
            struct.pack("<Q", declared),
        ]
        + sections
    )
    cut = draw(st.just(len(data)) | st.integers(0, len(data)))
    return data[:cut] + draw(st.sampled_from([b"", b"", b"\x00", b"junk"]))


_INTEGRITY = (TraceFormatError, SectionCodecError, TraceIntegrityError)


@given(fuzzed_trace())
@settings(max_examples=300, deadline=None)
def test_fuzzed_traces_raise_only_integrity_errors(data):
    streamed, stream_error = [], None
    try:
        for batch in iter_section_batches(data):
            streamed.append(batch)
    except _INTEGRITY as exc:
        stream_error = exc
    scan = scan_batch_bytes(data)  # never raises
    assert scan.events_loaded == sum(scan.section_events)
    # the scan folds over the stream's decode loop: the same prefix,
    # and the same point of damage
    assert _lanes(scan.batch) == _lanes(_concat(streamed))
    assert (scan.error is None) == (stream_error is None)
    if stream_error is not None:
        assert scan.error.offset == stream_error.offset
    for partitions in (1, 2, 3):
        try:
            plan = plan_partitions(data, partitions)
        except _INTEGRITY:
            continue
        for part in plan.partitions:
            try:
                for _ in iter_section_batches(data, part.start, part.end):
                    pass
            except _INTEGRITY:
                pass
