"""Compact section codec (trace formats v3 and v4): per-lane columnar
deltas, width-tagged integer columns, and optional per-section zlib.

The v2 binary trace stores every event as 25 fixed bytes (1 opcode +
three little-endian ``i64`` operands).  Real traces are massively
redundant under that layout: a section's thread lane is almost always
one repeated id, its address lane walks arrays with stride-1 deltas,
and its cost lane is zero except for monotone call/return counters.
The v3 payload exploits exactly that structure:

* the **opcode lane** is stored raw — one byte per event (opcodes fit
  in ``i8`` and zlib eats the repetition);
* each **operand lane** (threads, args, costs) is stored either raw or
  **delta-chained** (each value minus its predecessor *within the
  section*, first value against 0), whichever needs the narrower
  integer width, as a packed little-endian column of ``i8``/``i16``/
  ``i32``/``i64`` behind a one-byte tag;
* the assembled payload is **zlib-compressed per section** when that
  wins (flag bit; delta'd lanes are mostly zero bytes, so it almost
  always does).

Delta arithmetic is two's-complement **wraparound at 64 bits** on both
sides, so any ``i64`` lane round-trips bit-exactly even when a delta
overflows.  Sections stay independently decodable — the delta chain
resets per section — which is what keeps ranged partition decode and
longest-valid-prefix recovery working on v3 exactly as on v2.

The codec encodes *rows*.  Since v4 the rows are the writer's fused
ones, so a run superop is one row whose cost lane holds the run length;
the section header records how many logical events the rows stand for.

Lane transforms are numpy C loops, and numpy's int64 arithmetic
wraps, which is the wraparound above.  Encoding is per section
(``subtract``).  Decoding is split in two: :func:`split_section_payload`
checks one section's payload (zlib, lane tags, column lengths, trailing
bytes) and returns its lanes undecoded, so damage is still found
section by section; :func:`decode_group_lanes` then decodes a whole
read-ahead group of sections at once — per operand lane one
``frombuffer`` per distinct width, one ``cumsum`` over the group, and
one subtraction of each section's starting sum, which resets the delta
chain at every section as the encoder did.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from typing import Sequence, Tuple

import numpy as _np

__all__ = [
    "FLAG_ZLIB",
    "SECTION_HEADER",
    "SECTION_HEADER_V3",
    "SectionCodecError",
    "encode_section_payload",
    "split_section_payload",
    "decode_group_lanes",
]

#: v4 section header: ``u32 rows | u32 events | u8 flags | u32 calls |
#: u32 returns | u32 enc_size`` — ``events`` is the logical event count
#: of the rows (a run superop weighs its length), so the partition
#: planner balances events, not rows; ``calls``/``returns`` are the
#: opcode lane's OP_CALL/OP_RETURN counts, stored up front so the
#: planner can track call depth without decompressing any payload.
SECTION_HEADER = struct.Struct("<IIBIII")

#: v3 section header (read only): the v4 header without ``events``,
#: since every v3 row is one event
SECTION_HEADER_V3 = struct.Struct("<IBIII")

#: flags bit 0: the stored payload is zlib-compressed
FLAG_ZLIB = 0x01

#: lane tag: high nibble mode (0 = raw values, 1 = delta-chained),
#: low nibble the column item size in bytes (1, 2, 4 or 8)
_MODE_RAW = 0x00
_MODE_DELTA = 0x10

_WIDTH_BOUNDS = (
    (1, -(1 << 7), (1 << 7) - 1),
    (2, -(1 << 15), (1 << 15) - 1),
    (4, -(1 << 31), (1 << 31) - 1),
    (8, -(1 << 63), (1 << 63) - 1),
)


class SectionCodecError(ValueError):
    """A section payload does not decode (truncated column, bad lane
    tag, zlib damage).  CRC framing catches transport corruption first;
    this surfaces writer bugs and post-CRC impossibilities."""


def _width_for(lo: int, hi: int) -> int:
    for width, wmin, wmax in _WIDTH_BOUNDS:
        if lo >= wmin and hi <= wmax:
            return width
    raise SectionCodecError(f"value range [{lo}, {hi}] exceeds i64")


# -- lane encode -------------------------------------------------------------


def _encode_lane(values: array) -> bytes:
    """One operand lane -> ``tag byte + packed column``.

    ``values`` must be a non-empty ``array('q')`` (or a slice of one).
    """
    v = _np.frombuffer(values, dtype=_np.int64)
    n = len(v)
    with _np.errstate(over="ignore"):
        d = _np.empty(n, dtype=_np.int64)
        d[0] = v[0]
        _np.subtract(v[1:], v[:-1], out=d[1:])
    raw_w = _width_for(int(v.min()), int(v.max()))
    delta_w = _width_for(int(d.min()), int(d.max()))
    if delta_w <= raw_w:
        tag, col = _MODE_DELTA | delta_w, d
        width = delta_w
    else:
        tag, col = _MODE_RAW | raw_w, v
        width = raw_w
    dt = _np.dtype(f"<i{width}")
    packed = col.astype(dt, copy=False).tobytes()
    return bytes((tag,)) + packed


def encode_section_payload(
    ops: bytes,
    threads: array,
    args: array,
    costs: array,
    compress: bool = True,
) -> Tuple[int, bytes]:
    """Encode one section's four lanes; returns ``(flags, payload)``.

    ``ops`` is the raw opcode lane (``n`` bytes); the operand lanes are
    ``array('q')`` slices of equal length.  With ``compress`` the
    payload is zlib-deflated when that actually shrinks it (flag
    :data:`FLAG_ZLIB` reports which form was stored).
    """
    n = len(ops)
    if not (len(threads) == len(args) == len(costs) == n):
        raise SectionCodecError("lane length mismatch")
    if n == 0:
        raise SectionCodecError("empty section")
    payload = b"".join(
        (ops, _encode_lane(threads), _encode_lane(args), _encode_lane(costs))
    )
    flags = 0
    if compress:
        squeezed = zlib.compress(payload, 1)
        if len(squeezed) < len(payload):
            return flags | FLAG_ZLIB, squeezed
    return flags, payload


# -- lane decode -------------------------------------------------------------


#: lane width in bytes -> its little-endian integer dtype
_LANE_DTYPES = {w: _np.dtype(f"<i{w}") for w in (1, 2, 4, 8)}

#: every valid lane tag -> its ``(mode, width)``
_LANE_TAGS = {
    mode | width: (mode, width)
    for mode in (_MODE_RAW, _MODE_DELTA)
    for width in _LANE_DTYPES
}

#: one operand lane of one section, split but not decoded: ``(mode,
#: width, column)`` with ``column`` the packed bytes (a memoryview)
Lane = Tuple[int, int, memoryview]


def split_section_payload(
    payload, n: int, flags: int
) -> Tuple[memoryview, Tuple[Lane, Lane, Lane]]:
    """Validate one v3/v4 section payload and split it into its lanes
    without decoding them: returns ``(ops, (threads, args, costs))``,
    the ``n``-byte opcode lane and the three operand lanes as
    :data:`Lane` triples, ready for :func:`decode_group_lanes`.

    ``payload`` is the stored (possibly compressed) bytes; ``n`` the
    row count from the section header.  Raises
    :class:`SectionCodecError` on any malformation — zlib damage, a bad
    lane tag, a truncated column, trailing bytes — so a caller can
    locate damage at this section before decoding any lane; callers
    translate it into their own integrity-error type with byte offsets.
    """
    if flags & FLAG_ZLIB:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise SectionCodecError(f"zlib damage: {exc}") from exc
    view = memoryview(payload)
    size = len(view)
    # The common case first: three valid tags whose columns end at the
    # payload's end.  Anything else takes the checked walk below, which
    # names the damage.
    try:
        mode0, width0 = _LANE_TAGS[view[n]]
        lo1 = n + 1 + n * width0
        mode1, width1 = _LANE_TAGS[view[lo1]]
        lo2 = lo1 + 1 + n * width1
        mode2, width2 = _LANE_TAGS[view[lo2]]
        if lo2 + 1 + n * width2 == size:
            return view[:n], (
                (mode0, width0, view[n + 1 : lo1]),
                (mode1, width1, view[lo1 + 1 : lo2]),
                (mode2, width2, view[lo2 + 1 :]),
            )
    except (KeyError, IndexError):
        pass
    if size < n:
        raise SectionCodecError("opcode lane truncated")
    pos = n
    lanes = []
    for lane_name in ("threads", "args", "costs"):
        if pos >= size:
            raise SectionCodecError(f"{lane_name} lane tag missing")
        tag = view[pos]
        lane = _LANE_TAGS.get(tag)
        if lane is None:
            raise SectionCodecError(f"bad {lane_name} lane tag 0x{tag:02x}")
        mode, width = lane
        pos += 1
        end = pos + n * width
        if end > size:
            raise SectionCodecError(f"{lane_name} lane truncated")
        lanes.append((mode, width, view[pos:end]))
        pos = end
    if pos != size:
        raise SectionCodecError("trailing bytes after cost lane")
    return view[:n], tuple(lanes)


def decode_group_lanes(
    sections: Sequence[Tuple[Lane, Lane, Lane]], rows: Sequence[int]
) -> Tuple[array, array, array]:
    """Decode the operand lanes of a group of consecutive sections into
    three ``array('q')`` lanes (threads, args, costs) over all their
    rows, in order.

    ``sections`` holds each section's three :data:`Lane` triples (from
    :func:`split_section_payload`, or raw width-8 lanes for v2) and
    ``rows`` each section's row count.  Per lane, the group's columns
    are read with one ``frombuffer`` per distinct width and summed with
    one running sum; each delta section then drops the running sum
    before its first row, so its chain still starts from 0.  int64
    arithmetic wraps, which is exactly the encoder's wraparound.  A
    one-section group takes the short path: no join, base or repeat.
    The numpy calls per group do not grow with its sections, and they
    are the cheap entry points (``np.add.accumulate``, ``take``, the
    ``repeat`` method): on a group of a few hundred rows their per-call
    overhead is the whole cost.
    """
    single = len(rows) == 1
    if not single:
        counts = _np.array(rows)
        tail = counts[1:]
        # the last row of every section but the group's last
        last_rows = _np.add.accumulate(counts[:-1]) - 1
    lanes = []
    for modes, widths, columns in (zip(*lane) for lane in zip(*sections)):
        width = widths[0]
        if widths.count(width) == len(widths):
            col = _np.frombuffer(
                columns[0] if single else b"".join(columns),
                dtype=_LANE_DTYPES[width],
            )
        else:
            col = _np.empty(sum(rows), dtype=_np.int64)
            row_widths = _np.array(widths, dtype=_np.int8).repeat(counts)
            for width in set(widths):
                col[row_widths == width] = _np.frombuffer(
                    b"".join(
                        [c for c, w in zip(columns, widths) if w == width]
                    ),
                    dtype=_LANE_DTYPES[width],
                )
        deltas = modes.count(_MODE_DELTA)
        if deltas:
            sums = _np.add.accumulate(col, dtype=_np.int64)
            if not single:
                sums[rows[0] :] -= sums.take(last_rows).repeat(tail)
            if deltas < len(modes):
                is_delta = _np.array(modes, dtype=_np.int8) == _MODE_DELTA
                sums = _np.where(is_delta.repeat(counts), sums, col)
            col = sums
        elif col.dtype != _np.int64:
            col = col.astype(_np.int64)
        lanes.append(array("q", col.tobytes()))
    return tuple(lanes)
