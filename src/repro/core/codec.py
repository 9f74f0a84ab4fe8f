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

Lane transforms are numpy ``subtract``/``cumsum``/``astype`` C loops;
numpy's int64 arithmetic wraps, which is the wraparound above.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from typing import List, Tuple

import numpy as _np

__all__ = [
    "FLAG_ZLIB",
    "SECTION_HEADER",
    "SECTION_HEADER_V3",
    "SectionCodecError",
    "encode_section_payload",
    "decode_section_payload",
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


def _decode_lane(buf, n: int, mode: int, width: int) -> array:
    col = _np.frombuffer(buf, dtype=_LANE_DTYPES[width], count=n)
    # Both branches yield *native* int64, so the bytes below read
    # correctly on any host endianness (free on little-endian + i64).
    # Integer cumsum wraps silently, as the encoder's deltas did.
    if mode == _MODE_DELTA:
        col = col.cumsum(dtype=_np.int64)
    else:
        col = col.astype(_np.int64, copy=False)
    return array("q", col.tobytes())


def decode_section_payload(
    payload, n: int, flags: int
) -> Tuple[array, array, array, array]:
    """Decode one v3/v4 section payload back into the four lane arrays
    ``(ops 'b', threads 'q', args 'q', costs 'q')``.

    ``payload`` is the stored (possibly compressed) bytes; ``n`` the
    row count from the section header.  Raises
    :class:`SectionCodecError` on any malformation — callers translate
    into their own integrity-error type with byte offsets.
    """
    if flags & FLAG_ZLIB:
        try:
            payload = zlib.decompress(bytes(payload))
        except zlib.error as exc:
            raise SectionCodecError(f"zlib damage: {exc}") from exc
    view = memoryview(payload) if not isinstance(payload, memoryview) else payload
    if len(view) < n:
        raise SectionCodecError("opcode lane truncated")
    ops = array("b")
    ops.frombytes(bytes(view[:n]))
    pos = n
    lanes: List[array] = []
    for lane_name in ("threads", "args", "costs"):
        if len(view) - pos < 1:
            raise SectionCodecError(f"{lane_name} lane tag missing")
        tag = view[pos]
        pos += 1
        mode = tag & 0xF0
        width = tag & 0x0F
        if mode not in (_MODE_RAW, _MODE_DELTA) or width not in (1, 2, 4, 8):
            raise SectionCodecError(f"bad {lane_name} lane tag 0x{tag:02x}")
        size = n * width
        if len(view) - pos < size:
            raise SectionCodecError(f"{lane_name} lane truncated")
        buf = view[pos : pos + size]
        lanes.append(_decode_lane(buf, n, mode, width))
        pos += size
    if pos != len(view):
        raise SectionCodecError("trailing bytes after cost lane")
    return ops, lanes[0], lanes[1], lanes[2]
