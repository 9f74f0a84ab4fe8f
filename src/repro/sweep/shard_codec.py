"""Data-only codec for the profiler shards of the sweep store.

A stored shard is plain data — profiles, read counters, counters,
cold-read logs and boundary summaries — so it is stored as data, not
as a pickle: decoding one never runs code named by the file.  A file
is a versioned envelope around zlib-compressed JSON::

    b"RPSD" | u32 crc32(rest) | u16 version | u8 len(kind) | kind | zlib(JSON)

The CRC covers everything after it, so a torn or overwritten file is
*corrupt* before its version is even read, and a version mismatch is
reported only for an intact file (*stale*).

The JSON is a tagged tree.  Ints, floats, strings, booleans, ``None``
and lists stand for themselves (a list is a JSON array); every other
value is a tagged JSON object:

* ``{"T": [item, ...]}`` — a tuple;
* ``{"D": [key, value, ...]}`` — a dict, keys of any encodable
  hashable type (the profiles are keyed by ``(routine, thread)`` tuples
  and input sizes);
* ``{"M": [default, top_bits, mid_bits, leaf_bits]}`` — a shadow
  memory.  Shards hold them empty (``begin_trace()`` clears them), so
  a memory is stored as its geometry and encoding refuses a non-empty
  one;
* ``{"#": name, field: value, ...}`` — an instance of one of the
  allow-listed classes (:data:`SHARD_CLASSES`), rebuilt from its
  ``__dict__`` as stored, so a field a class has since retired still
  rides along.

Arrays are built by the C JSON scanner; only objects pass through
Python (``object_hook``), inner ones first.

Encoding raises ``TypeError`` on any other type; decoding raises
:class:`ShardFormatError` on a bad envelope, damaged zlib or JSON, an
unknown tag or a class name outside the allow list.
"""

from __future__ import annotations

import importlib
import json
import struct
import zlib
from typing import Any, Dict, Optional, Tuple

from repro.core.shadow import ShadowMemory

__all__ = [
    "SHARD_CLASSES",
    "SHARD_MAGIC",
    "ShardFormatError",
    "decode_body",
    "encode_shard",
    "read_envelope",
]

SHARD_MAGIC = b"RPSD"
#: magic, then the CRC-32 of every byte after it
_PREFIX = struct.Struct("<4sI")
#: version, kind length
_HEADER = struct.Struct("<HB")

#: the classes a shard may hold: name -> defining module.  A class is
#: imported only when a shard being decoded names it (encoding finds
#: its module already loaded), so the store pulls in no profiler or
#: partition module a process does not otherwise use.
SHARD_CLASSES = {
    "DrmsProfiler": "repro.core.timestamping",
    "RmsProfiler": "repro.core.rms",
    "InputPolicy": "repro.core.policy",
    "ProfileSet": "repro.core.profiles",
    "RoutineProfile": "repro.core.profiles",
    "PointStats": "repro.core.profiles",
    "PartitionShard": "repro.tools.partition",
}

#: widest level a stored shadow memory may declare: the leaf template
#: and middle tables are allocated at ``1 << bits`` entries on load
_MAX_LEVEL_BITS = 16


class ShardFormatError(ValueError):
    """A shard file that is not an intact, decodable shard."""


_resolved: Dict[str, type] = {}


def _shard_class(name: str) -> Optional[type]:
    """The allow-listed class called ``name``, or ``None``."""
    cls = _resolved.get(name)
    if cls is None:
        module = SHARD_CLASSES.get(name)
        if module is None:
            return None
        cls = _resolved[name] = getattr(importlib.import_module(module), name)
    return cls


def _geometry_ok(default, top_bits, mid_bits, leaf_bits) -> bool:
    return type(default) is int and all(
        type(bits) is int and 1 <= bits <= _MAX_LEVEL_BITS
        for bits in (top_bits, mid_bits, leaf_bits)
    )


def _encode(obj: Any) -> Any:
    kind = type(obj)
    if kind is int or kind is str or kind is float or kind is bool or obj is None:
        return obj
    if kind is list:
        return [_encode(item) for item in obj]
    if kind is tuple:
        return {"T": [_encode(item) for item in obj]}
    if kind is dict:
        items = []
        for key, value in obj.items():
            items.append(_encode(key))
            items.append(_encode(value))
        return {"D": items}
    if kind is ShadowMemory:
        geometry = [obj.default, obj._top_bits, obj._mid_bits, obj._leaf_bits]
        if obj.chunks_allocated:
            raise ValueError(
                "a stored shard holds empty shadow memories (call "
                "begin_trace() first)"
            )
        if not _geometry_ok(*geometry):
            raise ValueError(f"shadow memory geometry {geometry} not storable")
        return {"M": geometry}
    name = kind.__name__
    if _shard_class(name) is not kind:
        raise TypeError(f"a shard cannot hold a {kind.__module__}.{kind.__qualname__}")
    out = {"#": name}
    for field, value in vars(obj).items():
        out[field] = _encode(value)
    return out


def _decode_object(node: dict) -> Any:
    """``object_hook``: one tagged JSON object to its value."""
    name = node.pop("#", None)
    if name is None:
        if len(node) != 1:
            raise ShardFormatError(f"untagged JSON object {node!r}")
        ((tag, items),) = node.items()
        if type(items) is not list:
            raise ShardFormatError(f"{tag!r} node without a list")
        if tag == "T":
            return tuple(items)
        if tag == "D":
            if len(items) & 1:
                raise ShardFormatError("dict node with a key and no value")
            pairs = iter(items)
            return dict(zip(pairs, pairs))
        if tag == "M" and len(items) == 4 and _geometry_ok(*items):
            return ShadowMemory(*items)
        raise ShardFormatError(f"bad {tag!r} node {items!r}")
    cls = _shard_class(name) if type(name) is str else None
    if cls is None:
        raise ShardFormatError(f"class {name!r} is not a shard class")
    obj = cls.__new__(cls)
    obj.__dict__.update(node)
    return obj


def encode_shard(kind: str, version: int, shard: Any) -> bytes:
    """The envelope bytes for ``shard`` stored as ``kind`` at
    ``version``.  Raises ``TypeError`` on a type outside the tree and
    ``ValueError`` on a non-empty shadow memory."""
    kind_bytes = kind.encode("utf-8")
    body = json.dumps(_encode(shard), separators=(",", ":")).encode("utf-8")
    rest = (
        _HEADER.pack(version, len(kind_bytes))
        + kind_bytes
        + zlib.compress(body, 9)
    )
    return _PREFIX.pack(SHARD_MAGIC, zlib.crc32(rest)) + rest


def read_envelope(data: bytes) -> Tuple[int, str, bytes]:
    """``(version, kind, body)`` of an envelope whose CRC checks out;
    :class:`ShardFormatError` otherwise."""
    fixed = _PREFIX.size + _HEADER.size
    if len(data) < fixed:
        raise ShardFormatError("shard shorter than its envelope")
    magic, crc = _PREFIX.unpack_from(data)
    if magic != SHARD_MAGIC:
        raise ShardFormatError("not a shard envelope")
    if zlib.crc32(memoryview(data)[_PREFIX.size :]) != crc:
        raise ShardFormatError("shard CRC mismatch")
    version, kind_len = _HEADER.unpack_from(data, _PREFIX.size)
    try:
        kind = data[fixed : fixed + kind_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ShardFormatError("shard kind is not UTF-8") from exc
    return version, kind, data[fixed + kind_len :]


def decode_body(body: bytes) -> Any:
    """The shard an envelope's body encodes.  Never unpickles, and
    imports only the modules :data:`SHARD_CLASSES` lists;
    :class:`ShardFormatError` on any damage."""
    try:
        inflater = zlib.decompressobj()
        text = inflater.decompress(body)
        if not inflater.eof or inflater.unused_data:
            raise ShardFormatError("truncated or padded zlib stream")
        return json.loads(text, object_hook=_decode_object)
    except ShardFormatError:
        raise
    except (zlib.error, ValueError, TypeError, RecursionError) as exc:
        raise ShardFormatError(f"undecodable shard body: {exc}") from exc
