"""Three-level lookup-table shadow memory.

Section 4.1 of the paper: *"To reduce space overhead in practice, we
maintain global and thread-specific shadow memories by means of
three-level lookup tables, so that only chunks related to memory cells
actually accessed by a thread need to be shadowed."*

Addresses are split into three fields (top / middle / offset); tables for
the top and middle levels are allocated lazily and leaf chunks are flat
``array('q')`` buffers — contiguous, unboxed 64-bit cells, so a leaf
costs exactly 8 bytes per cell instead of a pointer per boxed int, and
bulk consumers (the columnar kernel) can slice whole runs in C.  Unset
cells read back as a configurable default (``0`` — the "never accessed"
timestamp of the profiling algorithm).

Beside the three levels, a flat ``{tag: leaf}`` index (``tag = addr >>
leaf_bits``) lists the allocated leaves, so bulk passes — :meth:`items`,
:meth:`map_values`, the profilers' boundary summaries, pickling — cost
per allocated leaf, never per middle-table slot, and the columnar
kernels resolve a leaf with one probe of it.  A memory pickles as
its default, its geometry and its leaves' bytes; the middle tables,
the leaf template and the cache are rebuilt on load.  An empty one (a
profiler shard holds them so) pickles as a constructor call on its
default and geometry.

The class intentionally mirrors a ``dict`` with a default so the test
suite can check it against a plain dictionary with Hypothesis.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["ShadowMemory"]

#: pickled leaves are little-endian on every host
_BIG_ENDIAN = sys.byteorder == "big"


class ShadowMemory:
    """Sparse word-granularity shadow memory with three lookup levels.

    Parameters
    ----------
    default:
        Value returned for never-written addresses (timestamp ``0`` in the
        profiling algorithm).
    top_bits, mid_bits, leaf_bits:
        Width of the three address fields.  The real aprof shadows a
        64-bit address space with 16K-entry chunks; the defaults here
        (64-cell leaves, 1K-entry middle tables) scale the same layout
        down to the VM's compact address space so the chunking overhead
        stays proportionate.
    """

    def __init__(
        self,
        default: int = 0,
        top_bits: int = 14,
        mid_bits: int = 10,
        leaf_bits: int = 6,
    ) -> None:
        if min(top_bits, mid_bits, leaf_bits) < 1:
            raise ValueError("all level widths must be at least 1 bit")
        self._setup(default, top_bits, mid_bits, leaf_bits)

    def _setup(
        self, default: int, top_bits: int, mid_bits: int, leaf_bits: int
    ) -> None:
        self.default = default
        self._leaf_bits = leaf_bits
        self._mid_bits = mid_bits
        self._top_bits = top_bits
        self._leaf_size = 1 << leaf_bits
        self._mid_size = 1 << mid_bits
        self._leaf_mask = self._leaf_size - 1
        self._mid_mask = self._mid_size - 1
        # Top level is a dict so arbitrarily large addresses are accepted;
        # middle levels are lists of (possibly None) leaf chunks.
        self._top: Dict[int, List[Optional[array]]] = {}
        # Leaf index: ``{addr >> leaf_bits: chunk}`` for every allocated
        # leaf, the same chunk objects the middle tables hold.
        self._leaves: Dict[int, array] = {}
        # Template leaf: new chunks are C-level copies of this array
        # rather than per-cell Python fills.
        self._leaf_proto = array("q", [default]) * self._leaf_size
        # Last-leaf cache: most traces exhibit strong spatial locality, so
        # consecutive accesses usually land in the same leaf chunk.  The
        # tag is ``addr >> leaf_bits`` (negative addresses can never match
        # a cached tag, so the negative-address check stays on the slow
        # path only).
        self._cache_tag = -1
        self._cache_chunk: Optional[array] = None

    def _attach(self, tag: int, chunk: array) -> None:
        """File ``chunk`` as the leaf for ``tag`` in the middle tables and
        the index."""
        table = self._top.get(tag >> self._mid_bits)
        if table is None:
            table = [None] * self._mid_size
            self._top[tag >> self._mid_bits] = table
        table[tag & self._mid_mask] = chunk
        self._leaves[tag] = chunk

    # -- pickling ---------------------------------------------------------

    def __getstate__(self) -> tuple:
        """``(default, top_bits, mid_bits, leaf_bits, tags, cells)``:
        the allocated leaves' tags in address order and their cells
        concatenated, as little-endian int64 bytes.  An empty memory
        pickles to well under one 512-byte leaf."""
        tags = array("q", sorted(self._leaves))
        cells = array("q")
        for tag in tags:
            cells += self._leaves[tag]
        if _BIG_ENDIAN:
            tags.byteswap()
            cells.byteswap()
        return (
            self.default,
            self._top_bits,
            self._mid_bits,
            self._leaf_bits,
            tags.tobytes(),
            cells.tobytes(),
        )

    def __reduce_ex__(self, protocol):
        """An empty memory pickles as a constructor call on its geometry
        (a profiler shard holds its memories empty); any other takes the
        :meth:`__getstate__` layout."""
        if self._leaves:
            return super().__reduce_ex__(protocol)
        return ShadowMemory, (
            self.default,
            self._top_bits,
            self._mid_bits,
            self._leaf_bits,
        )

    def __setstate__(self, state) -> None:
        if isinstance(state, dict):
            # The layout pickled before the leaf index: the instance
            # ``__dict__`` with its middle tables.  Its leaves are
            # re-filed (index rebuilt) once, here.
            mid_bits = state["_mid_bits"]
            self._setup(
                state["default"], state["_top_bits"], mid_bits, state["_leaf_bits"]
            )
            for top, table in state["_top"].items():
                for mid, chunk in enumerate(table):
                    if chunk is not None:
                        self._attach((top << mid_bits) | mid, chunk)
            return
        default, top_bits, mid_bits, leaf_bits, tags, cells = state
        tags = array("q", tags)
        cells = array("q", cells)
        if _BIG_ENDIAN:
            tags.byteswap()
            cells.byteswap()
        self._setup(default, top_bits, mid_bits, leaf_bits)
        size = self._leaf_size
        for i, tag in enumerate(tags):
            self._attach(tag, cells[i * size : (i + 1) * size])

    # -- indexing -------------------------------------------------------

    def _split(self, addr: int) -> Tuple[int, int, int]:
        if addr < 0:
            raise ValueError(f"negative address: {addr}")
        off = addr & self._leaf_mask
        mid = (addr >> self._leaf_bits) & self._mid_mask
        top = addr >> (self._leaf_bits + self._mid_bits)
        return top, mid, off

    def __getitem__(self, addr: int) -> int:
        tag = addr >> self._leaf_bits
        if tag == self._cache_tag and self._cache_chunk is not None:
            return self._cache_chunk[addr & self._leaf_mask]
        top, mid, off = self._split(addr)
        table = self._top.get(top)
        if table is None:
            return self.default
        chunk = table[mid]
        if chunk is None:
            return self.default
        self._cache_tag = tag
        self._cache_chunk = chunk
        return chunk[off]

    def __setitem__(self, addr: int, value: int) -> None:
        tag = addr >> self._leaf_bits
        if tag == self._cache_tag and self._cache_chunk is not None:
            self._cache_chunk[addr & self._leaf_mask] = value
            return
        self.leaf_create(addr)[addr & self._leaf_mask] = value

    def get(self, addr: int, default: Optional[int] = None) -> int:
        """Value at ``addr``; ``default`` only when the cell was never
        *allocated* (an allocated cell returns its stored value even when
        that value happens to equal the memory-wide default)."""
        tag = addr >> self._leaf_bits
        if tag == self._cache_tag and self._cache_chunk is not None:
            return self._cache_chunk[addr & self._leaf_mask]
        top, mid, off = self._split(addr)
        table = self._top.get(top)
        chunk = table[mid] if table is not None else None
        if chunk is None:
            return self.default if default is None else default
        self._cache_tag = tag
        self._cache_chunk = chunk
        return chunk[off]

    # -- fast-path API ---------------------------------------------------
    #
    # The columnar kernel (repro.core.kernel) and the batch-consuming tools
    # keep their own (tag, chunk) pair in locals and only fall back to
    # these calls on a leaf miss, skipping the three-level walk for runs
    # of accesses with spatial locality.

    @property
    def leaf_bits(self) -> int:
        """Width of the offset field: ``addr >> leaf_bits`` is the leaf tag."""
        return self._leaf_bits

    @property
    def leaf_mask(self) -> int:
        """Mask selecting the in-leaf offset: ``addr & leaf_mask``."""
        return self._leaf_mask

    def leaf_create(self, addr: int) -> array:
        """The leaf chunk covering ``addr``, materialising it if absent."""
        top, mid, _off = self._split(addr)
        table = self._top.get(top)
        chunk = table[mid] if table is not None else None
        tag = addr >> self._leaf_bits
        if chunk is None:
            chunk = self._leaf_proto[:]
            self._attach(tag, chunk)
        self._cache_tag = tag
        self._cache_chunk = chunk
        return chunk

    def leaf_peek(self, addr: int) -> Optional[array]:
        """The leaf chunk covering ``addr`` or ``None`` — never allocates,
        so read-only consumers keep the allocation profile of plain
        ``__getitem__``."""
        top, mid, _off = self._split(addr)
        table = self._top.get(top)
        if table is None:
            return None
        chunk = table[mid]
        if chunk is not None:
            self._cache_tag = addr >> self._leaf_bits
            self._cache_chunk = chunk
        return chunk

    def get_set(self, addr: int, value: int) -> int:
        """Read the cell then overwrite it, in one walk (the profiler's
        read handler does exactly this: load the old timestamp, stamp the
        new one)."""
        tag = addr >> self._leaf_bits
        if tag == self._cache_tag and self._cache_chunk is not None:
            chunk = self._cache_chunk
        else:
            chunk = self.leaf_create(addr)
        off = addr & self._leaf_mask
        old = chunk[off]
        chunk[off] = value
        return old

    # -- bulk operations -------------------------------------------------

    def items(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(addr, value)`` for every shadowed cell holding a
        non-default value, in ascending address order."""
        default = self.default
        for base, chunk in self.leaves():
            for off, value in enumerate(chunk):
                if value != default:
                    yield base | off, value

    def leaves(self) -> List[Tuple[int, array]]:
        """``(base_addr, chunk)`` for every allocated leaf, in ascending
        address order; ``chunk[off]`` shadows ``base_addr | off``."""
        bits = self._leaf_bits
        leaves = self._leaves
        return [(tag << bits, leaves[tag]) for tag in sorted(leaves)]

    def map_values(self, fn) -> None:
        """Apply ``fn`` to every allocated cell in place, skipping cells
        that hold the default value (they keep it).

        Used by the timestamp renumbering pass (Section 3.2, *Counter
        Overflows*): all live timestamps are rewritten while preserving
        their relative order.  The rewrite mutates each leaf array in
        place — chunk object identity is preserved, so (tag, chunk)
        caches held by batch consumers stay valid across a renumber.
        """
        default = self.default
        for chunk in self._leaves.values():
            for off, value in enumerate(chunk):
                if value != default:
                    chunk[off] = fn(value)

    def clear(self) -> None:
        self._top.clear()
        self._leaves.clear()
        self._cache_tag = -1
        self._cache_chunk = None

    # -- accounting -------------------------------------------------------

    @property
    def chunks_allocated(self) -> int:
        """Number of leaf chunks materialised so far."""
        return len(self._leaves)

    def space_cells(self) -> int:
        """Total shadowed cells (allocated chunk cells), the paper's
        space-overhead driver for shadow memories."""
        return len(self._leaves) * self._leaf_size

    def space_bytes(self) -> int:
        """Shadowed cells priced at 8 bytes/cell — with ``array('q')``
        leaves this is the literal buffer footprint, not an estimate of
        boxed-int overhead.  Leaves are never freed short of
        :meth:`clear`, so the current figure is also the peak."""
        return len(self._leaves) * self._leaf_size * 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShadowMemory(chunks={len(self._leaves)}, "
            f"leaf_size={self._leaf_size})"
        )
