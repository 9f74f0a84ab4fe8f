"""Unit and property tests for the three-level shadow memory."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shadow import ShadowMemory
from tests.strategies import dumps_pre_index


class TestBasics:
    def test_default_reads_back_for_untouched_addresses(self):
        mem = ShadowMemory()
        assert mem[0] == 0
        assert mem[123456789] == 0

    def test_custom_default(self):
        mem = ShadowMemory(default=-1)
        assert mem[42] == -1
        mem[42] = 7
        assert mem[42] == 7

    def test_set_and_get_roundtrip(self):
        mem = ShadowMemory()
        mem[100] = 5
        mem[101] = 6
        assert mem[100] == 5
        assert mem[101] == 6
        assert mem[102] == 0

    def test_overwrite(self):
        mem = ShadowMemory()
        mem[7] = 1
        mem[7] = 2
        assert mem[7] == 2

    def test_negative_address_rejected(self):
        mem = ShadowMemory()
        with pytest.raises(ValueError, match="negative"):
            mem[-1] = 3
        with pytest.raises(ValueError, match="negative"):
            mem[-5]

    def test_huge_addresses_supported(self):
        mem = ShadowMemory()
        mem[2**48 + 17] = 9
        assert mem[2**48 + 17] == 9
        assert mem[2**48 + 18] == 0

    def test_invalid_level_widths(self):
        with pytest.raises(ValueError):
            ShadowMemory(leaf_bits=0)
        with pytest.raises(ValueError):
            ShadowMemory(mid_bits=0)

    def test_get_with_fallback_default(self):
        mem = ShadowMemory()
        assert mem.get(5, default=99) == 99
        mem[5] = 3
        assert mem.get(5, default=99) == 3

    def test_get_distinguishes_stored_default_from_never_written(self):
        # An allocated cell whose stored value happens to equal the
        # fallback (or the memory-wide default) must return the stored
        # value, not the fallback.
        mem = ShadowMemory()
        mem[5] = 0  # allocates the leaf; stores the default value
        assert mem.get(5, default=99) == 0
        # a different cell in the same (now allocated) leaf also reads
        # its stored value, not the fallback
        assert mem.get(6, default=99) == 0
        # a cell in a never-allocated leaf still falls back
        assert mem.get(5_000_000, default=99) == 99


class TestChunking:
    def test_chunk_allocation_is_lazy(self):
        mem = ShadowMemory(leaf_bits=4)
        assert mem.chunks_allocated == 0
        mem[0] = 1
        assert mem.chunks_allocated == 1
        mem[15] = 1  # same 16-cell chunk
        assert mem.chunks_allocated == 1
        mem[16] = 1  # next chunk
        assert mem.chunks_allocated == 2

    def test_space_cells_counts_whole_chunks(self):
        mem = ShadowMemory(leaf_bits=4)
        mem[3] = 1
        assert mem.space_cells() == 16

    def test_reading_does_not_allocate(self):
        mem = ShadowMemory()
        for addr in range(0, 10_000, 97):
            assert mem[addr] == 0
        assert mem.chunks_allocated == 0

    def test_clear(self):
        mem = ShadowMemory()
        mem[10] = 4
        mem.clear()
        assert mem[10] == 0
        assert mem.chunks_allocated == 0


class TestBulk:
    def test_items_yields_sorted_nondefault_cells(self):
        mem = ShadowMemory(leaf_bits=3, mid_bits=3)
        values = {500: 2, 3: 1, 70_000: 9, 8: 5}
        for addr, value in values.items():
            mem[addr] = value
        assert list(mem.items()) == sorted(values.items())

    def test_items_skips_default_values(self):
        mem = ShadowMemory()
        mem[5] = 3
        mem[5] = 0  # back to default
        assert list(mem.items()) == []

    def test_map_values(self):
        mem = ShadowMemory()
        mem[1] = 10
        mem[2] = 20
        mem.map_values(lambda v: v + 1)
        assert mem[1] == 11
        assert mem[2] == 21
        assert mem[3] == 0  # untouched cells keep the default


@st.composite
def operations(draw):
    n = draw(st.integers(0, 200))
    ops = []
    for _ in range(n):
        addr = draw(st.integers(0, 5000))
        value = draw(st.integers(0, 1000))
        ops.append((addr, value))
    return ops


class TestDictEquivalence:
    @given(operations())
    @settings(max_examples=100, deadline=None)
    def test_behaves_like_a_defaulting_dict(self, ops):
        mem = ShadowMemory(leaf_bits=3, mid_bits=4)
        model = {}
        for addr, value in ops:
            mem[addr] = value
            model[addr] = value
        for addr in {a for a, _ in ops} | {0, 1, 4999, 5000}:
            assert mem[addr] == model.get(addr, 0)

    @given(operations())
    @settings(max_examples=50, deadline=None)
    def test_items_matches_model(self, ops):
        mem = ShadowMemory(leaf_bits=3, mid_bits=4)
        model = {}
        for addr, value in ops:
            mem[addr] = value
            model[addr] = value
        expected = sorted((a, v) for a, v in model.items() if v != 0)
        assert list(mem.items()) == expected

    @given(operations(), st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=50, deadline=None)
    def test_level_geometry_is_observationally_irrelevant(
        self, ops, leaf_bits, mid_bits
    ):
        narrow = ShadowMemory(leaf_bits=leaf_bits, mid_bits=mid_bits)
        wide = ShadowMemory(leaf_bits=9, mid_bits=9)
        for addr, value in ops:
            narrow[addr] = value
            wide[addr] = value
        assert list(narrow.items()) == list(wide.items())


class TestFastPath:
    def test_leaf_geometry_properties(self):
        mem = ShadowMemory(leaf_bits=4)
        assert mem.leaf_bits == 4
        assert mem.leaf_mask == 15

    def test_leaf_create_materialises_and_returns_chunk(self):
        mem = ShadowMemory(leaf_bits=4)
        chunk = mem.leaf_create(37)
        assert mem.chunks_allocated == 1
        assert len(chunk) == 16
        chunk[37 & 15] = 8  # direct chunk write is visible via getitem
        assert mem[37] == 8
        assert mem.leaf_create(37) is chunk  # idempotent

    def test_leaf_peek_never_allocates(self):
        mem = ShadowMemory(leaf_bits=4)
        assert mem.leaf_peek(37) is None
        assert mem.chunks_allocated == 0
        mem[37] = 5
        chunk = mem.leaf_peek(37)
        assert chunk is not None
        assert chunk[37 & 15] == 5
        assert mem.chunks_allocated == 1

    def test_get_set_returns_old_value(self):
        mem = ShadowMemory()
        assert mem.get_set(10, 3) == 0
        assert mem.get_set(10, 7) == 3
        assert mem[10] == 7

    def test_clear_resets_leaf_cache(self):
        mem = ShadowMemory()
        mem[5] = 3
        assert mem[5] == 3  # populates the cache
        mem.clear()
        assert mem[5] == 0  # stale cached chunk must not be consulted
        assert mem.chunks_allocated == 0

    @given(operations())
    @settings(max_examples=100, deadline=None)
    def test_mixed_fast_and_slow_ops_match_dict(self, ops):
        """Interleaving the fast-path entry points with plain item access
        must stay observationally equivalent to a defaulting dict — in
        particular the last-leaf cache can never serve stale values."""
        mem = ShadowMemory(leaf_bits=3, mid_bits=4)
        model = {}
        for i, (addr, value) in enumerate(ops):
            kind = i % 4
            if kind == 0:
                mem[addr] = value
                model[addr] = value
            elif kind == 1:
                assert mem.get_set(addr, value) == model.get(addr, 0)
                model[addr] = value
            elif kind == 2:
                chunk = mem.leaf_peek(addr)
                got = chunk[addr & mem.leaf_mask] if chunk else 0
                assert got == model.get(addr, 0)
            else:
                assert mem[addr] == model.get(addr, 0)
        for addr in {a for a, _ in ops}:
            assert mem[addr] == model.get(addr, 0)


# -- leaf index and pickling --------------------------------------------------

_ADDRS = st.integers(0, 3000)
_STEPS = st.one_of(
    st.tuples(st.just("set"), _ADDRS, st.integers(0, 1000)),
    st.tuples(st.just("chunk"), _ADDRS, st.integers(0, 1000)),
    st.tuples(st.just("map")),
    st.tuples(st.just("clear")),
    st.tuples(st.just("pickle")),
    st.tuples(st.just("pickle_pre_index")),
)


class TestLeafIndexAndPickle:
    @given(st.lists(_STEPS, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_index_matches_a_dict_model_through_bulk_ops_and_pickles(
        self, steps
    ):
        """Item writes, kernel-style writes through ``leaf_create``
        chunks, ``map_values``, ``clear`` and pickle round trips (the
        lean layout and the pre-index ``__dict__`` one) keep ``items()``
        equal to a dict model in address order and ``chunks_allocated``
        equal to the number of distinct leaves written."""
        # mid_bits=2: four-slot middle tables, so leaves spread over
        # several top-level tables
        mem = ShadowMemory(leaf_bits=3, mid_bits=2)
        model, leaves = {}, set()
        for step in steps:
            kind = step[0]
            if kind == "set":
                _, addr, value = step
                mem[addr] = value
            elif kind == "chunk":
                _, addr, value = step
                mem.leaf_create(addr)[addr & mem.leaf_mask] = value
            elif kind == "map":
                mem.map_values(lambda v: 2 * v + 1)
                model = {a: 2 * v + 1 if v else 0 for a, v in model.items()}
            elif kind == "clear":
                mem.clear()
                model, leaves = {}, set()
            elif kind == "pickle":
                mem = pickle.loads(pickle.dumps(mem))
            else:
                mem = pickle.loads(dumps_pre_index(mem))
            if kind in ("set", "chunk"):
                model[addr] = value
                leaves.add(addr >> mem.leaf_bits)
            assert list(mem.items()) == sorted(
                (a, v) for a, v in model.items() if v
            )
            assert mem.chunks_allocated == len(leaves)
            assert [base >> mem.leaf_bits for base, _ in mem.leaves()] == (
                sorted(leaves)
            )
        # the middle tables and the index hold the same leaves
        for addr, value in model.items():
            assert mem[addr] == value
            assert mem.leaf_peek(addr) is mem.leaf_create(addr)
        assert mem.chunks_allocated == len(leaves)

    @pytest.mark.parametrize("layout", ["lean", "pre_index"])
    def test_round_trip_keeps_geometry_default_and_leaves(self, layout):
        mem = ShadowMemory(default=-1, top_bits=5, mid_bits=3, leaf_bits=4)
        for addr in (0, 17, 1000, 2**30 + 5):
            mem[addr] = addr + 1
        dumps = pickle.dumps if layout == "lean" else dumps_pre_index
        back = pickle.loads(dumps(mem))
        assert back.default == -1
        assert (back.leaf_bits, back.leaf_mask) == (4, 15)
        assert list(back.items()) == list(mem.items())
        assert back.chunks_allocated == mem.chunks_allocated == 4
        assert back[18] == -1  # an allocated leaf's unwritten cell
        assert back[5000] == -1  # a never-allocated leaf
        back[18] = 3  # writes land in the restored leaf
        assert back.chunks_allocated == 4
        assert (18, 3) in list(back.items())

    def test_pickled_leaves_are_little_endian_int64(self):
        mem = ShadowMemory(leaf_bits=1)
        mem[7] = -2
        *_geometry, tags, cells = mem.__getstate__()
        assert tags == (3).to_bytes(8, "little")
        assert cells == (0).to_bytes(8, "little") + (-2).to_bytes(
            8, "little", signed=True
        )

    def test_empty_memory_pickles_to_less_than_one_leaf(self):
        leaf_bytes = 64 * 8  # one default 64-cell leaf
        mem = ShadowMemory()
        assert len(pickle.dumps(mem, pickle.HIGHEST_PROTOCOL)) < leaf_bytes
        mem[5] = 1
        assert len(pickle.dumps(mem, pickle.HIGHEST_PROTOCOL)) > leaf_bytes
        mem.clear()
        assert len(pickle.dumps(mem, pickle.HIGHEST_PROTOCOL)) < leaf_bytes

    def test_map_values_skips_cells_holding_the_default(self):
        mem = ShadowMemory(default=7)
        mem[1] = 3
        seen = []
        mem.map_values(lambda v: seen.append(v) or v * 10)
        assert seen == [3]
        assert mem[1] == 30 and mem[2] == 7
