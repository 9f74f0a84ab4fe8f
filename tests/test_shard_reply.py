"""The lean shard reply: compact pickles, and no boundary summaries from
the last partition.

A pooled partition round pickles each partition's shards back to the
parent.  ``ProfileSet`` pickles as tuples of plain values and an empty
``ShadowMemory`` as a constructor call on its geometry; pickles of the
earlier ``__dict__`` layouts must still load.  The last partition of a
plan ships empty ``last_write``/``last_access`` summaries (no later
partition reads them), and the fold ignores any a stored last shard
still carries.
"""

import copyreg
import io
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    FULL_POLICY,
    RMS_POLICY,
    DrmsProfiler,
    NaiveDrmsProfiler,
    RmsProfiler,
)
from repro.core.events import Call, Read, Return, Write, encode_events
from repro.core.profiles import ProfileSet
from repro.core.shadow import ShadowMemory
from repro.core.tracefile import plan_partitions
from repro.tools.partition import (
    merge_partition_shards,
    replay_partition,
    replay_partitioned,
)
from tests.strategies import (
    concat_runs,
    dumps_pre_index,
    monolithic,
    profile_state,
    random_trace,
    read_counts,
    serial_profilers,
)


class _DictLayoutPickler(pickle.Pickler):
    """Pickles the way the code did before the compact forms: a
    ``ProfileSet`` as its instance ``__dict__`` and a shadow memory as
    its ``__getstate__`` tuple, however empty."""

    def reducer_override(self, obj):
        if type(obj) is ProfileSet:
            return copyreg.__newobj__, (ProfileSet,), dict(vars(obj))
        if type(obj) is ShadowMemory:
            return copyreg.__newobj__, (ShadowMemory,), obj.__getstate__()
        return NotImplemented


def dumps_dict_layout(obj):
    buf = io.BytesIO()
    _DictLayoutPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


LAYOUTS = {
    "compact": lambda obj: pickle.dumps(obj, pickle.HIGHEST_PROTOCOL),
    "dict": dumps_dict_layout,
    "pre_index": dumps_pre_index,
}


def full_state(profiles):
    """Everything a ProfileSet holds, insertion order included."""
    return (
        [
            (key, p.routine, p.calls, p.total_input, list(p.points.items()))
            for key, p in profiles
        ],
        profiles.activations,
        profiles.keep_activations,
    )


_points = st.lists(
    st.tuples(
        st.sampled_from(["f", "g", "h.i", ""]),
        st.integers(0, 3),
        st.integers(0, 2**40),
        st.integers(-(2**62), 2**62),
    ),
    max_size=40,
)


# -- compact pickles ----------------------------------------------------------


@given(_points, st.booleans(), st.sampled_from(sorted(LAYOUTS)))
@settings(max_examples=150, deadline=None)
def test_profile_set_round_trips_through_every_layout(points, keep, layout):
    profiles = ProfileSet()
    profiles.keep_activations = keep
    for routine, thread, size, cost in points:
        profiles.collect(routine, thread, size, cost)
    back = pickle.loads(LAYOUTS[layout](profiles))
    assert type(back) is ProfileSet
    assert full_state(back) == full_state(profiles)
    # the loaded set is a live collector, sharing nothing with the source
    back.collect("f", 0, 1, 5)
    profiles.collect("f", 0, 1, 5)
    assert full_state(back) == full_state(profiles)
    other = pickle.loads(LAYOUTS[layout](profiles))
    other.merge_from(back)
    assert full_state(back) == full_state(profiles)


def test_compact_profile_set_pickles_no_dataclass():
    profiles = ProfileSet()
    for size in range(5):
        profiles.collect("f", 1, size, 3 * size)
    blob = pickle.dumps(profiles, pickle.HIGHEST_PROTOCOL)
    assert b"PointStats" not in blob and b"RoutineProfile" not in blob
    assert len(blob) < len(dumps_dict_layout(profiles)) / 2


_cells = st.dictionaries(st.integers(0, 5000), st.integers(-5, 2**40), max_size=30)


@given(
    _cells,
    st.integers(-3, 3),
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from(sorted(LAYOUTS)),
)
@settings(max_examples=150, deadline=None)
def test_shadow_memory_round_trips_empty_or_not(cells, default, mid, leaf, layout):
    mem = ShadowMemory(default=default, top_bits=6, mid_bits=mid, leaf_bits=leaf)
    for addr, value in cells.items():
        mem[addr] = value
    back = pickle.loads(LAYOUTS[layout](mem))
    assert (back.default, back.leaf_bits, back._mid_bits, back._top_bits) == (
        default, leaf, mid, 6,
    )
    assert list(back.items()) == list(mem.items())
    assert back.chunks_allocated == mem.chunks_allocated
    for addr, value in cells.items():
        assert back[addr] == value
    back[7] = 11  # writes land, allocating as the source would
    assert back[7] == 11


def test_empty_shadow_memory_pickles_as_its_geometry():
    mem = ShadowMemory(default=-1, top_bits=5, mid_bits=3, leaf_bits=4)
    assert mem.__reduce_ex__(pickle.HIGHEST_PROTOCOL) == (
        ShadowMemory, (-1, 5, 3, 4),
    )
    mem[3] = 1
    assert mem.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[0] is copyreg.__newobj__
    mem.clear()
    assert mem.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[0] is ShadowMemory


@given(
    st.lists(random_trace(max_threads=3, max_ops=80), min_size=2, max_size=2),
    st.sampled_from(sorted(LAYOUTS)),
)
@settings(max_examples=60, deadline=None)
def test_profilers_after_begin_trace_round_trip_and_keep_profiling(traces, layout):
    first, second = traces
    for make in (
        lambda: DrmsProfiler(policy=FULL_POLICY, counter_limit=64),
        lambda: RmsProfiler(),
    ):
        prof = make()
        prof.run(first)
        prof.begin_trace()
        back = pickle.loads(LAYOUTS[layout](prof))
        assert type(back) is type(prof)
        assert sorted(vars(back)) == sorted(vars(prof))
        assert back.metrics_snapshot() == prof.metrics_snapshot()
        assert full_state(back.profiles) == full_state(prof.profiles)
        # both continue with the next trace alike
        for p in (prof, back):
            p.run(second)
        assert back.metrics_snapshot() == prof.metrics_snapshot()
        assert full_state(back.profiles) == full_state(prof.profiles)
        assert back.count == prof.count


# -- the last partition ships no summaries ------------------------------------


def oracle_state(events):
    drms = NaiveDrmsProfiler(policy=FULL_POLICY)
    drms.run(events)
    rms = NaiveDrmsProfiler(policy=RMS_POLICY)
    rms.run(events)
    return profile_state(drms.profiles), read_counts(drms), profile_state(rms.profiles)


def check_lean_last_shard(events, bounds, partitions, section_events):
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=section_events, boundaries=bounds)
    plan = plan_partitions(payload, partitions)
    assume(len(plan.partitions) >= 2)
    rep = replay_partitioned(payload, plan=plan, kinds=("drms", "rms"), workers=1)
    last = len(plan.partitions) - 1
    for row in rep.shards:
        for shard in row:
            if shard.index == last:
                assert shard.last_write == {} and shard.last_access == {}
    drms, rms = rep.profilers["drms"], rep.profilers["rms"]
    serial_drms, serial_rms = serial_profilers(batch)
    assert drms.metrics_snapshot() == serial_drms.metrics_snapshot()
    assert rms.metrics_snapshot() == serial_rms.metrics_snapshot()
    got = (profile_state(drms.profiles), read_counts(drms), profile_state(rms.profiles))
    assert got == oracle_state(events)
    return plan


@given(
    st.lists(random_trace(max_threads=3, max_ops=60), min_size=4, max_size=4),
    st.integers(2, 4),
    st.sampled_from([4, 8, 16]),
)
@settings(max_examples=60, deadline=None)
def test_last_shard_of_a_depth_zero_plan_ships_no_summaries(runs, n, section):
    events, bounds = concat_runs(runs)
    plan = check_lean_last_shard(events, bounds, n, section)
    assume(plan.carried == 0)


@given(random_trace(max_threads=3, max_ops=120), st.integers(2, 4), st.sampled_from([4, 8]))
@settings(max_examples=60, deadline=None)
def test_last_shard_of_a_carried_plan_ships_no_summaries(raw, n, section):
    events = monolithic(raw)
    plan = check_lean_last_shard(events, [], n, section)
    assert plan.carried > 0


@pytest.mark.parametrize("carried", [False, True])
def test_fold_ignores_summaries_a_stored_last_shard_still_carries(carried):
    """A store written before the lean reply holds last shards with
    summaries; the fold must not read them (nothing after them can)."""
    runs = [_run(k) for k in range(3)]
    if carried:
        events, bounds = monolithic([e for run in runs for e in run]), []
    else:
        events, bounds = concat_runs(runs)
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=4, boundaries=bounds)
    plan = plan_partitions(payload, 3)
    assert len(plan.partitions) == 3 and (plan.carried > 0) == carried
    rows = [
        replay_partition(payload, part, ("drms", "rms"), 3, carry_aware=carried)
        for part in plan.partitions
    ]
    expected = merge_partition_shards(
        [[pickle.loads(pickle.dumps(s)) for s in row] for row in rows]
    )
    for shard in rows[-1]:
        # summaries that would reclassify every cold read, were they read
        shard.last_write = {addr: (2**40, 1) for addr in range(0, 0x400)}
        shard.last_access = {1: {addr: 2**40 for addr in range(0, 0x400)}}
    merged = merge_partition_shards(rows)
    for kind in ("drms", "rms"):
        assert merged[kind].metrics_snapshot() == expected[kind].metrics_snapshot()


def _run(k):
    return (
        [Call(1, f"r{k}")]
        + [Write(1, 0x40 + i) for i in range(3)]
        + [Read(1, 0x40 + i) for i in range(6)]
        + [Read(1, 0x100 + 8 * k + i) for i in range(5)]
        + [Return(1)]
    )
