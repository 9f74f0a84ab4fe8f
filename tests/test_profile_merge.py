"""Shard-merge exactness: ``merge()`` of profiler shards equals the
single-pass profile.

The sweep engine profiles each matrix cell in its own process and
reduces the shards with ``DrmsProfiler.merge`` / ``RmsProfiler.merge``.
The contract (see the method docstrings) is *exactness* under
execution-boundary semantics: a single profiler that consumes the same
traces back to back with ``begin_trace()`` between them must produce
identical profiles, activation records and first/thread/kernel read
splits — including when tiny ``counter_limit`` values force timestamp
renumbering at different points in the two schedules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FULL_POLICY, RMS_POLICY, DrmsProfiler, RmsProfiler
from repro.core.events import Call, Read, Return, Write
from tests.strategies import random_trace

# several independent well-formed traces — the sweep's per-cell shards
trace_shards = st.lists(
    random_trace(max_threads=3, max_ops=90), min_size=1, max_size=4
)


def profile_state(profiles):
    """Canonical comparable form of a ProfileSet."""
    return {
        key: (
            profile.routine,
            profile.calls,
            profile.total_input,
            sorted(
                (size, s.calls, s.max_cost, s.min_cost, s.total_cost)
                for size, s in profile.points.items()
            ),
        )
        for key, profile in profiles
    }


def single_pass_drms(traces, **kwargs):
    profiler = DrmsProfiler(**kwargs)
    first = True
    for events in traces:
        if not first:
            profiler.begin_trace()
        profiler.run(events)
        first = False
    return profiler


def merged_drms(traces, **kwargs):
    shards = []
    for events in traces:
        shard = DrmsProfiler(**kwargs)
        shard.run(events)
        shards.append(shard)
    merged = shards[0]
    for shard in shards[1:]:
        merged.merge(shard)
    return merged


class TestDrmsMergeEqualsSinglePass:
    @given(trace_shards)
    @settings(max_examples=150, deadline=None)
    def test_full_policy(self, traces):
        single = single_pass_drms(traces, policy=FULL_POLICY)
        merged = merged_drms(traces, policy=FULL_POLICY)
        assert profile_state(merged.profiles) == profile_state(single.profiles)
        assert merged.profiles.activations == single.profiles.activations
        # the first/thread/kernel read split survives sharding exactly
        assert merged.read_counters == single.read_counters
        assert merged.stack_depth_hwm == single.stack_depth_hwm

    @given(trace_shards)
    @settings(max_examples=80, deadline=None)
    def test_rms_policy(self, traces):
        single = single_pass_drms(traces, policy=RMS_POLICY)
        merged = merged_drms(traces, policy=RMS_POLICY)
        assert profile_state(merged.profiles) == profile_state(single.profiles)
        assert merged.read_counters == single.read_counters

    @given(trace_shards)
    @settings(max_examples=80, deadline=None)
    def test_under_counter_limit_renumbering(self, traces):
        """counter_limit=64 renumbers at *different* points in the
        sharded and single-pass schedules; profiles must not care."""
        single = single_pass_drms(
            traces, policy=FULL_POLICY, counter_limit=64
        )
        merged = merged_drms(traces, policy=FULL_POLICY, counter_limit=64)
        assert profile_state(merged.profiles) == profile_state(single.profiles)
        assert merged.profiles.activations == single.profiles.activations
        assert merged.read_counters == single.read_counters

    @given(trace_shards)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, traces):
        left = merged_drms(traces)
        right_shards = []
        for events in traces:
            shard = DrmsProfiler()
            shard.run(events)
            right_shards.append(shard)
        # fold right: merge the tail pairwise first, then into the head
        while len(right_shards) > 1:
            last = right_shards.pop()
            right_shards[-1].merge(last)
        right = right_shards[0]
        assert profile_state(left.profiles) == profile_state(right.profiles)
        assert left.read_counters == right.read_counters
        assert left.count == right.count

    @given(trace_shards, random_trace(max_ops=60))
    @settings(max_examples=60, deadline=None)
    def test_consumption_continues_after_merge(self, traces, extra):
        """A merge is an execution boundary: consuming one more trace
        after merging equals single-passing all of them."""
        single = single_pass_drms(traces + [extra])
        merged = merged_drms(traces)
        merged.begin_trace()
        merged.run(extra)
        assert profile_state(merged.profiles) == profile_state(single.profiles)
        assert merged.read_counters == single.read_counters


class TestRmsMergeEqualsSinglePass:
    @given(trace_shards)
    @settings(max_examples=100, deadline=None)
    def test_baseline_rms(self, traces):
        single = RmsProfiler()
        first = True
        for events in traces:
            if not first:
                single.begin_trace()
            single.run(events)
            first = False
        shards = []
        for events in traces:
            shard = RmsProfiler()
            shard.run(events)
            shards.append(shard)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        assert profile_state(merged.profiles) == profile_state(single.profiles)
        assert merged.profiles.activations == single.profiles.activations
        assert merged.stack_depth_hwm == single.stack_depth_hwm


class TestMergeContracts:
    def _open_activation(self):
        profiler = DrmsProfiler()
        profiler.run([Call(1, "f"), Read(1, 0x10)])
        return profiler

    def test_begin_trace_rejects_live_activations(self):
        profiler = self._open_activation()
        with pytest.raises(ValueError):
            profiler.begin_trace()

    def test_merge_rejects_live_activations_either_side(self):
        open_side = self._open_activation()
        closed = DrmsProfiler()
        closed.run([Call(1, "f"), Return(1)])
        with pytest.raises(ValueError):
            closed.merge(open_side)
        with pytest.raises(ValueError):
            open_side.merge(closed)

    def test_merge_rejects_policy_mismatch_and_self(self):
        full = DrmsProfiler(policy=FULL_POLICY)
        rms = DrmsProfiler(policy=RMS_POLICY)
        with pytest.raises(ValueError):
            full.merge(rms)
        with pytest.raises(ValueError):
            full.merge(full)

    def test_begin_trace_clears_induced_read_state(self):
        """A write in trace A must not classify a first read in an
        *independent* trace B as thread-induced."""
        profiler = DrmsProfiler()
        profiler.run([Write(2, 0x10)])
        profiler.begin_trace()
        profiler.run([Call(1, "f"), Read(1, 0x10), Return(1)])
        assert profiler.read_counters["f"] == [1, 0, 0]

    def test_merged_count_spans_both_shards(self):
        a = DrmsProfiler()
        a.run([Call(1, "f"), Return(1)])
        b = DrmsProfiler()
        b.run([Call(1, "g"), Return(1), Call(1, "g"), Return(1)])
        count_a, count_b = a.count, b.count
        a.merge(b)
        assert a.count == count_a + count_b - 1


class TestRmsMergeContracts:
    """The shard contract of the rms baseline, which shares its state
    and contract code with the drms profiler."""

    def _open_activation(self):
        profiler = RmsProfiler()
        profiler.run([Call(1, "f"), Read(1, 0x10)])
        return profiler

    def test_rms_merge_rejects_self(self):
        profiler = RmsProfiler()
        profiler.run([Call(1, "f"), Return(1)])
        with pytest.raises(ValueError, match="itself"):
            profiler.merge(profiler)

    def test_rms_merge_rejects_live_activations_either_side(self):
        open_side = self._open_activation()
        closed = RmsProfiler()
        closed.run([Call(1, "f"), Return(1)])
        with pytest.raises(ValueError, match="live activations"):
            closed.merge(open_side)
        with pytest.raises(ValueError, match="live activations"):
            open_side.merge(closed)

    def test_rms_begin_trace_rejects_live_activations(self):
        profiler = self._open_activation()
        with pytest.raises(ValueError, match="incomplete"):
            profiler.begin_trace()

    def test_rms_seed_partition_requires_fresh_profiler(self):
        carry = [(1, ((0, "f", 0),))]
        counted = RmsProfiler()
        counted.run([Call(1, "f"), Return(1)])
        touched = RmsProfiler()
        touched.run([Write(1, 0x10)])
        for profiler in (counted, touched):
            with pytest.raises(ValueError, match="fresh"):
                profiler.seed_partition(carry)

    def test_rms_merged_count_advances_by_seeded_span(self):
        seeded = RmsProfiler()
        seeded.seed_partition([(1, ((0, "f", 0), (1, "g", 0)))])
        assert seeded.count == seeded.count_base == 3
        # g and f are carried seeds; h runs wholly inside this shard
        seeded.run([Read(1, 0x10), Return(1), Call(1, "h"), Return(1), Return(1)])
        live, returns = seeded.take_partition_state()
        assert live == {} and len(returns) == 2
        merged = RmsProfiler()
        merged.run([Call(1, "f"), Return(1)])
        count = merged.count
        merged.merge(seeded)
        assert merged.count == count + seeded.count - seeded.count_base
        assert merged.count == count + 1
        assert {key[0] for key, _ in merged.profiles} == {"f", "h"}
