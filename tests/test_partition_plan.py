"""Partition planner and ranged section decode (PR 6 tentpole, stage 1;
per-thread cuts PR 9).

``plan_partitions`` must prefer depth-zero section boundaries (the
``begin_trace()`` execution-boundary state), fall back to mid-activation
boundaries with per-thread carry summaries when depth-zero cuts alone
cannot satisfy the request, balance the cuts by event count, degrade
genuinely unsplittable traces to a single partition with an explanatory
reason, and emit byte ranges that ``iter_section_batches`` replays to
exactly the original event stream.
"""

import struct
from unittest import mock

import pytest

from repro.core import tracefile
from repro.core.events import (
    Call,
    EventBatch,
    Read,
    Return,
    Write,
    decode_batch,
    encode_events,
)
from repro.core.tracefile import (
    TraceFormatError,
    iter_section_batches,
    plan_partitions,
)
from repro.core.tracing import with_switches
from tests.strategies import concat_runs


def run_events(thread=1, rtn="work", ops=20, base=0x100):
    """One complete top-level activation: depth returns to zero at the
    end and nowhere else."""
    events = [Call(thread, rtn)]
    for i in range(ops):
        if i % 3 == 0:
            events.append(Write(thread, base + i))
        else:
            events.append(Read(thread, base + i))
    events.append(Return(thread))
    return events


def multi_run_payload(n_runs=4, section_events=8, ops=20):
    runs = [
        run_events(thread=1 + k % 2, rtn=f"run{k}", ops=ops + 2 * k,
                   base=0x100 * (k + 1))
        for k in range(n_runs)
    ]
    events, bounds = concat_runs(runs)
    batch = encode_events(events)
    return events, batch.to_bytes(
        section_events=section_events, boundaries=bounds
    )


def v1_bytes(events):
    """The retired v1 layout (no checksums, no sections): unknown magic
    to every reader now."""
    batch = encode_events(events)
    parts = [b"RPRB\x01", struct.pack("<I", len(batch.names))]
    for name in batch.names:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    parts.append(struct.pack("<Q", len(batch.ops)))
    for arr in (batch.ops, batch.threads, batch.args, batch.costs):
        parts.append(arr.tobytes())
    return b"".join(parts)


# -- planning -----------------------------------------------------------------


def test_plan_cuts_multi_run_trace_at_run_boundaries():
    events, payload = multi_run_payload(n_runs=4)
    plan = plan_partitions(payload, 4)
    assert plan.reason is None
    assert len(plan.partitions) == 4
    assert plan.requested == 4
    assert plan.total_events == len(events)
    assert plan.safe_boundaries == 3  # exactly the three interior run starts
    # The ranges tile the body exactly, in order, with no overlap.
    for prev, part in zip(plan.partitions, plan.partitions[1:]):
        assert prev.end == part.start
    assert sum(p.events for p in plan.partitions) == len(events)
    assert sum(p.sections for p in plan.partitions) == plan.total_sections
    assert plan.imbalance >= 0.0


def test_plan_only_cuts_at_depth_zero():
    """Interior section boundaries inside a run (depth > 0) are never
    chosen, even when they would balance better."""
    # One huge run then one tiny run: the only safe cut is the run
    # boundary, however lopsided.
    events, bounds = concat_runs(
        [run_events(ops=200), run_events(thread=2, ops=4, base=0x900)]
    )
    payload = encode_events(events).to_bytes(
        section_events=8, boundaries=bounds
    )
    plan = plan_partitions(payload, 2)
    assert plan.reason is None
    assert len(plan.partitions) == 2
    assert plan.safe_boundaries == 1
    assert plan.partitions[0].events == bounds[0]
    assert plan.imbalance > 0.5  # visibly lopsided, reported as such


def test_plan_cuts_monolithic_run_with_carries():
    """A single monolithic run has no depth-zero interior boundary;
    the planner now cuts mid-activation and records per-thread
    carries instead of degrading (PR 9 tentpole)."""
    events = with_switches(run_events(ops=100))
    payload = encode_events(events).to_bytes(section_events=8)
    plan = plan_partitions(payload, 4)
    assert plan.reason is None
    assert len(plan.partitions) == 4
    assert plan.safe_boundaries == 0
    assert plan.carried > 0
    # Carries chain: each cut's carry-out is the next partition's
    # carry-in; the trace's outer edges are carry-free.
    assert plan.partitions[0].carry_in == ()
    assert plan.partitions[-1].carry_out_ids == ()
    for prev, part in zip(plan.partitions, plan.partitions[1:]):
        assert prev.carry_out_ids == part.carry_in
        assert part.carry_in  # every interior cut here is mid-run
    assert sum(p.events for p in plan.partitions) == len(events)


def test_plan_single_section_trace_degrades():
    events = with_switches(run_events(ops=10))
    payload = encode_events(events).to_bytes(section_events=1024)
    plan = plan_partitions(payload, 4)
    assert len(plan.partitions) == 1
    assert "single section" in plan.reason
    assert plan.carried == 0


def test_plan_requested_one_is_single_without_reason():
    _events, payload = multi_run_payload(n_runs=3)
    plan = plan_partitions(payload, 1)
    assert len(plan.partitions) == 1
    assert plan.reason is None


def test_plan_caps_at_available_boundaries():
    events, payload = multi_run_payload(n_runs=3)
    plan = plan_partitions(payload, 16)
    assert plan.reason is None
    # More partitions than depth-zero boundaries allow: mid-activation
    # cuts take it past the 3 run-aligned partitions, capped by the
    # number of sections.
    assert 3 < len(plan.partitions) <= plan.total_sections
    assert plan.carried > 0
    assert plan.total_events == len(events)
    assert sum(p.events for p in plan.partitions) == len(events)


def test_plan_v1_degrades():
    """v1 is retired: planning one is an unknown-magic rejection."""
    payload = v1_bytes(with_switches(run_events(ops=30)))
    with pytest.raises(TraceFormatError, match="bad magic"):
        plan_partitions(payload, 4)


def test_plan_unmatched_calls_degrades():
    events = [Call(1, "leaky"), Read(1, 0x10), Call(1, "inner")]
    payload = encode_events(events).to_bytes(section_events=2)
    plan = plan_partitions(payload, 2)
    assert len(plan.partitions) == 1
    assert "unmatched calls" in plan.reason


def test_plan_empty_trace():
    plan = plan_partitions(EventBatch().to_bytes(), 4)
    assert plan.partitions == ()
    assert plan.reason == "empty trace"
    assert plan.total_events == 0


def test_plan_rejects_bad_request():
    _events, payload = multi_run_payload()
    with pytest.raises(ValueError):
        plan_partitions(payload, 0)


def test_plan_truncated_trace_degrades_to_valid_prefix():
    """A torn trace is doctor-salvageable; planning it must not abort.
    The planner returns a degraded single-partition plan over the valid
    prefix, with the damage spelled out (PR 9 satellite)."""
    _events, payload = multi_run_payload()
    plan = plan_partitions(payload[:-10], 2)
    assert len(plan.partitions) == 1
    assert "trunc" in plan.reason
    assert plan.total_events > 0
    part = plan.partitions[0]
    # The surviving range must still replay cleanly.
    got = sum(
        b.event_count()
        for b in iter_section_batches(payload[:-10], part.start, part.end)
    )
    assert got == part.events


def test_plan_torn_mid_activation_reports_depth():
    """A torn trace whose valid prefix ends mid-activation still plans
    (single partition, with the pending depth in the reason)."""
    events = with_switches(run_events(ops=60))
    payload = encode_events(events).to_bytes(section_events=8)
    plan = plan_partitions(payload[:-10], 4)
    assert len(plan.partitions) == 1
    assert "trunc" in plan.reason
    assert "call depth" in plan.reason


# -- ranged decode ------------------------------------------------------------


def test_partition_ranges_decode_to_original_events():
    events, payload = multi_run_payload(n_runs=4, section_events=8)
    plan = plan_partitions(payload, 4)
    decoded = [
        e
        for part in plan.partitions
        for batch in iter_section_batches(payload, part.start, part.end)
        for e in batch.iter_events()
    ]
    assert decoded == events
    for part in plan.partitions:
        got = sum(
            b.event_count()
            for b in iter_section_batches(payload, part.start, part.end)
        )
        assert got == part.events


def test_ranged_decode_rejects_v1():
    payload = v1_bytes(with_switches(run_events(ops=10)))
    with pytest.raises(TraceFormatError):
        list(iter_section_batches(payload, 0, len(payload)))


def test_ranged_decode_rejects_trailing_garbage():
    _events, payload = multi_run_payload()
    plan = plan_partitions(payload, 2)
    part = plan.partitions[0]
    with pytest.raises(TraceFormatError):
        # A range ending mid-section is framing corruption, not data.
        list(iter_section_batches(payload, part.start, part.end - 3))


# -- boundary-aware serialisation ---------------------------------------------


def test_to_bytes_boundaries_force_section_breaks():
    events, bounds = concat_runs(
        [run_events(ops=10), run_events(thread=2, ops=10, base=0x500)]
    )
    payload = encode_events(events).to_bytes(
        section_events=1024, boundaries=bounds
    )
    # a one-row group budget yields each section alone
    with mock.patch.object(tracefile, "_GROUP_ROWS", 1):
        sections = list(iter_section_batches(payload))
    # Without the boundary this small trace would be one section.
    assert len(sections) == 2
    assert sections[0].event_count() == bounds[0]
    assert [e for s in sections for e in s.iter_events()] == events


def test_to_bytes_boundaries_ignore_out_of_range():
    events = with_switches(run_events(ops=10))
    batch = encode_events(events)
    plain = batch.to_bytes()
    decorated = batch.to_bytes(boundaries=[0, -3, len(events), 10_000])
    assert decorated == plain
    assert decode_batch(EventBatch.from_bytes(decorated)) == events
