"""Property tests for the columnar kernel and the superop fusion layer.

Three contracts:

* **Fusion is invisible.** ``fuse_batch`` collapses stride-1
  same-thread runs of reads, writes and kernel fills into run
  superops, but ``iter_events`` expands them back to the identical
  logical stream, ``event_count`` still counts logical events, and the
  binary serialisation round-trips fused batches unchanged.
* **The columnar engine renumbers where the scalar loop does.** A fill
  run that crosses the counter limit is stamped cell by cell, and every
  tool sees the same stream under every engine, and fused and unfused
  kernel replays of one random trace equal the scalar loop and the
  oracle.  (That the kernels equal the scalar loop and the naive
  oracle on every row form is ``test_exactness.py``'s.)
* **Caches survive compaction.** Renumbering rewrites shadow leaves in
  place, so the ``(tag, chunk)`` pairs the kernels keep in locals stay
  valid — leaf identity is asserted across a forced mid-batch renumber;
  ``begin_trace()`` instead swaps whole shadow objects, which the
  engines pick up because they re-read them on every call.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FULL_POLICY, DrmsProfiler, NaiveDrmsProfiler, RmsProfiler
from repro.core.events import (
    OP_FILL_READ_LOOP,
    OP_KFILL_RUN,
    OP_READ,
    OP_READ_RUN,
    OP_WRITE_RUN,
    SUPEROP_NAMES,
    Call,
    EventBatch,
    KernelToUser,
    Read,
    Return,
    Write,
    count_superops,
    decode_batch,
    encode_events,
    fuse_batch,
    fuse_segments,
)
from repro.core import tracefile
from repro.core.tracing import with_switches
from repro.core.tracefile import TraceFormatError, iter_section_batches
from repro.tools import DEFAULT_TOOLS, replay_tool
from repro.tools.runner import _replay_worker
from repro.tools.base import AnalysisTool

from tests.strategies import (
    ALL_POLICIES,
    activation_sizes,
    profile_state,
    random_trace,
    tool_state,
)

# -- fusion layer -------------------------------------------------------------


@given(random_trace())
@settings(max_examples=200, deadline=None)
def test_fuse_round_trips_and_counts_logical_events(events):
    batch = encode_events(events)
    fused = fuse_batch(batch)
    assert list(fused.iter_events()) == events
    assert fused.event_count() == len(events)
    assert len(fused.ops) <= len(batch.ops)
    runs, covered = count_superops(fused)
    assert runs == sum(
        1 for op in fused.ops if op in SUPEROP_NAMES
    )
    assert covered == sum(
        c
        for op, c in zip(fused.ops, fused.costs)
        if op in SUPEROP_NAMES
    )


@given(random_trace())
@settings(max_examples=100, deadline=None)
def test_fuse_is_idempotent(events):
    fused = fuse_batch(encode_events(events))
    again = fuse_batch(fused)
    assert again.ops == fused.ops
    assert again.args == fused.args
    assert again.costs == fused.costs
    assert again.threads == fused.threads


@given(random_trace())
@settings(max_examples=75, deadline=None)
def test_fused_batch_bytes_round_trip(events):
    """Run superops serialise through the v2 binary format unchanged."""
    fused = fuse_batch(encode_events(events))
    clone = EventBatch.from_bytes(fused.to_bytes())
    assert clone.ops == fused.ops
    assert decode_batch(clone) == events


def test_runs_split_at_leaf_boundaries():
    """A long stride-1 run is emitted as one superop per 64-cell leaf,
    so every run the kernel sees stays inside one shadow chunk."""
    events = [Write(1, 0x240 - 10 + i) for i in range(80)]
    fused = fuse_batch(encode_events(events))
    rows = [
        (a, c)
        for op, a, c in zip(fused.ops, fused.args, fused.costs)
        if op == OP_WRITE_RUN
    ]
    assert rows == [(0x236, 10), (0x240, 64), (0x280, 6)]
    for base, length in rows:
        assert base >> 6 == (base + length - 1) >> 6


def test_fusion_skips_non_adjacent_and_cross_thread():
    events = [Read(1, 0x10), Read(1, 0x12), Read(1, 0x13), Read(2, 0x14)]
    fused = fuse_batch(encode_events(events))
    assert fused.ops.count(OP_READ_RUN) == 1  # only 0x12,0x13 fuse
    assert fused.ops.count(OP_READ) == 2
    assert list(fused.iter_events()) == events


# -- engine equivalence -------------------------------------------------------


@given(random_trace(), st.sampled_from(ALL_POLICIES))
@settings(max_examples=150, deadline=None)
def test_columnar_drms_equals_batched_scalar_and_oracle(events, policy):
    """Fused and unfused (plain batch) kernel replays both equal the
    scalar loop and the oracle."""
    batch = encode_events(events)
    fused = fuse_batch(batch)
    columnar = DrmsProfiler(policy=policy)
    unfused = DrmsProfiler(policy=policy)
    scalar = DrmsProfiler(policy=policy)
    oracle = NaiveDrmsProfiler(policy=policy)
    columnar.consume_columnar(fused)
    unfused.run_batch(batch)
    scalar.run(events)
    oracle.run(events)
    assert profile_state(columnar.profiles) == profile_state(scalar.profiles)
    assert profile_state(unfused.profiles) == profile_state(scalar.profiles)
    assert activation_sizes(columnar.profiles) == activation_sizes(
        oracle.profiles
    )
    columnar_counts = {
        r: tuple(c) for r, c in columnar.read_counters.items() if any(c)
    }
    oracle_counts = {
        r: tuple(c) for r, c in oracle.read_counters.items() if any(c)
    }
    assert columnar_counts == oracle_counts
    assert columnar.space_cells() == scalar.space_cells()
    assert unfused.space_cells() == scalar.space_cells()


# -- kernel fills -------------------------------------------------------------


def test_kernel_fill_renumbers_at_the_exact_cell():
    """A fill run that crosses the counter limit falls back to per-cell
    stamping, so renumbering happens at the same cell as the scalar
    loop (one leaf: a single run superop)."""
    events = (
        [Call(1, "f")]
        + [KernelToUser(1, 0x40 + i) for i in range(64)]
        + [Read(1, 0x40 + i) for i in range(64)]
        + [Return(1)]
    )
    fused = fuse_batch(encode_events(events))
    assert list(fused.ops).count(OP_KFILL_RUN) == 1
    for limit in (None, 10, 30, 64, 66):
        columnar = DrmsProfiler(policy=FULL_POLICY, counter_limit=limit)
        scalar = DrmsProfiler(policy=FULL_POLICY, counter_limit=limit)
        columnar.consume_columnar(fused)
        scalar.run(events)
        assert columnar.metrics_snapshot() == scalar.metrics_snapshot(), limit
        assert columnar.count == scalar.count, limit
        assert tuple(columnar.read_counters["f"]) == (0, 0, 64)


def _fill_read(thread, base, n):
    return [KernelToUser(thread, base + i) for i in range(n)] + [
        Read(thread, base + i) for i in range(n)
    ]


def _shadow_state(prof):
    mems = dict(prof.ts)
    if isinstance(prof, DrmsProfiler):
        mems.update(wts=prof.wts, wsrc=prof.wsrc)
    return {name: list(mem.items()) for name, mem in mems.items()}


@pytest.mark.parametrize("make", [DrmsProfiler, RmsProfiler])
def test_run_and_loop_rows_stay_exact_above_2_pow_53(make):
    """Counters above 2**53 (where a float ramp or template would round)
    and above 2**31: write-run, read-run, kernel-fill-run and
    ``fillReadLoop`` rows replay equal to the scalar loop, shadow cells
    included.  The first loop's fill ramp is a slice of the kernel-fill
    ramp; the second loop outruns it and builds its own."""
    events = (
        [Write(1, 0x40 + i) for i in range(40)]  # stamped before "outer"
        + [Call(1, "outer"), Call(1, "inner")]
        + [Read(1, 0x40 + i) for i in range(20)]  # a uniform segment
        + _fill_read(1, 0x100, 48)
        + _fill_read(1, 0x200, 32) * 5
        + _fill_read(1, 0x280, 32) * 40
        + [Return(1)]
        + [Call(2, "other")]
        + [Write(2, 0x140 + i) for i in range(8)]
        + [Return(2)]
        + [Call(1, "again")]
        # stamps on both sides of "outer"'s call: a mixed segment
        + [Read(1, 0x40 + i) for i in range(40)]
        # half written by thread 2, half never written
        + [Read(1, 0x140 + i) for i in range(16)]
        + [Return(1), Return(1)]
    )
    events = with_switches(events)
    rows, _ = fuse_segments(encode_events(events))
    for op in (OP_WRITE_RUN, OP_READ_RUN, OP_KFILL_RUN, OP_FILL_READ_LOOP):
        assert op in rows.ops, op
    kernel, scalar = make(), make()
    kernel.count = scalar.count = 2**53 + 11
    kernel.consume_columnar(rows)
    scalar.run(events)
    assert kernel.count == scalar.count > 2**53
    assert kernel.metrics_snapshot() == scalar.metrics_snapshot()
    assert profile_state(kernel.profiles) == profile_state(scalar.profiles)
    assert _shadow_state(kernel) == _shadow_state(scalar)


def test_mysql_select_fuses_to_at_most_five_percent_of_rows():
    """Figure 4's trace is half kernel fills; fused, the kernel loops
    over at most 5% of its rows."""
    from repro.workloads.registry import get_workload

    machine = get_workload("mysql_select").build(threads=4, scale=1)
    machine.run()
    batch = encode_events(with_switches(machine.trace))
    fused = fuse_batch(batch)
    assert len(fused) <= 0.05 * len(batch)
    assert fused.event_count() == len(batch)


# -- cache safety across compaction and execution boundaries ------------------


def test_leaf_identity_survives_mid_batch_renumber():
    """Renumbering rewrites leaves in place: a chunk reference captured
    before a forced mid-batch compaction must still be the live chunk
    afterwards, holding the renumbered values."""
    warmup = [Write(1, a) for a in range(0x40)] + [
        Read(1, a) for a in range(0x40)
    ]
    prof = DrmsProfiler(policy=FULL_POLICY, counter_limit=24)
    prof.consume_columnar(fuse_batch(encode_events(warmup)))
    wts_chunk = prof.wts.leaf_peek(0x00)
    ts_chunk = prof.ts[1].leaf_peek(0x00)
    assert wts_chunk is not None and ts_chunk is not None

    # Enough calls to push count past the limit several times over, with
    # runs interleaved so the kernel replays them across compactions.
    trailer = []
    for i in range(40):
        trailer.append(Read(1, 0x10 + (i % 8)))
        trailer.append(Call(1, f"r{i % 3}"))
        trailer.extend(Read(1, a) for a in range(0x20, 0x30))
        trailer.append(Return(1))
    prof.consume_columnar(fuse_batch(encode_events(trailer)))
    assert prof.renumber_passes > 0
    assert prof.wts.leaf_peek(0x00) is wts_chunk
    assert prof.ts[1].leaf_peek(0x00) is ts_chunk
    # and the state is still exactly the unlimited profiler's
    unlimited = DrmsProfiler(policy=FULL_POLICY, counter_limit=None)
    unlimited.consume_columnar(fuse_batch(encode_events(warmup + trailer)))
    assert profile_state(prof.profiles) == profile_state(unlimited.profiles)


def test_begin_trace_swaps_shadows_for_every_engine():
    """``begin_trace()`` replaces the shadow objects wholesale; the next
    ``consume_columnar`` call re-reads them, so profiling the second
    trace starts from clean shadows under every engine."""
    first = [Write(1, a) for a in range(16)]
    second = (
        [Call(1, "f")] + [Read(1, a) for a in range(16)] + [Return(1)]
    )
    results = []
    for engine in ("scalar", "columnar"):
        prof = DrmsProfiler(policy=FULL_POLICY, keep_activations=False)
        old_wts = prof.wts
        if engine == "scalar":
            prof.run(first)
        else:
            prof.consume_columnar(fuse_batch(encode_events(first)))
        prof.begin_trace()
        assert prof.wts is not old_wts
        if engine == "scalar":
            prof.run(second)
        else:
            prof.consume_columnar(fuse_batch(encode_events(second)))
        results.append(
            (profile_state(prof.profiles), dict(prof.read_counters))
        )
    assert results[0] == results[1]


# -- pipelined zero-copy decode -----------------------------------------------


def _long_trace(n=2600):
    """More events than one 1024-event section, several threads."""
    events = []
    for t in (1, 2):
        events.append(Call(t, f"work{t}"))
    for i in range(n - 6):
        t = 1 + (i % 2)
        base = 0x1000 * t
        if i % 9 == 0:
            events.append(Write(t, base + (i % 200)))
        else:
            events.append(Read(t, base + (i % 200)))
    for t in (1, 2):
        events.append(Return(t))
    return events[:n]


def test_section_batches_round_trip_multi_section():
    events = _long_trace()
    payload = encode_events(events).to_bytes()
    # a one-row group budget yields each section alone
    with mock.patch.object(tracefile, "_GROUP_ROWS", 1):
        sections = list(iter_section_batches(payload))
    assert len(sections) > 1
    decoded = [e for s in sections for e in s.iter_events()]
    assert decoded == events


def test_partition_replay_reraises_decode_corruption():
    """A flipped byte in a late section surfaces as TraceFormatError
    from the inline partition replay, at the point of damage."""
    from repro.core.tracefile import plan_partitions
    from repro.tools.partition import replay_partition

    events = _long_trace()
    clean = encode_events(events).to_bytes()
    plan = plan_partitions(clean, 1)
    assert len(plan.partitions) == 1
    payload = bytearray(clean)
    payload[-40] ^= 0xFF  # inside the last section's event columns
    with pytest.raises(TraceFormatError):
        replay_partition(
            bytes(payload), plan.partitions[0], ("drms", "rms"), 1
        )


# -- tool replay engines ------------------------------------------------------


@given(random_trace())
@settings(max_examples=40, deadline=None)
def test_every_tool_agrees_across_engines(events):
    batch = encode_events(events)
    fused = fuse_batch(batch)
    for name, factory in DEFAULT_TOOLS.items():
        scalar = factory()
        for event in events:
            scalar.consume(event)
        unfused = factory()
        unfused.consume_batch(batch)
        columnar = factory()
        columnar.consume_batch(fused if columnar.supports_superops else batch)
        assert tool_state(unfused) == tool_state(scalar), name
        assert tool_state(columnar) == tool_state(scalar), name


class _PayloadSpy(AnalysisTool):
    """Records which batch shape the runner hands it."""

    name = "spy"

    def __init__(self, superops):
        self.supports_superops = superops
        self.saw_runs = None

    def consume_batch(self, batch):
        self.saw_runs = OP_READ_RUN in batch.ops or OP_WRITE_RUN in batch.ops

    def space_cells(self):
        return 0

    def finish(self):
        return {}


def test_replay_tool_gates_superops_on_capability():
    """Under the columnar engine, only superop-capable tools ever see
    fused batches; the rest get the plain opcode stream."""
    events = [Read(1, a) for a in range(32)]
    batch = encode_events(events)
    spies = []

    def make(superops):
        def factory():
            spy = _PayloadSpy(superops)
            spies.append(spy)
            return spy

        return factory

    rows = fuse_batch(batch)  # the stored form replay_tool takes
    replay_tool(make(True), rows, repeats=1, engine="columnar")
    replay_tool(make(False), rows, repeats=1, engine="columnar")
    capable, plain = spies
    assert capable.saw_runs is True
    assert plain.saw_runs is False


def test_replay_tool_rejects_unknown_engine():
    batch = encode_events([Read(1, 0x10)])
    for engine in ("turbo", "batched"):  # batched is retired
        with pytest.raises(ValueError, match="unknown engine"):
            replay_tool(
                DEFAULT_TOOLS["aprof"], batch, repeats=1, engine=engine
            )


def test_replay_tool_streaming_matches_direct_replay():
    events = _long_trace(1500)
    batch = encode_events(events)
    payload = batch.to_bytes()
    for name, factory in DEFAULT_TOOLS.items():
        _, space_direct = replay_tool(
            factory, batch, repeats=1, engine="columnar"
        )
        _, space_streamed = _replay_worker(factory, payload, 1, "columnar")
        assert space_streamed == space_direct, name
