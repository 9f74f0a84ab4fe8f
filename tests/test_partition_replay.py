"""Partitioned replay equivalence and degradation (PR 6 tentpole).

The load-bearing property: replaying a trace as independently-profiled
partitions and folding the shards with the associative ``merge()`` (plus
the cold-read reclassification pass) must be **byte-exact** against the
serial replay and against the naive set-based oracle — profiles, read
attribution, and (without renumbering) the full telemetry snapshot — on
arbitrary multi-run traces, at every partition count, under both
profilers, with tiny counter limits and with fault-injected recordings.
Worker death mid-partition must degrade per the PR 2 supervision
discipline (retry, then an inline fallback for that partition only) with
the result still exact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FULL_POLICY,
    DrmsProfiler,
    NaiveDrmsProfiler,
    RmsProfiler,
)
from repro.core.events import (
    Call,
    KernelToUser,
    Read,
    Return,
    SwitchThread,
    UserToKernel,
    Write,
    encode_events,
)
from repro.core.tracefile import plan_partitions
from repro.core.tracing import with_switches
from repro.tools import DEFAULT_TOOLS
from repro.tools.partition import (
    _KILL_ENV,
    merge_partition_shards,
    replay_partition,
    replay_partitioned,
    resolve_partitions,
)
from repro.tools.runner import measure_workload
from repro.workloads.registry import REGISTRY, get_workload
from tests.test_oracle_property import random_trace


def profile_state(profiles):
    return {key: (p.calls, p.total_input, p.points) for key, p in profiles}


def read_counts(profiler):
    return {
        r: tuple(c) for r, c in profiler.read_counters.items() if any(c)
    }


def concat_runs(runs):
    """Concatenate complete runs into one multi-run trace; returns
    ``(events, boundaries)`` with one boundary per interior run start."""
    events, bounds = [], []
    for raw in runs:
        if events:
            bounds.append(len(events))
            events.append(SwitchThread())
        events.extend(raw)
    return events, bounds


def serial_profilers(batch, counter_limit=None):
    drms = DrmsProfiler(
        policy=FULL_POLICY, counter_limit=counter_limit,
        keep_activations=False,
    )
    rms = RmsProfiler(keep_activations=False)
    for event in batch.iter_events():
        drms.consume(event)
        rms.consume(event)
    drms.begin_trace()
    rms.begin_trace()
    return drms, rms


@st.composite
def multi_run_trace(draw):
    n_runs = draw(st.integers(1, 4))
    runs = [
        draw(random_trace(max_threads=3, max_ops=60)) for _ in range(n_runs)
    ]
    return concat_runs(runs)


# -- the equivalence property -------------------------------------------------


@given(multi_run_trace(), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_partitioned_equals_serial_and_oracle(trace, n_parts):
    events, bounds = trace
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=16, boundaries=bounds)
    rep = replay_partitioned(
        payload, partitions=n_parts, kinds=("drms", "rms"), workers=1
    )
    assert not rep.degradations
    assert 1 <= len(rep.plan.partitions) <= n_parts or not events

    serial_drms, serial_rms = serial_profilers(batch)
    merged_drms = rep.profilers["drms"]
    merged_rms = rep.profilers["rms"]
    assert merged_drms.metrics_snapshot() == serial_drms.metrics_snapshot()
    assert merged_rms.metrics_snapshot() == serial_rms.metrics_snapshot()
    assert profile_state(merged_drms.profiles) == profile_state(
        serial_drms.profiles
    )
    assert read_counts(merged_drms) == read_counts(serial_drms)

    oracle = NaiveDrmsProfiler(policy=FULL_POLICY)
    oracle.run(events)
    assert profile_state(merged_drms.profiles) == profile_state(
        oracle.profiles
    )
    assert read_counts(merged_drms) == read_counts(oracle)


@given(multi_run_trace(), st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_partitioned_counter_limit_profiles_exact(trace, n_parts):
    """Under a tiny renumbering counter limit the renumbering *pass
    counts* legitimately differ between partitioned and serial replay
    (per-partition counters restart from zero), but profiles and read
    attribution must still be identical."""
    events, bounds = trace
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=16, boundaries=bounds)
    rep = replay_partitioned(
        payload, partitions=n_parts, kinds=("drms",), workers=1,
        counter_limit=64,
    )
    serial = DrmsProfiler(
        policy=FULL_POLICY, counter_limit=64, keep_activations=False
    )
    serial.run(batch.iter_events())
    merged = rep.profilers["drms"]
    assert profile_state(merged.profiles) == profile_state(serial.profiles)
    assert read_counts(merged) == read_counts(serial)


@pytest.mark.parametrize("engine", ["scalar", "columnar"])
def test_cold_read_reclassification_exact_across_engines(engine):
    """The one partition/serial discrepancy: a partition-local *cold*
    first read that a memory prefix makes induced.  Thread- and
    kernel-sourced cases both reclassify; a genuinely-new address stays
    plain; a thread re-reading its own prefix write stays plain (the
    access/write timestamp tie)."""
    run1 = [
        Call(1, "w1"), Write(1, 5), Return(1),
        SwitchThread(),
        Call(2, "k"), UserToKernel(2, 7), KernelToUser(2, 7), Return(2),
    ]
    run2 = [
        Call(2, "r2"), Read(2, 5), Read(2, 7), Read(2, 11), Return(2),
        SwitchThread(),
        Call(1, "r1"), Read(1, 5), Return(1),
    ]
    events, bounds = concat_runs([run1, run2])
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=4, boundaries=bounds)
    plan = plan_partitions(payload, 2)
    assert len(plan.partitions) == 2 and plan.reason is None

    rep = replay_partitioned(
        payload, plan=plan, kinds=("drms",), engine=engine, workers=1
    )
    serial, _ = serial_profilers(batch)
    merged = rep.profilers["drms"]
    assert rep.cold_reads_reclassified == 2
    assert read_counts(merged) == read_counts(serial)
    # reads 5 and 7 are induced (thread / kernel), read 11 stays plain
    assert tuple(serial.read_counters["r2"]) == (1, 1, 1)
    # t1 re-reading its own earlier write stays a plain first read
    assert tuple(serial.read_counters["r1"]) == (1, 0, 0)
    assert merged.metrics_snapshot() == serial.metrics_snapshot()


def test_partitioned_replay_rejects_unknown_engine():
    """Every engine name outside ``ENGINES`` — the retired ``batched``
    included — is refused up front, never silently replayed columnar."""
    payload = encode_events([Call(1, "f"), Read(1, 5), Return(1)]).to_bytes()
    plan = plan_partitions(payload, 1)
    for engine in ("turbo", "batched"):
        with pytest.raises(ValueError, match="unknown engine"):
            replay_partitioned(payload, plan=plan, engine=engine, workers=1)
        with pytest.raises(ValueError, match="unknown engine"):
            replay_partition(
                payload, plan.partitions[0], ("drms",), 1, engine=engine
            )


def test_registry_workloads_partitioned_equals_serial():
    """The acceptance sweep: every registry workload, partitioned at
    1/2/4, byte-exact against serial — including the (common) traces
    that degrade to a single partition with a reason."""
    degraded = 0
    for name in sorted(REGISTRY):
        machine = get_workload(name).build(threads=2, scale=1)
        machine.run()
        events = with_switches(machine.trace)
        batch = encode_events(events)
        payload = batch.to_bytes()
        serial_drms, serial_rms = serial_profilers(batch)
        drms_snap = serial_drms.metrics_snapshot()
        rms_snap = serial_rms.metrics_snapshot()
        for n in (1, 2, 4):
            rep = replay_partitioned(
                payload, partitions=n, kinds=("drms", "rms"), workers=1
            )
            assert not rep.degradations, name
            if len(rep.plan.partitions) == 1 and n > 1:
                assert rep.plan.reason is not None, name
                degraded += 1
            assert (
                rep.profilers["drms"].metrics_snapshot() == drms_snap
            ), (name, n)
            assert (
                rep.profilers["rms"].metrics_snapshot() == rms_snap
            ), (name, n)
    assert degraded > 0  # single-run traces really do degrade gracefully


def test_faulted_multi_run_trace_partitioned_equals_serial():
    """Fault-injected recordings partition exactly too (satellite 3):
    three faulted runs concatenated at their begin_trace boundaries."""
    from repro.vm.faults import FaultPlan

    runs = []
    for seed in (7, 8, 9):
        machine = get_workload("producer_consumer").build(threads=2, scale=1)
        machine.set_fault_plan(FaultPlan(seed=seed))
        machine.run()
        runs.append(with_switches(machine.trace))
    events, bounds = concat_runs(runs)
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=64, boundaries=bounds)
    serial_drms, serial_rms = serial_profilers(batch)
    for n in (2, 3):
        rep = replay_partitioned(
            payload, partitions=n, kinds=("drms", "rms"), workers=1
        )
        assert (
            rep.profilers["drms"].metrics_snapshot()
            == serial_drms.metrics_snapshot()
        )
        assert (
            rep.profilers["rms"].metrics_snapshot()
            == serial_rms.metrics_snapshot()
        )


# -- merge stage --------------------------------------------------------------


def _three_part_payload():
    runs = [
        [Call(1, f"run{k}")]
        + [Read(1, 0x100 * k + i) for i in range(12)]
        + [Return(1)]
        for k in range(3)
    ]
    events, bounds = concat_runs(runs)
    batch = encode_events(events)
    return batch, batch.to_bytes(section_events=4, boundaries=bounds)


def test_merge_rejects_incomplete_shard_set():
    _batch, payload = _three_part_payload()
    plan = plan_partitions(payload, 3)
    assert len(plan.partitions) == 3
    rows = [
        replay_partition(payload, part, ("drms",), 3)
        for part in (plan.partitions[0], plan.partitions[2])
    ]
    with pytest.raises(ValueError, match="incomplete shard set"):
        merge_partition_shards(rows)


def test_merge_rejects_a_missing_last_partition():
    """Shards know their plan's partition count, so a set missing its
    trailing partition is incomplete too, not a shorter trace."""
    _batch, payload = _three_part_payload()
    plan = plan_partitions(payload, 3)
    rows = [
        replay_partition(payload, part, ("drms",), 3)
        for part in plan.partitions[:2]
    ]
    with pytest.raises(ValueError, match="incomplete shard set"):
        merge_partition_shards(rows)


def test_merge_standalone_matches_replay_partitioned():
    batch, payload = _three_part_payload()
    plan = plan_partitions(payload, 3)
    rows = [
        replay_partition(payload, part, ("drms", "rms"), 3)
        for part in plan.partitions
    ]
    merged = merge_partition_shards(rows)
    serial_drms, serial_rms = serial_profilers(batch)
    assert (
        merged["drms"].metrics_snapshot() == serial_drms.metrics_snapshot()
    )
    assert merged["rms"].metrics_snapshot() == serial_rms.metrics_snapshot()


def test_replay_partition_decodes_each_section_once_and_never_fuses(
    monkeypatch,
):
    """Every requested kind rides one pass: two kinds, one decode
    stream, each stored section fed as decoded — the writer fused it,
    so replay calls ``fuse_batch`` zero times — and the shards still
    merge to the serial profiles."""
    import repro.core.events as events
    import repro.tools.partition as partition

    batch, payload = _three_part_payload()
    plan = plan_partitions(payload, 1)
    (part,) = plan.partitions
    calls = {"decode": 0, "sections": 0, "fuse": 0}
    real_iter = partition.iter_section_batches

    def counting_iter(*args, **kwargs):
        calls["decode"] += 1
        for section in real_iter(*args, **kwargs):
            calls["sections"] += 1
            yield section

    def counting_fuse(*args, **kwargs):
        calls["fuse"] += 1
        raise AssertionError("replay must not fuse")

    monkeypatch.setattr(partition, "iter_section_batches", counting_iter)
    monkeypatch.setattr(partition, "fuse_batch", counting_fuse)
    monkeypatch.setattr(events, "fuse_batch", counting_fuse)
    monkeypatch.setattr(events, "_fuse", counting_fuse)
    shards = replay_partition(payload, part, ("drms", "rms"), 1)
    assert calls["decode"] == 1
    assert calls["sections"] == part.sections > 1
    assert calls["fuse"] == 0
    assert [s.kind for s in shards] == ["drms", "rms"]
    assert shards[0].decode_stall_s == shards[1].decode_stall_s > 0.0
    assert shards[0].backpressure_s == shards[0].queue_depth_hwm == 0
    merged = merge_partition_shards([shards])
    serial_drms, serial_rms = serial_profilers(batch)
    assert (
        merged["drms"].metrics_snapshot() == serial_drms.metrics_snapshot()
    )
    assert merged["rms"].metrics_snapshot() == serial_rms.metrics_snapshot()


def test_resolve_partitions():
    assert resolve_partitions(None) is None
    assert resolve_partitions(3) == 3
    auto = resolve_partitions(0)
    assert auto is not None and auto >= 1
    with pytest.raises(ValueError):
        resolve_partitions(-1)


# -- supervision: worker death mid-partition ----------------------------------


def test_worker_kill_retries_then_partition_fallback(monkeypatch):
    """A worker hard-killed mid-partition (simulating OOM/crash) is
    retried, then only that partition falls back to inline replay — and
    the merged profile is still exact (satellite 4)."""
    batch, payload = _three_part_payload()
    plan = plan_partitions(payload, 3)
    assert len(plan.partitions) == 3
    monkeypatch.setenv(_KILL_ENV, "1")
    rep = replay_partitioned(
        payload,
        plan=plan,
        kinds=("drms",),
        workers=2,
        timeout=60.0,
        max_retries=1,
        backoff_base=0.01,
    )
    serial, _ = serial_profilers(batch)
    assert rep.profilers["drms"].metrics_snapshot() == serial.metrics_snapshot()
    assert rep.degradations
    assert all(d.stage == "partition-replay" for d in rep.degradations)
    fallbacks = [
        d for d in rep.degradations if d.action == "serial-fallback"
    ]
    assert any(d.tool.endswith(":p1") for d in fallbacks)
    # the other partitions' shards came from somewhere (pool or retry),
    # and all three are present in the result
    assert [row[0].index for row in rep.shards] == [0, 1, 2]


# -- runner wiring ------------------------------------------------------------


def test_measure_workload_with_partitions_records_plan():
    def build():
        return get_workload("producer_consumer").build(threads=2, scale=1)

    m = measure_workload(
        "producer_consumer", build, repeats=1, partitions=2
    )
    # single-run traces degrade to one partition, with the reason kept
    assert m.partitions == 1
    assert m.partition_reason is not None
    assert not m.degradations
    assert set(m.tools) == set(DEFAULT_TOOLS)
    for tool in m.tools.values():
        assert tool.replay_time > 0.0


def test_measure_workload_without_partitions_reports_none():
    def build():
        return get_workload("producer_consumer").build(threads=2, scale=1)

    m = measure_workload("producer_consumer", build, repeats=1)
    assert m.partitions is None
    assert m.partition_reason is None


# -- telemetry ----------------------------------------------------------------


def test_partition_metrics_published():
    from repro.obs import MetricsRegistry

    _batch, payload = _three_part_payload()
    registry = MetricsRegistry()
    rep = replay_partitioned(
        payload, partitions=3, kinds=("drms",), workers=1, metrics=registry,
        label="test",
    )
    assert len(rep.plan.partitions) == 3
    labels = {"label": "test"}
    assert registry.gauge("partition.count", labels).value == 3
    assert registry.gauge("partition.imbalance", labels).value >= 0.0
    assert registry.histogram("partition.merge_us", labels).count == 1
    for i in range(3):
        slabels = {"label": "test", "kind": "drms", "partition": str(i)}
        assert registry.gauge("partition.replay_us", slabels).value >= 1
        assert registry.gauge("partition.events", slabels).value > 0
    assert registry.histogram("partition.decode_stall_us", labels).count == 3
