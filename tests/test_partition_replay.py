"""Partitioned replay: crafted cases, merge, supervision and telemetry.

Partitioned replay equals the serial replay and the naive oracle on
every trace shape, engine, dispatch and counter limit
(``test_exactness.py``).  This suite pins what a random trace does not
reach: the cold-read reclassification cases one by one, the registry
workloads, how shards merge (and refuse an incomplete set), how many
decode passes and kernel calls a partition makes, and worker death
mid-partition, which must degrade per the pool's supervision discipline
(retry, then an inline fallback for that partition only) with the
result still exact.  Figure 4's ``mysql_select`` run, cut at run
boundaries or mid-activation, replays exactly with pool workers beside
the parent's own share.
"""

import functools

import pytest

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
from tests.strategies import (
    concat_runs,
    dumps_pre_index,
    profile_state,
    read_counts,
    serial_profilers,
)


# -- crafted cases ------------------------------------------------------------


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


def test_shard_pickled_with_a_retired_field_loads_from_a_store_and_merges(
    tmp_path,
):
    """Shards a sweep store already holds keep loading after a field is
    retired from ``PartitionShard``: the shard codec restores every
    stored attribute, so the stale ``queue_depth_hwm`` rides along
    unused and the shards still merge to the serial profiles."""
    from repro.sweep import TraceKey, TraceStore

    batch, payload = _three_part_payload()
    plan = plan_partitions(payload, 3)
    store = TraceStore(str(tmp_path))
    key = TraceKey("three_part", 1, 1)
    for part in plan.partitions:
        (shard,) = replay_partition(payload, part, ("drms",), 3)
        shard.queue_depth_hwm = 0  # the field as shards carried it
        store.put_shard(key, f"drms.p{part.index}of3", shard)
    rows = [[store.get_shard(key, f"drms.p{i}of3")] for i in range(3)]
    assert all(row[0].queue_depth_hwm == 0 for row in rows)
    merged = merge_partition_shards(rows)
    serial_drms, _serial_rms = serial_profilers(batch)
    assert (
        merged["drms"].metrics_snapshot() == serial_drms.metrics_snapshot()
    )


def test_shards_pickled_before_the_codec_are_stale_in_a_store_and_recomputed(
    tmp_path, monkeypatch
):
    """A drms+rms shard set a store holds from before the shard codec —
    pickles, here with every shadow memory in the pre-index layout — is
    never unpickled: ``get_shard`` counts each file stale and returns
    ``None``, and the shards replayed again in their place load and
    merge to the serial profiles."""
    import os
    import pickle

    from repro.sweep import SHARD_VERSION, TraceKey, TraceStore

    batch, payload = _three_part_payload()
    plan = plan_partitions(payload, 3)
    store = TraceStore(str(tmp_path))
    key = TraceKey("three_part", 1, 1)
    replayed = [
        replay_partition(payload, part, ("drms", "rms"), 3)
        for part in plan.partitions
    ]
    for index, row in enumerate(replayed):
        for shard in row:
            kind = f"{shard.kind}.p{index}of3"
            path = store.shard_path(key, kind)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            stored = dumps_pre_index(("repro-shard", SHARD_VERSION, kind, shard))
            with open(path, "wb") as handle:
                handle.write(stored)

    def refuse(*_args, **_kwargs):
        raise AssertionError("a stored shard was unpickled")

    monkeypatch.setattr(pickle, "loads", refuse)
    kinds = [
        [f"{kind}.p{i}of3" for kind in ("drms", "rms")] for i in range(3)
    ]
    assert all(
        store.get_shard(key, kind) is None for row in kinds for kind in row
    )
    assert store.sidecar_stats() == {"sidecar_corrupt": 0, "sidecar_stale": 6}
    for row, shards in zip(kinds, replayed):
        for kind, shard in zip(row, shards):
            store.put_shard(key, kind, shard)
    merged = merge_partition_shards(
        [[store.get_shard(key, kind) for kind in row] for row in kinds]
    )
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
    calls = {"decode": 0, "events": 0, "fuse": 0}
    real_iter = partition.iter_section_batches

    def counting_iter(*args, **kwargs):
        calls["decode"] += 1
        for batch in real_iter(*args, **kwargs):
            calls["events"] += batch.event_count()
            yield batch

    def counting_fuse(*args, **kwargs):
        calls["fuse"] += 1
        raise AssertionError("replay must not fuse")

    monkeypatch.setattr(partition, "iter_section_batches", counting_iter)
    monkeypatch.setattr(partition, "fuse_batch", counting_fuse)
    monkeypatch.setattr(events, "fuse_batch", counting_fuse)
    monkeypatch.setattr(events, "_fuse", counting_fuse)
    shards = replay_partition(payload, part, ("drms", "rms"), 1)
    assert calls["decode"] == 1
    assert calls["events"] == part.events
    assert part.sections > 1
    assert calls["fuse"] == 0
    assert [s.kind for s in shards] == ["drms", "rms"]
    assert shards[0].decode_stall_s == shards[1].decode_stall_s > 0.0
    assert shards[0].backpressure_s == 0
    merged = merge_partition_shards([shards])
    serial_drms, serial_rms = serial_profilers(batch)
    assert (
        merged["drms"].metrics_snapshot() == serial_drms.metrics_snapshot()
    )
    assert merged["rms"].metrics_snapshot() == serial_rms.metrics_snapshot()


# -- coalesced replay batches -------------------------------------------------


def test_fig4_partition_makes_one_kernel_call_per_kind(monkeypatch):
    """A fig-4 ``mysql_select`` ×16 partition (dozens of ~10-row
    sections) replays as one batch: each kind's kernel is called once."""
    from repro.vm.machine import Machine
    from repro.vm.scheduler import RandomScheduler
    from repro.workloads.mysql import select_sweep

    machine = select_sweep(machine=Machine(scheduler=RandomScheduler(7)))
    machine.run()
    events, bounds = concat_runs([with_switches(machine.trace)] * 16)
    payload = encode_events(events).to_bytes(boundaries=bounds)
    plan = plan_partitions(payload, 2)
    calls = {"drms": 0, "rms": 0}
    for kind, cls in (("drms", DrmsProfiler), ("rms", RmsProfiler)):
        real = cls.consume_columnar

        def counting(self, batch, real=real, kind=kind):
            calls[kind] += 1
            real(self, batch)

        monkeypatch.setattr(cls, "consume_columnar", counting)
    for part in plan.partitions:
        assert part.sections > 16
        calls["drms"] = calls["rms"] = 0
        replay_partition(payload, part, ("drms", "rms"), 2)
        assert calls == {"drms": 1, "rms": 1}


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


def test_killed_partition_worker_is_respawned_alone(monkeypatch):
    """Killing the worker of partition 1 fails only partition 1: exactly
    one worker is respawned, partition 0 records nothing, and the merged
    profile is still the serial one."""
    from repro.tools.pool import pool_stats

    batch, payload = _three_part_payload()
    plan = plan_partitions(payload, 2)
    assert len(plan.partitions) == 2
    monkeypatch.setenv(_KILL_ENV, "1")
    before = pool_stats()["respawns_broken"]
    rep = replay_partitioned(
        payload,
        plan=plan,
        kinds=("drms",),
        workers=2,
        timeout=60.0,
        max_retries=0,
        backoff_base=0.01,
    )
    assert pool_stats()["respawns_broken"] == before + 1
    assert [(d.tool, d.action) for d in rep.degradations] == [
        ("partition:p1", "serial-fallback")
    ]
    assert not any(d.tool.endswith(":p0") for d in rep.degradations)
    serial, _ = serial_profilers(batch)
    assert rep.profilers["drms"].metrics_snapshot() == serial.metrics_snapshot()
    assert profile_state(rep.profilers["drms"].profiles) == profile_state(
        serial.profiles
    )


def test_killed_partition_worker_beside_the_parent_share_is_respawned_alone(
    monkeypatch,
):
    """Three partitions on three workers: partitions 0 and 1 go to two
    pool workers and the parent replays partition 2.  Killing partition
    1's worker respawns that worker alone; partition 0 records nothing,
    and partition 1 falls back to an inline replay in the parent."""
    from repro.obs import SpanTracer
    from repro.tools.pool import get_pool, pool_stats

    batch, payload = _three_part_payload()
    plan = plan_partitions(payload, 3)
    assert len(plan.partitions) == 3
    monkeypatch.setenv("REPRO_PARTITION_FORCE_POOL", "1")
    monkeypatch.setenv(_KILL_ENV, "1")
    get_pool().ensure(2)
    before = pool_stats()
    tracer = SpanTracer()
    rep = replay_partitioned(
        payload,
        plan=plan,
        kinds=("drms",),
        workers=3,
        timeout=60.0,
        max_retries=0,
        backoff_base=0.01,
        tracer=tracer,
    )
    after = pool_stats()
    assert after["respawns_broken"] == before["respawns_broken"] + 1
    assert after["spawns"] == before["spawns"] + 1
    assert after["tasks"] == before["tasks"] + 2
    assert [(d.tool, d.action) for d in rep.degradations] == [
        ("partition:p1", "serial-fallback")
    ]
    assert [
        (e["args"]["partition"], e["args"]["mode"])
        for e in tracer.events
        if e["name"] == "partition-replay"
    ] == [(2, "parent"), (1, "inline")]
    serial, _ = serial_profilers(batch)
    assert rep.profilers["drms"].metrics_snapshot() == serial.metrics_snapshot()
    assert profile_state(rep.profilers["drms"].profiles) == profile_state(
        serial.profiles
    )


# -- pooled replay with the parent's share ------------------------------------


@functools.lru_cache(maxsize=2)
def _fig4_case(carried):
    """Figure 4's ``mysql_select`` run: ×4 with run boundaries, or one
    run alone cut mid-activation (``carried``); plus the naive oracle
    and the serial replay per counter limit."""
    machine = get_workload("mysql_select").build(threads=4, scale=1)
    machine.run()
    run = with_switches(machine.trace)
    if carried:
        events, batch = run, encode_events(run)
        payload = batch.to_bytes(section_events=512)
    else:
        events, bounds = concat_runs([run] * 4)
        batch = encode_events(events)
        payload = batch.to_bytes(boundaries=bounds)
    oracle = NaiveDrmsProfiler(policy=FULL_POLICY)
    oracle.run(events)
    serial = {limit: serial_profilers(batch, limit) for limit in (None, 7)}
    return payload, oracle, serial


@functools.lru_cache(maxsize=None)
def _inline_snapshot(carried, n_parts, counter_limit):
    """Renumbering passes count per partition, so the drms snapshot a
    pooled replay must reproduce is that of the same plan replayed
    inline."""
    payload = _fig4_case(carried)[0]
    rep = replay_partitioned(
        payload, partitions=n_parts, kinds=("drms",), workers=1,
        counter_limit=counter_limit,
    )
    return rep.profilers["drms"].metrics_snapshot()


@pytest.mark.parametrize("counter_limit", [None, 7])
@pytest.mark.parametrize("engine", ["scalar", "columnar"])
@pytest.mark.parametrize("carried", [False, True], ids=["runs", "carried"])
def test_pooled_replay_with_parent_share_equals_serial_and_oracle(
    monkeypatch, carried, engine, counter_limit
):
    """Pool workers and the parent's own share merge to the serial
    replay and the oracle, with one pool task fewer than partitions."""
    from repro.tools.pool import pool_stats

    monkeypatch.setenv("REPRO_PARTITION_FORCE_POOL", "1")
    monkeypatch.delenv(_KILL_ENV, raising=False)
    payload, oracle, serial = _fig4_case(carried)
    serial_drms, serial_rms = serial[counter_limit]
    for n_parts in (2, 3, 4):
        plan = plan_partitions(payload, n_parts)
        assert len(plan.partitions) == n_parts
        assert (plan.carried > 0) == carried
        for workers in (2, 3):
            tasks = pool_stats()["tasks"]
            rep = replay_partitioned(
                payload, plan=plan, kinds=("drms", "rms"), engine=engine,
                workers=workers, counter_limit=counter_limit, timeout=120.0,
            )
            assert rep.degradations == []
            if n_parts <= workers:
                assert pool_stats()["tasks"] == tasks + n_parts - 1
            drms, rms = rep.profilers["drms"], rep.profilers["rms"]
            for merged, want in ((drms, serial_drms), (rms, serial_rms)):
                assert profile_state(merged.profiles) == profile_state(
                    want.profiles
                )
            assert profile_state(drms.profiles) == profile_state(
                oracle.profiles
            )
            assert read_counts(drms) == read_counts(serial_drms)
            assert read_counts(drms) == read_counts(oracle)
            assert rms.metrics_snapshot() == serial_rms.metrics_snapshot()
            assert drms.metrics_snapshot() == _inline_snapshot(
                carried, n_parts, counter_limit
            )
            if counter_limit is None:
                assert drms.metrics_snapshot() == (
                    serial_drms.metrics_snapshot()
                )


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


def test_partition_metrics_published(monkeypatch):
    from repro.obs import MetricsRegistry, SpanTracer

    _batch, payload = _three_part_payload()
    registry = MetricsRegistry()
    tracer = SpanTracer()
    rep = replay_partitioned(
        payload, partitions=3, kinds=("drms",), workers=1, metrics=registry,
        label="test", tracer=tracer,
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

    def modes(tracer):
        return [
            (e["args"]["partition"], e["args"]["mode"])
            for e in tracer.events
            if e["name"] == "partition-replay"
        ]

    assert modes(tracer) == [(0, "inline"), (1, "inline"), (2, "inline")]
    # a pooled round: the parent's own share is span mode "parent" and
    # publishes the same per-shard gauges as the pooled shards
    monkeypatch.setenv("REPRO_PARTITION_FORCE_POOL", "1")
    monkeypatch.delenv(_KILL_ENV, raising=False)
    registry = MetricsRegistry()
    tracer = SpanTracer()
    rep = replay_partitioned(
        payload, partitions=3, kinds=("drms",), workers=3, metrics=registry,
        label="test", tracer=tracer,
    )
    assert not rep.degradations
    assert modes(tracer) == [(2, "parent")]
    for i in range(3):
        slabels = {"label": "test", "kind": "drms", "partition": str(i)}
        assert registry.gauge("partition.replay_us", slabels).value >= 1
        assert registry.gauge("partition.events", slabels).value > 0


def test_decode_stall_observed_once_per_partition_for_every_kind():
    """drms and rms share one decode pass per partition, so the stall
    histogram counts partitions, not shards."""
    from repro.obs import MetricsRegistry

    _batch, payload = _three_part_payload()
    registry = MetricsRegistry()
    rep = replay_partitioned(
        payload, partitions=3, kinds=("drms", "rms"), workers=1,
        metrics=registry, label="test",
    )
    assert len(rep.plan.partitions) == 3
    assert all(len(row) == 2 for row in rep.shards)
    stall = registry.histogram("partition.decode_stall_us", {"label": "test"})
    assert stall.count == 3


def test_decode_stall_sampled_once_per_partition_across_sidecars(
    monkeypatch, tmp_path
):
    """With a span context (the service path) every partition's
    decode-stall counter sample is written once, by the process that
    replayed it — a pool worker, or the parent for its own share —
    whatever the number of profiler kinds."""
    from repro.obs.distributed import discover_sidecars, read_sidecar

    monkeypatch.setenv("REPRO_PARTITION_FORCE_POOL", "1")
    monkeypatch.delenv(_KILL_ENV, raising=False)
    _batch, payload = _three_part_payload()
    trace = {"trace_id": "t-stall", "job": "job", "spans_dir": str(tmp_path)}
    rep = replay_partitioned(
        payload, partitions=3, kinds=("drms", "rms"), workers=3, trace=trace
    )
    assert len(rep.plan.partitions) == 3
    assert not rep.degradations
    sidecars = discover_sidecars(str(tmp_path))
    assert len(sidecars) == 3  # two pool partitions and the parent
    samples = sorted(
        (event["tid"], event["name"])
        for path in sidecars
        for event in read_sidecar(path).events
        if event["ph"] == "C"
    )
    assert samples == [
        (f"p{i}", "partition.decode_stall_us") for i in range(3)
    ]


def test_partitions_follow_the_affinity_mask(monkeypatch):
    """Auto partitioning and the single-CPU inline degrade count the CPUs
    this process may run on, not the CPUs the host has."""
    import os

    from repro.tools import partition, pool

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.delenv("REPRO_PARTITION_FORCE_POOL", raising=False)
    monkeypatch.delenv(_KILL_ENV, raising=False)
    assert pool.usable_cpus() == 1
    assert resolve_partitions(0) == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU replay submitted a pool task")

    monkeypatch.setattr(partition, "supervise", no_pool)
    batch, payload = _three_part_payload()
    rep = replay_partitioned(payload, partitions=2, kinds=("drms",), workers=2)
    assert len(rep.plan.partitions) == 2
    assert not rep.degradations
    serial_drms, _serial_rms = serial_profilers(batch)
    assert rep.profilers["drms"].metrics_snapshot() == (
        serial_drms.metrics_snapshot()
    )


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    import os

    from repro.tools import pool

    def unsupported(pid):
        raise OSError("no affinity here")

    monkeypatch.setattr(os, "sched_getaffinity", unsupported, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pool.usable_cpus() == 3
