"""Per-thread partition cuts (PR 9 tentpole).

PR 6 could only cut a trace at depth-zero section boundaries, so a
monolithic trace — one long activation wrapping everything — always
degraded to a single partition.  These tests pin the generalisation:
the planner may now cut at *any* section boundary, carrying each
thread's open shadow stack into the next partition as seeded
placeholder activations, and the streaming shard merge must reconstruct
profiles, read attribution, and the full telemetry snapshot **byte-
exact** against the serial replay and the naive set-based oracle — on
arbitrary monolithic multi-thread traces, at every partition count,
under both profilers, all three replay engines, tiny counter limits,
and fault-injected recordings.  A worker hard-killed mid-stream must
retry/fall back with the merged result still exact.
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
    Read,
    Return,
    SwitchThread,
    Write,
    encode_events,
)
from repro.core.tracefile import plan_partitions
from repro.core.tracing import with_switches
from repro.tools.partition import _KILL_ENV, replay_partitioned
from repro.workloads.registry import get_workload
from tests.test_oracle_property import random_trace
from tests.test_partition_replay import (
    profile_state,
    read_counts,
    serial_profilers,
)


def monolithic(events, cost=3):
    """Wrap a merged trace in one outer activation on thread 1 so no
    depth-zero boundary exists anywhere inside: every cut the planner
    makes is a mid-activation per-thread carry."""
    raw = [e for e in events if not isinstance(e, SwitchThread)]
    return with_switches(
        [Call(1, "outer", cost)] + raw + [Return(1, cost * 2)]
    )


@st.composite
def monolithic_trace(draw):
    return monolithic(draw(random_trace(max_threads=3, max_ops=80)))


def fixed_monolithic():
    """A small deterministic monolithic trace exercising carried stacks
    on two threads plus cross-thread cold reads over the cuts."""
    events = []
    for k in range(6):
        events.append(Call(1, f"a{k % 2}"))
        events.append(Call(2, f"b{k % 3}"))
        for i in range(5):
            events.append(Write(1, 0x40 + (k * 5 + i) % 16))
            events.append(Read(2, 0x40 + (k * 7 + i) % 16))
            events.append(Read(1, 0x80 + i))
        events.append(Return(2))
    for _ in range(6):
        events.append(Return(1))
    return monolithic(events)


# -- the equivalence property -------------------------------------------------


@given(monolithic_trace(), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_thread_cuts_equal_serial_and_oracle(events, n_parts):
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=16)
    rep = replay_partitioned(
        payload, partitions=n_parts, kinds=("drms", "rms"), workers=1
    )
    assert not rep.degradations
    # a monolithic trace has no safe depth-zero boundary, so any
    # multi-partition plan must be carried
    assert rep.plan.safe_boundaries == 0
    if len(rep.plan.partitions) > 1:
        assert rep.plan.carried > 0

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


@given(monolithic_trace(), st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_thread_cuts_counter_limit_profiles_exact(events, n_parts):
    """Tiny renumbering counter limits interact with seeded stamps; the
    renumbering pass counts legitimately differ but profiles and read
    attribution must not."""
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=16)
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
def test_thread_cuts_exact_across_engines(engine):
    events = fixed_monolithic()
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=16)
    plan = plan_partitions(payload, 4)
    assert plan.reason is None and len(plan.partitions) >= 2
    assert plan.carried > 0
    rep = replay_partitioned(
        payload, plan=plan, kinds=("drms", "rms"), engine=engine, workers=1
    )
    serial_drms, serial_rms = serial_profilers(batch)
    assert (
        rep.profilers["drms"].metrics_snapshot()
        == serial_drms.metrics_snapshot()
    )
    assert (
        rep.profilers["rms"].metrics_snapshot()
        == serial_rms.metrics_snapshot()
    )


def test_faulted_monolithic_trace_partitions_exact():
    from repro.vm.faults import FaultPlan

    machine = get_workload("producer_consumer").build(threads=2, scale=1)
    machine.set_fault_plan(FaultPlan(seed=11))
    machine.run()
    events = monolithic(with_switches(machine.trace))
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=32)
    serial_drms, serial_rms = serial_profilers(batch)
    for n in (2, 4):
        rep = replay_partitioned(
            payload, partitions=n, kinds=("drms", "rms"), workers=1
        )
        assert rep.plan.carried > 0
        assert (
            rep.profilers["drms"].metrics_snapshot()
            == serial_drms.metrics_snapshot()
        )
        assert (
            rep.profilers["rms"].metrics_snapshot()
            == serial_rms.metrics_snapshot()
        )


def test_streaming_equals_barrier_merge():
    """``stream=True`` folds shards as they arrive; ``stream=False``
    collects them all first.  Identical results, same fix-up count."""
    events = fixed_monolithic()
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=16)
    streamed = replay_partitioned(
        payload, partitions=4, kinds=("drms", "rms"), workers=1, stream=True
    )
    barrier = replay_partitioned(
        payload, partitions=4, kinds=("drms", "rms"), workers=1, stream=False
    )
    for kind in ("drms", "rms"):
        assert (
            streamed.profilers[kind].metrics_snapshot()
            == barrier.profilers[kind].metrics_snapshot()
        )
    assert (
        streamed.cold_reads_reclassified == barrier.cold_reads_reclassified
    )


# -- acceptance: the Figure 4 monolithic trace --------------------------------


def test_monolithic_mysql_select_plans_multiway_and_exact():
    """The PR 9 acceptance case: a single Figure 4 ``mysql_select`` run
    (which PR 6 planned as one partition) now plans >= 2 partitions at
    ``--partitions 4`` with the merged profile byte-identical to the
    serial replay."""
    machine = get_workload("mysql_select").build(threads=4, scale=1)
    machine.run()
    batch = encode_events(with_switches(machine.trace))
    payload = batch.to_bytes()
    plan = plan_partitions(payload, 4)
    assert plan.reason is None
    assert len(plan.partitions) >= 2
    assert plan.carried > 0
    rep = replay_partitioned(
        payload, plan=plan, kinds=("drms", "rms"), workers=1
    )
    serial_drms, serial_rms = serial_profilers(batch)
    assert (
        rep.profilers["drms"].metrics_snapshot()
        == serial_drms.metrics_snapshot()
    )
    assert (
        rep.profilers["rms"].metrics_snapshot()
        == serial_rms.metrics_snapshot()
    )


# -- supervision: worker death mid-stream -------------------------------------


def test_streaming_merge_survives_worker_kill(monkeypatch):
    """SIGKILL-ing a worker mid-stream (simulating OOM) must not poison
    the incremental fold: the retried/fallback shard arrives out of
    order, the folder re-sequences it, and the merged profile is still
    byte-identical, with the degradation recorded."""
    events = fixed_monolithic()
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=16)
    plan = plan_partitions(payload, 3)
    assert len(plan.partitions) == 3 and plan.carried > 0
    monkeypatch.setenv(_KILL_ENV, "1")
    rep = replay_partitioned(
        payload,
        plan=plan,
        kinds=("drms",),
        workers=2,
        timeout=60.0,
        max_retries=1,
        backoff_base=0.01,
        stream=True,
    )
    serial, _ = serial_profilers(batch)
    assert (
        rep.profilers["drms"].metrics_snapshot() == serial.metrics_snapshot()
    )
    assert rep.degradations
    assert all(d.stage == "partition-replay" for d in rep.degradations)
    assert [row[0].index for row in rep.shards] == [0, 1, 2]
