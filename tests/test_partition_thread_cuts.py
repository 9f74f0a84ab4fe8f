"""Per-thread partition cuts (PR 9 tentpole).

PR 6 could only cut a trace at depth-zero section boundaries, so a
monolithic trace — one long activation wrapping everything — always
degraded to a single partition.  The planner may now cut at *any*
section boundary, carrying each thread's open shadow stack into the
next partition as seeded placeholder activations; that the merged
profiles equal the serial replay and the naive oracle on arbitrary
carried traces is ``test_exactness.py``'s (its ``carried`` cells).
These tests pin a crafted carried trace under both engines, the
Figure 4 acceptance case, and a worker hard-killed mid-stream, which
must retry/fall back with the merged result still exact.
"""

import pytest

from repro.core.events import (
    Call,
    Read,
    Return,
    Write,
    encode_events,
)
from repro.core.tracefile import plan_partitions
from repro.core.tracing import with_switches
from repro.tools.partition import _KILL_ENV, replay_partitioned
from repro.workloads.registry import get_workload
from tests.strategies import monolithic, serial_profilers


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


# -- crafted carried trace ----------------------------------------------------


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
    )
    serial, _ = serial_profilers(batch)
    assert (
        rep.profilers["drms"].metrics_snapshot() == serial.metrics_snapshot()
    )
    assert rep.degradations
    assert all(d.stage == "partition-replay" for d in rep.degradations)
    assert [row[0].index for row in rep.shards] == [0, 1, 2]
