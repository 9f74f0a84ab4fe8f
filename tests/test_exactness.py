"""One differential exactness harness for every replay path.

The contract is the paper's: whatever path replays a trace, every
activation's drms and rms, and every routine's read attribution, are
those of the naive set-based oracle (Figure 7, with the multithreaded
semantics of arXiv 1304.3804).  Each test id below is one cell of the
matrix, so the collected ids are the coverage list:

* engine: ``scalar`` (the ``consume`` loop) or ``columnar`` (the
  kernels);
* dispatch: ``unpartitioned`` (rows fed straight to the profilers),
  ``inline`` partitions (``workers=1``) or ``pooled`` partitions
  (``workers`` 2-3, the parent replaying its own share);
* ``counter_limit``: None, 7 or 64;
* cut kind: ``runs`` (run boundaries at depth zero) or ``carried`` (one
  outer activation, so every cut carries open stacks);
* trace shape: ``random`` multithreaded, ``syscall`` fills,
  ``loops`` (``fillReadLoop`` stream reads), a ``vm`` recording, or a
  ``faulted`` recording under a seeded ``FaultPlan``.

Inside a cell Hypothesis draws the trace, extra execution boundaries
inside fill/read stretches, ``section_events``, a read-ahead budget
(``tracefile._GROUP_ROWS`` of 1, a few or the default rows, so groups
straddle sections) and, partitioned, 1-8 partitions; unpartitioned, the
input policy and the row form: stored fused rows, ``expand_runs`` plain
rows, or hand-built loop rows (n = 1 loops included, which the writer
never emits).  Pooled cells set ``REPRO_PARTITION_FORCE_POOL``, so they
run on every host; the drawn read-ahead budget reaches the parent's own
share, while warm pool workers keep the default.

The one reference is ``NaiveDrmsProfiler``: ``FULL_POLICY`` (or the
drawn policy) for drms profiles, activations and read counters,
``RMS_POLICY`` for rms.  The serial scalar loop is consulted only for
what the oracle does not have: ``metrics_snapshot()``, ``count`` and the
pending stacks.  Partitions restart their renumbering counters, so with
a counter limit a multi-partition drms snapshot is held to the same
plan replayed inline instead.
"""

import functools
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    FULL_POLICY,
    RMS_POLICY,
    DrmsProfiler,
    NaiveDrmsProfiler,
    RmsProfiler,
)
from repro.core import tracefile
from repro.core.events import (
    EventBatch,
    encode_events,
    expand_runs,
    unfold_loops,
)
from repro.core.tracefile import iter_section_batches, plan_partitions
from repro.core.tracing import with_switches
from repro.tools.partition import _KILL_ENV, replay_partitioned
from repro.tools.pool import pool_stats
from repro.vm.faults import FaultPlan
from repro.vm.machine import Machine
from repro.vm.scheduler import RandomScheduler
from repro.workloads.mysql import mysqlslap, select_sweep
from repro.workloads.patterns import producer_consumer
from tests.strategies import (
    ALL_POLICIES,
    activation_sizes,
    closed_sessions,
    concat_runs,
    events_of,
    monolithic,
    pair_starts,
    pending,
    profile_state,
    random_trace,
    read_counts,
    rows_of,
    stream_read,
    stretches,
    syscall_trace,
)

ENGINES = ["scalar", "columnar"]
DISPATCHES = ["unpartitioned", "inline", "pooled"]
COUNTER_LIMITS = [None, 7, 64]
CUTS = ["runs", "carried"]
SHAPES = ["random", "syscall", "loops", "vm", "faulted"]

#: how an unpartitioned replay is fed: the stored fused rows,
#: ``expand_runs`` plain rows, or hand-built loop rows
ROW_FORMS = ["stored", "plain", "loops"]
#: rows per read-ahead group as the decoder ships
DEFAULT_GROUP_ROWS = tracefile._GROUP_ROWS

#: VM recordings, small enough that a counter limit of 7 stays cheap:
#: lock/semaphore traffic on two threads, a table scan whose group
#: reads store ``fillReadLoop`` rows, and two clients sharing a query
#: cache over kernel fills
VM_WORKLOADS = {
    "producer_consumer": lambda machine: producer_consumer(6, machine=machine),
    "mysql_select": lambda machine: select_sweep((16, 64), machine=machine),
    "mysqlslap": lambda machine: mysqlslap(
        clients=2, queries_per_client=1, table_rows=(16, 32), machine=machine
    ),
}


@functools.lru_cache(maxsize=None)
def recording(workload, seed, fault_seed):
    """One run of a VM workload under scheduler ``seed``, faulted by
    ``FaultPlan(fault_seed)`` unless that is None."""
    machine = VM_WORKLOADS[workload](Machine(scheduler=RandomScheduler(seed)))
    if fault_seed is not None:
        machine.set_fault_plan(FaultPlan(seed=fault_seed))
    machine.run()
    return tuple(with_switches(machine.trace))


def shape_runs(shape, complete):
    """A strategy for one run of ``shape`` (not the VM shapes);
    ``complete`` closes syscall sessions, as partitioned replay needs."""
    if shape == "random":
        return random_trace(max_threads=3, max_ops=60)
    if shape == "syscall":
        runs = syscall_trace(max_syscalls=3)
        return runs.map(closed_sessions) if complete else runs
    return stream_read(cells=128).map(events_of)


def join(runs, cut):
    """``(events, boundaries)``: the runs joined at depth-zero run
    boundaries, or wrapped in one outer activation."""
    if cut == "runs":
        return concat_runs(runs)
    return monolithic([e for run in runs for e in run]), []


def vm_trace(key):
    """The trace a VM key names: its recording three times over."""
    workload, seed, fault_seed, cut = key
    return join([recording(workload, seed, fault_seed)] * 3, cut)


@st.composite
def traces(draw, shape, cut, complete):
    """``(events, boundaries, key)``: 1-2 runs of ``shape`` (one
    stream-read run, three copies of a VM recording), joined per
    ``cut``, plus up to three boundaries inside fill/read stretches.
    ``key`` names a VM trace, whose references are cached; it is None
    otherwise."""
    key = None
    if shape in ("vm", "faulted"):
        key = (
            draw(st.sampled_from(sorted(VM_WORKLOADS))),
            draw(st.integers(0, 2)),
            draw(st.integers(0, 3)) if shape == "faulted" else None,
            cut,
        )
        events, bounds = vm_trace(key)
    else:
        runs = draw(
            st.lists(
                shape_runs(shape, complete),
                min_size=1,
                max_size=1 if shape == "loops" else 2,
            )
        )
        events, bounds = join(runs, cut)
    inner = pair_starts(events)
    if inner:
        bounds += draw(st.lists(st.sampled_from(inner), max_size=3))
    return events, sorted(set(bounds)), key


# -- references ---------------------------------------------------------------


def compute_references(events, policy, counter_limit):
    """The oracle's and the serial scalar loop's view of ``events``:

    * ``drms``/``rms``: oracle activations and profile state;
    * ``reads``: oracle read counters;
    * ``drms_serial``/``rms_serial``: the serial loop's snapshot,
      ``count`` and pending stacks;
    * ``drms_final``/``rms_final``: its snapshot after ``begin_trace()``,
      the state a merged partitioned replay ends in.
    """
    ref = {}
    for kind, oracle_policy in (("drms", policy), ("rms", RMS_POLICY)):
        oracle = NaiveDrmsProfiler(policy=oracle_policy)
        oracle.run(events)
        ref[kind] = (
            activation_sizes(oracle.profiles), profile_state(oracle.profiles)
        )
        if kind == "drms":
            ref["reads"] = read_counts(oracle)
    for kind, serial in (
        ("drms", DrmsProfiler(policy=policy, counter_limit=counter_limit)),
        ("rms", RmsProfiler()),
    ):
        serial.run(events)
        ref[kind + "_serial"] = (
            serial.metrics_snapshot(), serial.count, pending(serial)
        )
        if not serial.live_activations():  # partitioned traces are complete
            serial.begin_trace()
            ref[kind + "_final"] = serial.metrics_snapshot()
    return ref


@functools.lru_cache(maxsize=None)
def vm_references(key, policy, counter_limit):
    return compute_references(vm_trace(key)[0], policy, counter_limit)


def references(events, key, policy, counter_limit):
    """:func:`compute_references`, cached for a VM trace."""
    if key:
        return vm_references(key, policy, counter_limit)
    return compute_references(events, policy, counter_limit)


# -- the dispatches -----------------------------------------------------------


def row_batches(events, payload, form, section_events):
    """The batches an unpartitioned replay feeds: the stored rows as the
    decoder yields them, the same rows expanded to one per event, or
    hand-built loop rows cut every ``section_events`` rows."""
    if form == "loops":
        rows = rows_of(stretches(events))
        return [
            EventBatch(
                rows.ops[lo : lo + section_events],
                rows.threads[lo : lo + section_events],
                rows.args[lo : lo + section_events],
                rows.costs[lo : lo + section_events],
                names=rows.names,
            )
            for lo in range(0, len(rows), section_events)
        ]
    stored = list(iter_section_batches(payload))
    return stored if form == "stored" else [expand_runs(b) for b in stored]


def check_unpartitioned(engine, counter_limit, events, key, payload,
                        section_events, data):
    policy = data.draw(st.sampled_from(ALL_POLICIES), label="policy")
    form = data.draw(st.sampled_from(ROW_FORMS), label="form")
    batches = row_batches(events, payload, form, section_events)
    # whatever the row form, the batches stand for the recording
    for view in (batches, [unfold_loops(b) for b in batches]):
        assert [e for b in view for e in b.iter_events()] == events
    assert sum(b.event_count() for b in batches) == len(events)
    plain, expanded = encode_events(events), [expand_runs(b) for b in batches]
    for lane in ("ops", "threads", "args", "costs"):
        got = [v for b in expanded for v in getattr(b, lane)]
        assert got == list(getattr(plain, lane))

    drms = DrmsProfiler(policy=policy, counter_limit=counter_limit)
    rms = RmsProfiler()
    for batch in batches:
        for prof in (drms, rms):
            if engine == "columnar":
                prof.consume_columnar(batch)
            else:
                prof.run(batch.iter_events())
    ref = references(events, key, policy, counter_limit)
    for prof, kind in ((drms, "drms"), (rms, "rms")):
        state = (activation_sizes(prof.profiles), profile_state(prof.profiles))
        assert state == ref[kind]
        serial = (prof.metrics_snapshot(), prof.count, pending(prof))
        assert serial == ref[kind + "_serial"]
    assert read_counts(drms) == ref["reads"]


def check_partitioned(engine, dispatch, counter_limit, cut, events, key,
                      payload, data):
    plan = plan_partitions(
        payload, data.draw(st.integers(1, 8), label="partitions")
    )
    n_parts = len(plan.partitions)
    assert 1 <= n_parts <= plan.requested
    if cut == "carried":
        assert plan.safe_boundaries == 0
        assert plan.carried > 0 or n_parts == 1
    workers, env = 1, {}
    if dispatch == "pooled":
        workers = data.draw(st.integers(2, 3), label="workers")
        env = {"REPRO_PARTITION_FORCE_POOL": "1"}
    with mock.patch.dict(os.environ, env):
        os.environ.pop(_KILL_ENV, None)
        tasks = pool_stats()["tasks"]
        rep = replay_partitioned(
            payload, plan=plan, kinds=("drms", "rms"), engine=engine,
            workers=workers, counter_limit=counter_limit, timeout=120.0,
        )
        if dispatch == "pooled" and n_parts <= workers:
            # the parent replays one share itself
            assert pool_stats()["tasks"] == tasks + n_parts - 1
    assert rep.degradations == []

    drms, rms = rep.profilers["drms"], rep.profilers["rms"]
    ref = references(events, key, FULL_POLICY, counter_limit)
    assert profile_state(drms.profiles) == ref["drms"][1]
    assert read_counts(drms) == ref["reads"]
    if key and key[0] != "producer_consumer":
        # the table scans read what the kernel filled
        assert any(counts[2] for counts in ref["reads"].values())
    assert profile_state(rms.profiles) == ref["rms"][1]
    assert rms.metrics_snapshot() == ref["rms_final"]
    if counter_limit is None or n_parts == 1:
        assert drms.metrics_snapshot() == ref["drms_final"]
    else:
        with mock.patch.object(tracefile, "_GROUP_ROWS", DEFAULT_GROUP_ROWS):
            inline = replay_partitioned(
                payload, plan=plan, kinds=("drms",), workers=1,
                counter_limit=counter_limit,
            )
        want = inline.profilers["drms"].metrics_snapshot()
        assert drms.metrics_snapshot() == want


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("cut", CUTS)
@pytest.mark.parametrize("counter_limit", COUNTER_LIMITS)
@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("engine", ENGINES)
@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_exact(engine, dispatch, counter_limit, cut, shape, data):
    events, bounds, key = data.draw(
        traces(shape, cut, complete=dispatch != "unpartitioned"), label="trace"
    )
    section_events = data.draw(st.integers(2, 64), label="section_events")
    payload = encode_events(events).to_bytes(
        section_events=section_events, boundaries=bounds
    )
    budget = data.draw(
        st.one_of(
            st.just(1), st.integers(2, 40), st.just(DEFAULT_GROUP_ROWS)
        ),
        label="group_rows",
    )
    with mock.patch.object(tracefile, "_GROUP_ROWS", budget):
        if dispatch == "unpartitioned":
            check_unpartitioned(
                engine, counter_limit, events, key, payload, section_events,
                data,
            )
        else:
            check_partitioned(
                engine, dispatch, counter_limit, cut, events, key, payload,
                data,
            )
