"""Property tests for the opcode-encoded event pipeline.

The fast path must be invisible: on arbitrary multi-threaded traces the
profilers fed a plain (unfused) opcode batch — ``run_batch`` /
``consume_columnar``, the columnar kernel — must leave exactly the same
state as the scalar ``consume`` loop and as the naive set-based oracle —
profiles, read-attribution counters and shadow-space footprint — and the
encode/decode layer must round-trip every event unchanged.  Each tool of
the Table 1 harness is likewise checked batch-vs-scalar, and the
machine's batch sink must record the same trace its scalar sink sees.
(Fused batches are covered in ``test_columnar_kernel.py``.)
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EXTERNAL_ONLY_POLICY,
    FULL_POLICY,
    RMS_POLICY,
    DrmsProfiler,
    InputPolicy,
    NaiveDrmsProfiler,
    RmsProfiler,
)
from repro.core.events import (
    Call,
    EventBatch,
    KernelToUser,
    LockAcquire,
    LockRelease,
    Read,
    Return,
    SwitchThread,
    ThreadExit,
    ThreadStart,
    TraceEncoder,
    UserToKernel,
    Write,
    decode_batch,
    encode_events,
)
from repro.core.tracing import with_switches
from repro.tools import DEFAULT_TOOLS
from repro.workloads.patterns import producer_consumer

ADDRESSES = [0x10, 0x11, 0x12, 0x13, 0x200, 0x7FFF0]
THREAD_ONLY_POLICY = InputPolicy(thread_input=True, external_input=False)
ALL_POLICIES = [FULL_POLICY, RMS_POLICY, EXTERNAL_ONLY_POLICY, THREAD_ONLY_POLICY]


@st.composite
def random_trace(draw, max_threads=3, max_ops=120):
    """A random, well-formed, merged multi-threaded trace.

    Same shape as the oracle-equivalence strategy, plus the auxiliary
    events (locks, thread lifecycle) so every opcode of the batch layer
    is exercised; pending activations are closed at the end.
    """
    n_threads = draw(st.integers(1, max_threads))
    n_ops = draw(st.integers(0, max_ops))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)

    depths = {t: 0 for t in range(1, n_threads + 1)}
    next_id = {t: 0 for t in range(1, n_threads + 1)}
    events = [ThreadStart(t, 0 if t == 1 else 1) for t in range(1, n_threads + 1)]
    for _ in range(n_ops):
        thread = rng.randint(1, n_threads)
        choices = ["read", "write", "k2u", "u2k", "call", "lock"]
        if depths[thread] > 0:
            choices.append("return")
            # bias toward memory traffic inside routines
            choices += ["read", "write"]
        op = rng.choice(choices)
        addr = rng.choice(ADDRESSES)
        if op == "call":
            events.append(Call(thread, f"r{next_id[thread] % 5}"))
            next_id[thread] += 1
            depths[thread] += 1
        elif op == "return":
            events.append(Return(thread))
            depths[thread] -= 1
        elif op == "read":
            events.append(Read(thread, addr))
        elif op == "write":
            events.append(Write(thread, addr))
        elif op == "k2u":
            events.append(KernelToUser(thread, addr))
        elif op == "lock":
            name = f"m{rng.randint(0, 2)}"
            events.append(LockAcquire(thread, name))
            events.append(LockRelease(thread, name))
        else:
            events.append(UserToKernel(thread, addr))
    for thread, depth in depths.items():
        for _ in range(depth):
            events.append(Return(thread))
    for thread in range(1, n_threads + 1):
        events.append(ThreadExit(thread))
    return with_switches(events)


def activation_sizes(profiles):
    return [(rtn, t, size) for rtn, t, size, _cost in profiles.activations]


def profile_state(profiles):
    """Full comparable projection of a ProfileSet (points are dataclasses
    with value equality)."""
    return {
        key: (p.calls, p.total_input, p.points) for key, p in profiles
    }


# -- encode/decode ------------------------------------------------------------


@given(random_trace())
@settings(max_examples=200, deadline=None)
def test_encode_decode_round_trip(events):
    batch = encode_events(events)
    assert len(batch) == len(events)
    assert decode_batch(batch) == events


@given(random_trace())
@settings(max_examples=100, deadline=None)
def test_batch_bytes_round_trip(events):
    batch = encode_events(events)
    clone = EventBatch.from_bytes(batch.to_bytes())
    assert decode_batch(clone) == events


@given(random_trace(), st.integers(1, 17))
@settings(max_examples=50, deadline=None)
def test_encoder_flushing_preserves_order_and_interning(events, flush):
    """Chunked emission through a consumer re-assembles to the same trace
    regardless of flush granularity (intern ids stay stable across
    flushes because batches share the name table)."""
    batches = []
    encoder = TraceEncoder(consumer=batches.append, flush_events=flush)
    for event in events:
        encoder.append_event(event)
    encoder.flush()
    reassembled = [e for b in batches for e in b.iter_events()]
    assert reassembled == events


# -- profiler equivalence -----------------------------------------------------


@given(random_trace(), st.sampled_from(ALL_POLICIES))
@settings(max_examples=200, deadline=None)
def test_drms_batch_equals_scalar_and_oracle(events, policy):
    batch = encode_events(events)
    columnar = DrmsProfiler(policy=policy)
    scalar = DrmsProfiler(policy=policy)
    oracle = NaiveDrmsProfiler(policy=policy)
    columnar.run_batch(batch)
    scalar.run(events)
    oracle.run(events)
    assert activation_sizes(columnar.profiles) == activation_sizes(
        oracle.profiles
    )
    assert activation_sizes(scalar.profiles) == activation_sizes(
        oracle.profiles
    )
    assert profile_state(columnar.profiles) == profile_state(scalar.profiles)
    columnar_counts = {
        r: tuple(c) for r, c in columnar.read_counters.items() if any(c)
    }
    oracle_counts = {
        r: tuple(c) for r, c in oracle.read_counters.items() if any(c)
    }
    assert columnar_counts == oracle_counts
    assert columnar.space_cells() == scalar.space_cells()


@given(random_trace())
@settings(max_examples=150, deadline=None)
def test_rms_batch_equals_scalar(events):
    batch = encode_events(events)
    columnar = RmsProfiler()
    scalar = RmsProfiler()
    columnar.run_batch(batch)
    scalar.run(events)
    assert profile_state(columnar.profiles) == profile_state(scalar.profiles)
    assert columnar.space_cells() == scalar.space_cells()


@given(random_trace(), st.integers(1, 17))
@settings(max_examples=100, deadline=None)
def test_split_batches_equal_single_batch(events, split):
    """Feeding the trace as many small batches (as the machine's flushing
    encoder does) is equivalent to the scalar loop over the whole trace."""
    scalar = DrmsProfiler(policy=FULL_POLICY)
    scalar.run(events)
    chunked = DrmsProfiler(policy=FULL_POLICY)
    encoder = TraceEncoder(
        consumer=chunked.consume_columnar, flush_events=split
    )
    for event in events:
        encoder.append_event(event)
    encoder.flush()
    assert profile_state(chunked.profiles) == profile_state(scalar.profiles)
    assert chunked.metrics_snapshot() == scalar.metrics_snapshot()


@given(random_trace(), st.integers(4, 40))
@settings(max_examples=100, deadline=None)
def test_batch_renumbering_invariance(events, counter_limit):
    """Timestamp renumbering under a tiny counter limit (which rewrites
    shadow chunks the kernel holds cached) must not change profiles: the
    limited kernel replay equals the unlimited scalar loop, and the
    limited scalar loop renumbers exactly as the kernel does."""
    unlimited = DrmsProfiler(policy=FULL_POLICY, counter_limit=None)
    limited = DrmsProfiler(policy=FULL_POLICY, counter_limit=counter_limit)
    limited_scalar = DrmsProfiler(
        policy=FULL_POLICY, counter_limit=counter_limit
    )
    unlimited.run(events)
    limited.run_batch(encode_events(events))
    limited_scalar.run(events)
    assert profile_state(limited.profiles) == profile_state(
        unlimited.profiles
    )
    assert limited.metrics_snapshot() == limited_scalar.metrics_snapshot()


# -- telemetry equivalence ----------------------------------------------------


@given(random_trace(), st.sampled_from([None, 24]))
@settings(max_examples=60, deadline=None)
def test_drms_metrics_snapshot_batch_equals_scalar(events, counter_limit):
    """The telemetry snapshot is a pure function of profiler state, so
    the batch (columnar kernel) and scalar consumption paths must report
    identical metrics — including the renumbering counters and
    stack-depth high-water mark, which are maintained separately in
    each path."""
    batch = encode_events(events)
    columnar = DrmsProfiler(policy=FULL_POLICY, counter_limit=counter_limit)
    scalar = DrmsProfiler(policy=FULL_POLICY, counter_limit=counter_limit)
    columnar.run_batch(batch)
    scalar.run(events)
    assert columnar.metrics_snapshot() == scalar.metrics_snapshot()


@given(random_trace())
@settings(max_examples=60, deadline=None)
def test_rms_metrics_snapshot_batch_equals_scalar(events):
    batch = encode_events(events)
    columnar = RmsProfiler()
    scalar = RmsProfiler()
    columnar.run_batch(batch)
    scalar.run(events)
    assert columnar.metrics_snapshot() == scalar.metrics_snapshot()


@given(st.integers(0, 2**32 - 1), st.integers(5, 40))
@settings(max_examples=25, deadline=None)
def test_zero_rate_fault_plan_leaves_metrics_unchanged(seed, items):
    """A FaultPlan whose every rate is zero must be telemetry-invisible:
    the machine runs identically and the stats snapshot (VM counters,
    per-opcode events, profiler state) matches the plan-free run, under
    the kernel and the scalar loop alike."""
    from repro.vm.faults import FaultPlan

    def run(faults, scalar=False):
        machine = producer_consumer(items)
        if faults is not None:
            machine.set_fault_plan(faults)
        registry = machine.enable_metrics()
        profiler = DrmsProfiler(keep_activations=False, metrics=registry)
        if scalar:
            machine.set_batch_sink(
                lambda batch: profiler.run(batch.iter_events())
            )
        else:
            machine.set_batch_sink(profiler.consume_columnar)
        machine.run()
        profiler.publish_metrics(registry)
        return machine.stats_snapshot()

    zero_plan = FaultPlan(
        seed=seed,
        syscall_error_rate=0.0,
        short_io_rate=0.0,
        io_delay_rate=0.0,
        thread_kill_rate=0.0,
        sched_perturb_rate=0.0,
    )
    assert run(None) == run(zero_plan) == run(zero_plan, scalar=True)


# -- tool equivalence ---------------------------------------------------------


def tool_state(tool):
    summary = tool.finish()
    if "profiles" in summary:
        summary = dict(summary)
        summary["profiles"] = profile_state(summary.pop("profiles"))
    return summary, tool.space_cells()


@given(random_trace())
@settings(max_examples=60, deadline=None)
def test_every_tool_batch_equals_scalar(events):
    batch = encode_events(events)
    for name, factory in DEFAULT_TOOLS.items():
        scalar = factory()
        for event in events:
            scalar.consume(event)
        batched = factory()
        batched.consume_batch(batch)
        assert tool_state(batched) == tool_state(scalar), name


# -- machine batch sink -------------------------------------------------------


def test_machine_batch_sink_records_the_scalar_trace():
    scalar_machine = producer_consumer(25)
    scalar_machine.run()
    batch_machine = producer_consumer(25)
    batch_machine.set_batch_sink()
    batch_machine.run()
    recorded = batch_machine.encoded_trace
    assert recorded is not None
    assert list(recorded.iter_events()) == scalar_machine.trace


def test_machine_batch_sink_streams_to_consumer():
    batches = []
    machine = producer_consumer(25)
    machine.set_batch_sink(consumer=batches.append, flush_events=16)
    machine.run()
    reference = producer_consumer(25)
    reference.run()
    streamed = [e for b in batches for e in b.iter_events()]
    assert streamed == reference.trace
    assert all(len(b) <= 16 for b in batches[:-1])


def test_set_sink_restores_scalar_mode():
    machine = producer_consumer(5)
    machine.set_batch_sink()
    seen = []
    machine.set_sink(seen.append)
    machine.run()
    assert machine.encoded_trace is None
    assert len(seen) > 0
