"""Property tests for the opcode-encoded event pipeline.

The encode/decode layer must round-trip every event unchanged, a
zero-rate ``FaultPlan`` must be telemetry-invisible, each tool of the
Table 1 harness must leave the same state batch-fed as event-fed, and
the machine's batch sink must record the same trace its scalar sink
sees.  Whole-trace batches and batches flushed every few events
replay as the scalar loop and the oracle do.  (Profiler exactness on
every row form is ``test_exactness.py``'s.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FULL_POLICY, DrmsProfiler, NaiveDrmsProfiler, RmsProfiler
from repro.core.events import (
    EventBatch,
    TraceEncoder,
    decode_batch,
    encode_events,
)
from repro.tools import DEFAULT_TOOLS
from repro.workloads.patterns import producer_consumer
from tests.strategies import (
    ALL_POLICIES,
    activation_sizes,
    profile_state,
    random_trace,
    tool_state,
)

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


# -- telemetry equivalence ----------------------------------------------------


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
