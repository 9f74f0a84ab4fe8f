"""Tests for the measurement harness and the tool adapters."""

import math
import time

import pytest

from repro.core.events import Call, EventBatch, Read, Return, Write
from repro.tools import (
    AprofDrmsTool,
    AprofTool,
    DEFAULT_TOOLS,
    Nulgrind,
    geometric_mean,
    measure_workload,
    record_trace,
    replay_tool,
    suite_summary,
)
from repro.workloads.patterns import producer_consumer


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_ignores_nonpositive(self):
        assert geometric_mean([0.0, -1.0, 4.0]) == pytest.approx(4.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            geometric_mean([])

    def test_nonpositive_only_keeps_legacy_zero(self):
        assert geometric_mean([0.0, -1.0]) == 0.0


class TestNulgrind:
    def test_counts_events_and_nothing_else(self):
        tool = Nulgrind()
        tool.consume(Read(1, 5))
        tool.consume(Write(1, 5))
        assert tool.finish() == {"events": 2}
        assert tool.space_cells() == 0


class TestProfilerAdapters:
    def feed_activation(self, tool):
        tool.consume(Call(1, "f", cost=0))
        tool.consume(Read(1, 100))
        tool.consume(Return(1, cost=5))

    def test_aprof_tool(self):
        tool = AprofTool()
        self.feed_activation(tool)
        summary = tool.finish()
        assert summary["routines"] == 1
        assert tool.space_cells() > 0

    def test_aprof_drms_tool(self):
        tool = AprofDrmsTool()
        self.feed_activation(tool)
        summary = tool.finish()
        assert summary["routines"] == 1
        assert "read_counters" in summary

    def test_drms_tool_space_exceeds_aprof_on_shared_writes(self):
        events = [Call(1, "f")]
        for addr in range(300):
            events.append(Write(1, addr))
        events.append(Return(1))
        aprof = AprofTool()
        drms = AprofDrmsTool()
        for event in events:
            aprof.consume(event)
            drms.consume(event)
        # the drms tool additionally maintains the global wts shadow
        assert drms.space_cells() > aprof.space_cells()


class TestMeasureWorkload:
    def test_structure_and_sanity(self):
        measurement = measure_workload(
            "pc", lambda: producer_consumer(20), repeats=1
        )
        assert measurement.workload == "pc"
        assert measurement.native_time > 0
        assert set(measurement.tools) == set(DEFAULT_TOOLS)
        for tool_measurement in measurement.tools.values():
            assert tool_measurement.wall_time > 0
            assert tool_measurement.slowdown > 0
            assert math.isfinite(tool_measurement.slowdown)
            assert tool_measurement.space_overhead >= 1.0
            assert tool_measurement.events > 0

    def test_all_tools_see_the_same_event_count(self):
        measurement = measure_workload(
            "pc", lambda: producer_consumer(20), repeats=1
        )
        counts = {t.events for t in measurement.tools.values()}
        assert len(counts) == 1

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            measure_workload("pc", lambda: producer_consumer(1), repeats=0)

    def test_subset_of_tools(self):
        measurement = measure_workload(
            "pc",
            lambda: producer_consumer(5),
            tools={"nulgrind": Nulgrind},
            repeats=1,
        )
        assert list(measurement.tools) == ["nulgrind"]

    def test_parallel_validation(self):
        with pytest.raises(ValueError):
            measure_workload(
                "pc", lambda: producer_consumer(1), repeats=1, parallel=0
            )

    def test_parallel_replay_matches_serial(self):
        serial = measure_workload(
            "pc", lambda: producer_consumer(20), repeats=1
        )
        parallel = measure_workload(
            "pc", lambda: producer_consumer(20), repeats=1, parallel=2
        )
        # timing differs; the deterministic outputs must not
        assert serial.trace_events == parallel.trace_events
        for name in DEFAULT_TOOLS:
            assert (
                serial.tools[name].space_cells
                == parallel.tools[name].space_cells
            ), name
            assert serial.tools[name].events == parallel.tools[name].events

    def test_unpicklable_factories_fall_back_to_serial(self):
        measurement = measure_workload(
            "pc",
            lambda: producer_consumer(10),
            tools={"nulgrind": lambda: Nulgrind()},  # lambdas don't pickle
            repeats=1,
            parallel=2,
        )
        assert measurement.tools["nulgrind"].events > 0


class TestRecordReplay:
    def test_record_trace_captures_full_trace(self):
        record_time, batch, machine = record_trace(
            lambda: producer_consumer(20)
        )
        assert record_time > 0
        reference = producer_consumer(20)
        reference.run()
        assert list(batch.iter_events()) == reference.trace
        assert machine.total_blocks == reference.total_blocks

    def test_replay_tool_reproduces_attached_run(self):
        _time, batch, _machine = record_trace(lambda: producer_consumer(20))
        _best, space = replay_tool(AprofDrmsTool, batch, repeats=1)

        attached = AprofDrmsTool()
        machine = producer_consumer(20)
        machine.set_sink(attached.consume)
        machine.run()
        assert space == attached.space_cells()

    def test_tool_time_includes_shared_record_time(self):
        measurement = measure_workload(
            "pc", lambda: producer_consumer(20), repeats=1
        )
        assert measurement.record_time > 0
        for tool_measurement in measurement.tools.values():
            assert tool_measurement.wall_time == pytest.approx(
                measurement.record_time + tool_measurement.replay_time
            )


def test_pooled_and_serial_replays_time_the_same_work(monkeypatch):
    """A pooled replay times the tool's analysis alone, as a serial one
    does: the worker decodes the shipped trace before its clock starts.
    A decoder slowed before the pool forks must not reach nulgrind's
    ``replay_time``."""
    from repro.core import tracefile
    from repro.tools.pool import shutdown_pool

    delay = 0.25
    decode = tracefile._decode_section

    def slow_decode(*args, **kwargs):
        time.sleep(delay)
        return decode(*args, **kwargs)

    shutdown_pool()  # the workers must fork with the slow decoder
    monkeypatch.setattr(tracefile, "_decode_section", slow_decode)
    try:
        measurement = measure_workload(
            "pc",
            lambda: producer_consumer(20),
            tools={"nulgrind": Nulgrind, "aprof": AprofTool},
            repeats=1,
            parallel=2,
        )
    finally:
        shutdown_pool()  # later tests get workers with the real decoder
    assert not measurement.degradations  # both tools replayed pooled
    assert measurement.trace_bytes > 0
    assert measurement.tools["nulgrind"].replay_time < delay


def _findings(tool):
    """A tool's ``finish()`` with profile sets projected to plain data."""
    out = dict(tool.finish())
    if "profiles" in out:
        out["profiles"] = {
            key: (p.calls, p.total_input, p.points)
            for key, p in out["profiles"]
        }
    if "read_counters" in out:
        out["read_counters"] = {
            r: tuple(c) for r, c in out["read_counters"].items()
        }
    return out


@pytest.mark.parametrize("workload", ["mysql_select", "swim"])
def test_every_tool_replays_stored_rows_like_the_recording(workload):
    """Tools with superop support take the stored fused rows as they
    are, the others their plain expansion; either way each tool ends in
    the state the recorded batch leaves it in."""
    from repro.tools.runner import _replay_worker
    from repro.workloads.registry import get_workload

    _t, batch, machine = record_trace(
        lambda: get_workload(workload).build(threads=4, scale=1)
    )
    payload = batch.to_bytes(boundaries=machine.trace_boundaries)
    assert len(EventBatch.from_bytes(payload)) < len(batch)  # runs stored
    for name, factory in DEFAULT_TOOLS.items():
        made = []

        def spy():
            made.append(factory())
            return made[-1]

        _replay_worker(spy, payload, 1, "columnar")
        (stored,) = made
        recorded = factory()
        recorded.consume_batch(batch)
        assert stored.space_cells() == recorded.space_cells(), name
        assert _findings(stored) == _findings(recorded), name


class TestSetSink:
    def test_set_sink_feeds_tool_without_trace_collection(self):
        tool = Nulgrind()
        machine = producer_consumer(10)
        prefix = len(machine.trace)  # threadStart events from spawn
        machine.set_sink(tool.consume)
        machine.run()
        assert tool.events > 0
        assert len(machine.trace) == prefix  # later events went to the tool

    def test_set_sink_none_restores_trace_collection(self):
        machine = producer_consumer(10)
        machine.set_sink(lambda event: None)
        machine.set_sink(None)
        machine.run()
        assert len(machine.trace) > 0


class TestSuiteSummary:
    def test_geo_means_across_workloads(self):
        measurements = [
            measure_workload(
                f"pc{n}",
                lambda n=n: producer_consumer(n),
                tools={"nulgrind": Nulgrind},
                repeats=1,
            )
            for n in (5, 10)
        ]
        summary = suite_summary(measurements)
        assert "nulgrind" in summary
        assert summary["nulgrind"]["slowdown"] > 0
        assert summary["nulgrind"]["space_overhead"] == pytest.approx(1.0)

    def test_empty(self):
        assert suite_summary([]) == {}
