"""Supervised parallel replay: timeouts, retries, serial degradation and
tool exclusion — the self-healing half of the measurement pipeline.

The misbehaving tools below are module-level classes (picklable, so they
cross the process boundary) that check ``multiprocessing.parent_process()``
to act up **only inside pool workers**: the serial fallback in the main
process then succeeds, which is exactly the degradation path under test.
"""

import multiprocessing
import os
import random
import time

import pytest

from repro.tools import measure_workload, suite_summary
from repro.tools.nulgrind import Nulgrind
from repro.tools.runner import Degradation
from repro.workloads.patterns import producer_consumer


def in_worker() -> bool:
    return multiprocessing.parent_process() is not None


class WorkerKillerTool(Nulgrind):
    """Dies abruptly (no exception, no cleanup) inside pool workers —
    the classic opaque ``BrokenProcessPool`` trigger."""

    def consume_batch(self, batch):
        if in_worker():
            os._exit(13)
        super().consume_batch(batch)


class WorkerHangTool(Nulgrind):
    """Blocks far beyond any test timeout inside pool workers."""

    def consume_batch(self, batch):
        if in_worker():
            time.sleep(600)
        super().consume_batch(batch)


class AlwaysRaisesTool(Nulgrind):
    """Fails deterministically everywhere — must end up excluded."""

    def consume_batch(self, batch):
        raise RuntimeError("this tool is broken by design")


def build():
    return producer_consumer(20)


FAST = dict(repeats=1, max_retries=1, backoff_base=0.01)


class TestSupervisedReplay:
    def test_killed_worker_degrades_to_serial_and_completes(self):
        tools = {"nulgrind": Nulgrind, "killer": WorkerKillerTool}
        measurement = measure_workload(
            "pc", build, tools=tools, parallel=2, **FAST
        )
        # both tools measured: the killer via the serial fallback
        assert set(measurement.tools) == {"nulgrind", "killer"}
        assert measurement.degradations, "worker death must be reported"
        assert any(
            d.stage == "parallel-replay" and d.tool in tools
            for d in measurement.degradations
        )
        for tool_measurement in measurement.tools.values():
            assert tool_measurement.events == measurement.trace_events

    def test_hung_worker_times_out_not_hangs(self):
        tools = {"hang": WorkerHangTool, "nulgrind": Nulgrind}
        start = time.monotonic()
        measurement = measure_workload(
            "pc",
            build,
            tools=tools,
            parallel=2,
            repeats=1,
            replay_timeout=2.0,
            max_retries=0,
            backoff_base=0.01,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 60, "supervision must not hang on a stuck worker"
        assert set(measurement.tools) == {"hang", "nulgrind"}
        timeouts = [
            d
            for d in measurement.degradations
            if d.tool == "hang" and "timeout" in d.reason
        ]
        assert timeouts and timeouts[-1].action == "serial-fallback"

    def test_hung_workers_share_one_round_deadline(self):
        """Regression: each future used to get its own timeout, so two
        tools wedged in the same round cost two timeouts back to back.
        One round waits against one shared deadline."""
        tools = {"hang-a": WorkerHangTool, "hang-b": WorkerHangTool}
        start = time.monotonic()
        measurement = measure_workload(
            "pc",
            build,
            tools=tools,
            parallel=2,
            repeats=1,
            replay_timeout=2.0,
            max_retries=0,
            backoff_base=0.01,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 3.5, f"two hung tools took {elapsed:.2f}s"
        assert set(measurement.tools) == set(tools)
        for name in tools:
            rows = [d for d in measurement.degradations if d.tool == name]
            assert [(d.action, "timeout" in d.reason) for d in rows] == [
                ("serial-fallback", True)
            ]

    def test_deterministic_failure_is_excluded_with_report(self):
        tools = {"nulgrind": Nulgrind, "broken": AlwaysRaisesTool}
        measurement = measure_workload(
            "pc", build, tools=tools, parallel=2, **FAST
        )
        assert set(measurement.tools) == {"nulgrind"}
        excluded = [
            d for d in measurement.degradations if d.action == "excluded"
        ]
        assert len(excluded) == 1
        assert excluded[0].tool == "broken"
        assert excluded[0].stage == "serial-replay"
        assert "RuntimeError" in excluded[0].reason

    def test_serial_path_still_raises_on_broken_tool(self):
        """Without parallel workers there is no degradation contract:
        a broken tool is a hard error, as before."""
        with pytest.raises(RuntimeError):
            measure_workload(
                "pc",
                build,
                tools={"broken": AlwaysRaisesTool},
                repeats=1,
            )

    def test_clean_parallel_run_reports_no_degradations(self):
        measurement = measure_workload(
            "pc",
            build,
            tools={"nulgrind": Nulgrind},
            parallel=2,
            repeats=1,
        )
        assert measurement.degradations == []
        assert set(measurement.tools) == {"nulgrind"}

    def test_supervision_never_perturbs_global_random_stream(self):
        """Regression: retry jitter used module-level ``random.uniform``,
        silently advancing the global Mersenne state and breaking
        reproducibility of anything seeded around a faulted run."""
        random.seed(1234)
        state = random.getstate()
        measurement = measure_workload(
            "pc",
            build,
            tools={"nulgrind": Nulgrind, "killer": WorkerKillerTool},
            parallel=2,
            **FAST,
        )
        # the retry path (with its jittered backoff sleep) actually ran
        assert measurement.degradations
        assert random.getstate() == state

    def test_wedged_worker_respects_retry_budget(self):
        """Regression: exhausted tools were labelled serial-fallback but
        left in the retry set, burning extra timeout rounds."""
        tools = {"hang": WorkerHangTool, "nulgrind": Nulgrind}
        max_retries = 1
        measurement = measure_workload(
            "pc",
            build,
            tools=tools,
            parallel=2,
            repeats=1,
            replay_timeout=1.5,
            max_retries=max_retries,
            backoff_base=0.01,
        )
        assert set(measurement.tools) == {"hang", "nulgrind"}
        hang_rows = [
            d
            for d in measurement.degradations
            if d.stage == "parallel-replay" and d.tool == "hang"
        ]
        # one degradation per attempt, none past the budget
        assert len(hang_rows) == max_retries + 1
        assert [d.attempt for d in hang_rows] == [1, 2]
        # the label matches the action taken: retried until the budget
        # runs out, then exactly one terminal serial-fallback
        assert [d.action for d in hang_rows] == ["retried", "serial-fallback"]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            measure_workload("pc", build, replay_timeout=0.0)
        with pytest.raises(ValueError):
            measure_workload("pc", build, max_retries=-1)


class TestSummaryWithExclusions:
    def test_suite_summary_skips_missing_tools(self):
        tools_ok = {"nulgrind": Nulgrind}
        tools_mixed = {"nulgrind": Nulgrind, "broken": AlwaysRaisesTool}
        m1 = measure_workload("a", build, tools=tools_ok, repeats=1)
        m2 = measure_workload(
            "b", build, tools=tools_mixed, parallel=2, **FAST
        )
        summary = suite_summary([m1, m2])
        assert "nulgrind" in summary
        assert "broken" not in summary
        assert summary["nulgrind"]["slowdown"] > 0

    def test_degradation_record_shape(self):
        record = Degradation(
            "parallel-replay", "memcheck", 2, "worker pool broke", "retried"
        )
        assert record.attempt == 2
        assert record.action == "retried"

    def test_excluded_tools_property(self):
        measurement = measure_workload(
            "pc",
            build,
            tools={"nulgrind": Nulgrind, "broken": AlwaysRaisesTool},
            parallel=2,
            **FAST,
        )
        assert measurement.excluded_tools == ["broken"]
        clean = measure_workload(
            "pc", build, tools={"nulgrind": Nulgrind}, repeats=1
        )
        assert clean.excluded_tools == []

    def test_all_tools_excluded_raises_with_names(self):
        measurement = measure_workload(
            "pc",
            build,
            tools={"broken": AlwaysRaisesTool},
            parallel=2,
            **FAST,
        )
        assert measurement.tools == {}
        with pytest.raises(ValueError) as info:
            suite_summary([measurement])
        assert "broken" in str(info.value)
        assert "excluded" in str(info.value)


class TestRunnerTelemetry:
    def test_measurement_publishes_into_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        measure_workload(
            "pc",
            build,
            tools={"nulgrind": Nulgrind},
            repeats=1,
            metrics=registry,
        )
        data = registry.as_dict()
        assert data["runner.native_us{workload=pc}"] > 0
        assert data["runner.trace_events{workload=pc}"] > 0
        assert data["runner.replay_us{tool=nulgrind,workload=pc}"] > 0

    def test_degradations_fold_into_counters(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        measure_workload(
            "pc",
            build,
            tools={"nulgrind": Nulgrind, "broken": AlwaysRaisesTool},
            parallel=2,
            metrics=registry,
            **FAST,
        )
        data = registry.as_dict()
        assert data["runner.exclusions"] >= 1
        assert any(
            key.startswith("runner.degradations{") for key in data
        )
