"""Tests for the ``repro`` command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_suites(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for tag in ("parsec:", "specomp:", "apps:", "micro:"):
            assert tag in out
        assert "dedup" in out
        assert "mysqlslap" in out


class TestProfile:
    def test_profile_default_metric(self, capsys):
        assert main(["profile", "producer_consumer"]) == 0
        out = capsys.readouterr().out
        assert "metric = drms" in out
        assert "consumer" in out

    def test_profile_rms_metric(self, capsys):
        assert main(["profile", "producer_consumer", "--metric", "rms"]) == 0
        assert "metric = rms" in capsys.readouterr().out

    def test_profile_single_routine_with_points(self, capsys):
        assert (
            main(
                [
                    "profile",
                    "mysql_select",
                    "--routine",
                    "mysql_select",
                    "--points",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mysql_select" in out
        assert "worst-case cost" in out
        assert "fit=O(n)" in out

    def test_profile_unknown_routine_fails(self, capsys):
        assert (
            main(["profile", "producer_consumer", "--routine", "nope"]) == 1
        )
        assert "no profile" in capsys.readouterr().err

    def test_profile_unknown_workload_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["profile", "not_a_workload"])


class TestCharacterize:
    def test_characterize_output(self, capsys):
        assert main(["characterize", "dedup"]) == 0
        out = capsys.readouterr().out
        assert "dynamic input volume" in out
        assert "induced first-reads" in out
        assert "thread" in out


class TestOverhead:
    def test_overhead_on_one_benchmark(self, capsys):
        assert (
            main(
                [
                    "overhead",
                    "--suite",
                    "specomp",
                    "--benchmarks",
                    "md",
                    "--repeats",
                    "1",
                    "--scale",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        for tool in (
            "nulgrind",
            "memcheck",
            "callgrind",
            "helgrind",
            "aprof",
            "aprof-drms",
        ):
            assert tool in out

    def test_overhead_parallel_replay(self, capsys):
        assert (
            main(
                [
                    "overhead",
                    "--suite",
                    "specomp",
                    "--benchmarks",
                    "md",
                    "--repeats",
                    "1",
                    "--scale",
                    "1",
                    "--parallel",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "aprof-drms" in out

    def test_overhead_partitioned_replay(self, tmp_path, capsys):
        target = tmp_path / "overhead.json"
        assert (
            main(
                [
                    "overhead",
                    "--suite",
                    "specomp",
                    "--benchmarks",
                    "md",
                    "--repeats",
                    "1",
                    "--scale",
                    "1",
                    "--partitions",
                    "2",
                    "--json",
                    str(target),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "aprof-drms" in out
        import json

        payload = json.loads(target.read_text())
        assert payload["partitions"] == 2
        row = payload["workloads"][0]
        # single-run traces degrade to one partition, reason preserved
        assert row["partitions"] == 1
        assert row["partition_reason"]
        assert not row["degradations"]

    def test_overhead_json(self, tmp_path, capsys):
        target = tmp_path / "overhead.json"
        assert (
            main(
                [
                    "overhead",
                    "--suite",
                    "specomp",
                    "--benchmarks",
                    "md",
                    "--repeats",
                    "1",
                    "--scale",
                    "1",
                    "--json",
                    str(target),
                ]
            )
            == 0
        )
        import json

        payload = json.loads(target.read_text())
        assert payload["suite"] == "specomp"
        assert set(payload["summary"]) == {
            "nulgrind",
            "memcheck",
            "callgrind",
            "helgrind",
            "aprof",
            "aprof-drms",
        }
        (workload,) = payload["workloads"]
        assert workload["workload"] == "md"
        assert workload["trace_events"] > 0
        assert workload["record_time"] > 0
        for tool in workload["tools"].values():
            assert tool["wall_time"] >= tool["replay_time"]
            assert tool["events"] == workload["trace_events"]


class TestTrace:
    def test_trace_dump(self, capsys):
        assert main(["trace", "stream_reader", "--limit", "10"]) == 0
        out = capsys.readouterr().out
        assert "call(" in out
        assert "kernelToUser(" in out
        assert "more events" in out

    def test_trace_metrics_flag(self, capsys):
        assert (
            main(["trace", "stream_reader", "--limit", "5", "--metrics"]) == 0
        )
        captured = capsys.readouterr()
        assert "call(" in captured.out
        assert "vm.switches" in captured.err
        assert "vm.events{op=read}" in captured.err


class TestStats:
    def test_stats_table(self, capsys):
        assert main(["stats", "md"]) == 0
        out = capsys.readouterr().out
        assert "vm.switches" in out
        assert "drms.count" in out
        assert "drms.reads{kind=thread}" in out

    def test_stats_requires_a_workload(self, capsys):
        assert main(["stats"]) == 2
        assert "workload is required" in capsys.readouterr().err

    def test_stats_engines_agree_on_metrics(self, capsys):
        import json

        payloads = {}
        for engine in ("scalar", "columnar"):
            assert (
                main(["stats", "md", "--json", "--engine", engine]) == 0
            )
            payloads[engine] = json.loads(capsys.readouterr().out)["metrics"]
        # the superop gauge is engine telemetry, not profiler state
        assert payloads["columnar"].pop("kernel.superops_fused") > 0
        payloads["scalar"].pop("kernel.superops_fused", None)
        assert payloads["scalar"] == payloads["columnar"]

    def test_stats_rejects_retired_batched_engine(self):
        with pytest.raises(SystemExit):
            main(["stats", "md", "--engine", "batched"])

    def test_stats_json_payload(self, capsys):
        import json

        assert main(["stats", "--workload", "md", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "md"
        metrics = payload["metrics"]
        assert metrics["vm.events{op=read}"] > 0
        assert "drms.renumber.passes" in metrics
        assert "drms.shadow.peak_bytes{scope=total}" in metrics
        assert "drms.reads{kind=kernel}" in metrics

    def test_stats_json_to_file(self, tmp_path, capsys):
        import json

        target = tmp_path / "metrics.json"
        assert main(["stats", "md", "--json", str(target)]) == 0
        assert "metrics JSON written" in capsys.readouterr().err
        payload = json.loads(target.read_text())
        assert payload["metrics"]["vm.threads"] > 0

    def test_stats_prometheus(self, capsys):
        assert main(["stats", "md", "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE vm_events gauge" in out
        assert "# TYPE drms_renumber_passes counter" in out
        assert "# TYPE drms_count gauge" in out
        # every non-comment line is `name[{labels}] value`
        for line in out.splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                float(value)

    def test_stats_trace_out(self, tmp_path, capsys):
        import json

        target = tmp_path / "run.trace.json"
        assert main(["stats", "md", "--trace-out", str(target)]) == 0
        doc = json.loads(target.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert {"build", "run", "publish"} <= names
        assert "perfetto" in capsys.readouterr().err

    def test_stats_counter_limit_triggers_renumbering(self, capsys):
        import json

        assert (
            main(["stats", "md", "--json", "--counter-limit", "16"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["drms.renumber.passes"] >= 1

    def test_stats_faults_channel_counts(self, capsys):
        import json

        assert main(["stats", "md", "--json", "--faults", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # the fault plan's decisions are recorded by channel
        assert any(
            key.startswith("vm.faults{") for key in payload["metrics"]
        )


class TestOverheadMetrics:
    def test_overhead_metrics_flag(self, capsys):
        assert (
            main(
                [
                    "overhead",
                    "--suite",
                    "specomp",
                    "--benchmarks",
                    "md",
                    "--repeats",
                    "1",
                    "--scale",
                    "1",
                    "--metrics",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "-- metrics --" in out
        assert "runner.native_us{workload=md}" in out
        assert "runner.replay_us{tool=aprof-drms,workload=md}" in out


class TestCommunicate:
    def test_communicate_output(self, capsys):
        assert main(["communicate", "dedup"]) == 0
        out = capsys.readouterr().out
        assert "communicated cells" in out
        assert "producer" in out
        assert "<kernel>" in out

    def test_no_kernel_flag(self, capsys):
        assert main(["communicate", "stream_reader", "--no-kernel"]) == 0
        out = capsys.readouterr().out
        assert "<kernel>" not in out


class TestDiagnose:
    def test_rms_flags_wbuffer(self, capsys):
        assert main(["diagnose", "vips_wbuffer", "--metric", "rms"]) == 0
        out = capsys.readouterr().out
        assert "suspicious cost variance" in out
        assert "wbuffer_write_thread" in out

    def test_drms_is_clean(self, capsys):
        assert main(["diagnose", "vips_wbuffer", "--metric", "drms"]) == 0
        assert "no suspicious" in capsys.readouterr().out


class TestSaveOptions:
    def test_profile_json(self, tmp_path, capsys):
        target = tmp_path / "profile.json"
        assert (
            main(["profile", "stream_reader", "--json", str(target)]) == 0
        )
        from repro.core.serialize import loads_report

        report = loads_report(target.read_text())
        assert "streamReader" in report.by_routine()

    def test_trace_save_roundtrip(self, tmp_path):
        target = tmp_path / "trace.txt"
        assert main(["trace", "stream_reader", "--save", str(target)]) == 0
        from repro.core.tracefile import load_trace

        with open(target) as handle:
            events = load_trace(handle)
        assert len(events) > 50


class TestSweep:
    def _reject(self, token):
        raise ValueError(f"non-strict JSON constant {token!r}")

    def sweep(self, tmp_path, *extra):
        return main(
            [
                "sweep",
                "--workloads",
                "producer_consumer",
                "--scales",
                "1",
                "2",
                "--tools",
                "nulgrind",
                "aprof-drms",
                "--store",
                str(tmp_path / "store"),
                *extra,
            ]
        )

    def test_cold_then_warm(self, tmp_path, capsys):
        assert self.sweep(tmp_path) == 0
        cold = capsys.readouterr().out
        assert "2 cell(s)" in cold
        assert "hit rate 0%" in cold
        assert self.sweep(tmp_path) == 0
        warm = capsys.readouterr().out
        assert "hit rate 100%" in warm
        assert "drms" in warm and "rms" in warm

    def test_json_report_is_strict(self, tmp_path, capsys):
        import json

        target = tmp_path / "sweep.json"
        assert self.sweep(tmp_path, "--json", str(target)) == 0
        report = json.loads(target.read_text(), parse_constant=self._reject)
        assert report["format"] == "repro-sweep"
        assert report["cache"]["misses"] == 2
        assert "producer_consumer" in report["trends"]

    def test_unknown_workload_exits_2(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--workloads",
                    "nope",
                    "--store",
                    str(tmp_path / "store"),
                ]
            )
            == 2
        )
        assert "unknown workload" in capsys.readouterr().err

    def test_parallel_sweep_via_cli(self, tmp_path, capsys):
        assert self.sweep(tmp_path, "--parallel", "2") == 0
        assert "2 cell(s)" in capsys.readouterr().out

    def test_partitioned_sweep_via_cli(self, tmp_path, capsys):
        import json

        target = tmp_path / "sweep.json"
        assert (
            self.sweep(tmp_path, "--partitions", "2", "--json", str(target))
            == 0
        )
        assert "2 cell(s)" in capsys.readouterr().out
        report = json.loads(target.read_text(), parse_constant=self._reject)
        assert report["partitions"] == 2
        assert all(cell["partitions"] == 1 for cell in report["cells"])


class TestStrictJsonOutputs:
    """Every ``--json`` surface must round-trip through a strict parser
    (regression: nan exponents rendered as the invalid literal NaN)."""

    def _reject(self, token):
        raise ValueError(f"non-strict JSON constant {token!r}")

    def test_stats_json_is_strict(self, capsys):
        import json

        assert main(["stats", "--workload", "md", "--json"]) == 0
        payload = json.loads(
            capsys.readouterr().out, parse_constant=self._reject
        )
        assert payload["workload"] == "md"

    def test_overhead_json_is_strict(self, tmp_path, capsys):
        import json

        target = tmp_path / "overhead.json"
        assert (
            main(
                [
                    "overhead",
                    "--suite",
                    "specomp",
                    "--benchmarks",
                    "md",
                    "--repeats",
                    "1",
                    "--scale",
                    "1",
                    "--json",
                    str(target),
                ]
            )
            == 0
        )
        payload = json.loads(
            target.read_text(), parse_constant=self._reject
        )
        assert payload["suite"] == "specomp"

    def test_profile_json_is_strict(self, tmp_path, capsys):
        import json

        target = tmp_path / "profile.json"
        assert (
            main(
                ["profile", "producer_consumer", "--json", str(target)]
            )
            == 0
        )
        payload = json.loads(
            target.read_text(), parse_constant=self._reject
        )
        assert payload["format"] == "repro-profile"
