"""Sweep engine: cold/warm runs, shard merging, supervision, reporting."""

import json
import os
import random
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.core import DrmsProfiler
from repro.core.serialize import dumps_strict
from repro.sweep import SweepCell, SweepConfig, run_sweep
from repro.sweep.engine import _cell_key, _run_cell


def config(tmp_path, **overrides):
    base = dict(
        workloads=("producer_consumer", "selection_sort"),
        scales=(1, 2),
        store_root=str(tmp_path / "store"),
        tools=("nulgrind", "aprof-drms"),
        repeats=1,
    )
    base.update(overrides)
    return SweepConfig(**base)


def strict_parse(text):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token!r}")

    return json.loads(text, parse_constant=reject)


class TestColdWarm:
    def test_cold_records_warm_hits(self, tmp_path):
        cfg = config(tmp_path)
        cold = run_sweep(cfg)
        assert cold.cache_stats() == {
            "hits": 0,
            "misses": 4,
            "corrupt": 0,
            "hit_rate": 0.0,
        }
        assert all(not cell["cached"] for cell in cold.cells)
        warm = run_sweep(cfg)
        assert warm.cache_stats()["hit_rate"] == 1.0
        assert all(cell["cached"] for cell in warm.cells)
        assert all(cell["shards_cached"] for cell in warm.cells)
        # warm replay measurements come from the meta sidecar
        for cell in warm.cells:
            for row in cell["replays"].values():
                assert row["source"] == "cache"
        # identical merged trends either way
        assert warm.trends == cold.trends

    def test_remeasure_reuses_traces_but_not_measurements(self, tmp_path):
        cfg = config(tmp_path)
        run_sweep(cfg)
        warm = run_sweep(config(tmp_path, reuse_measurements=False))
        assert warm.cache_stats()["hit_rate"] == 1.0
        for cell in warm.cells:
            for row in cell["replays"].values():
                assert row["source"] == "measured"

    def test_sweep_does_not_touch_global_rng(self, tmp_path):
        random.seed(20140215)
        state = random.getstate()
        run_sweep(config(tmp_path))
        assert random.getstate() == state

    def test_faulted_sweep_uses_a_distinct_cache_key(self, tmp_path):
        plain = _cell_key(SweepCell("producer_consumer", 1, 4), None)
        faulted = _cell_key(SweepCell("producer_consumer", 1, 4), 7)
        assert plain.digest() != faulted.digest()
        cfg = config(tmp_path, fault_seed=7)
        cold = run_sweep(cfg)
        assert cold.cache_stats()["hit_rate"] == 0.0
        warm = run_sweep(cfg)
        assert warm.cache_stats()["hit_rate"] == 1.0
        # the fault-free matrix is a different set of entries
        crossed = run_sweep(config(tmp_path))
        assert crossed.cache_stats()["hit_rate"] == 0.0


class TestAggregation:
    def test_trends_merge_scales_into_cost_models(self, tmp_path):
        result = run_sweep(
            config(tmp_path, workloads=("selection_sort",), scales=(1, 2, 3))
        )
        trends = result.trends["selection_sort"]
        row = trends["drms"]["selection_sort"]
        assert row["points"] >= 2
        assert row["model"] == "O(n^2)"
        assert row["r_squared"] == pytest.approx(1.0, abs=0.05)
        # the rms side exists for every routine the drms side has
        assert set(trends["rms"]) == set(trends["drms"])

    def test_merged_trends_equal_directly_merged_shards(self, tmp_path):
        cfg = config(tmp_path, workloads=("producer_consumer",))
        result = run_sweep(cfg)
        merged = None
        for cell in cfg.cells():
            payload = _run_cell(
                cell,
                cfg.store_root,
                cfg.tools,
                cfg.repeats,
                cfg.fault_seed,
                cfg.reuse_measurements,
            )
            shard = payload["drms"]
            merged = shard if merged is None else merged.merge(shard)
        plots = {
            routine: profile.worst_case_plot()
            for routine, profile in merged.profiles.by_routine().items()
        }
        for routine, row in result.trends["producer_consumer"]["drms"].items():
            assert row["points"] == len(plots[routine])


class TestSupervision:
    def test_parallel_run_matches_serial(self, tmp_path):
        serial = run_sweep(config(tmp_path, store_root=str(tmp_path / "a")))
        parallel = run_sweep(
            config(tmp_path, store_root=str(tmp_path / "b"), parallel=2)
        )
        assert parallel.degradations == []
        assert parallel.trends == serial.trends

    def test_unknown_workload_fails_before_any_work(self, tmp_path):
        with pytest.raises(KeyError):
            run_sweep(config(tmp_path, workloads=("nope",)))

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(config(tmp_path, scales=()))
        with pytest.raises(ValueError):
            run_sweep(config(tmp_path, tools=("not-a-tool",)))
        with pytest.raises(ValueError):
            run_sweep(config(tmp_path, repeats=0))


class TestPartitionedCells:
    """Intra-cell partitioned replay (PR 6): per-partition shards are the
    cache unit, and a warm sweep re-merges them instead of re-replaying."""

    def _seed_splittable_trace(self, root, cell):
        """Pre-record a multi-run-shaped trace under the cell's key:
        depth returns to zero every 8 events, so every default section
        boundary is a safe cut."""
        from repro.core.events import Call, Read, Return, encode_events
        from repro.sweep.store import TraceStore

        events = []
        for k in range(512):
            events.append(Call(1, f"r{k % 3}"))
            for i in range(6):
                events.append(Read(1, 0x100 + (k * 7 + i) % 64))
            events.append(Return(1))
        batch = encode_events(events)
        TraceStore(root).put(_cell_key(cell, None), batch)

    def test_partitioned_cell_caches_and_remerges_shards(self, tmp_path):
        import os

        from repro.sweep.store import TraceStore

        root = str(tmp_path / "store")
        cell = SweepCell("producer_consumer", 1, 4)
        self._seed_splittable_trace(root, cell)
        cold = _run_cell(cell, root, (), 1, None, True, "columnar", 2)
        assert cold["cached"]  # trace came from the seeded store
        assert cold["partitions"] == 2
        assert not cold["shards_cached"]
        # per-partition shard files exist, and (since the service mode
        # merges straight from the store) the merged shard is published
        # under the plain kind too
        store = TraceStore(root)
        key = _cell_key(cell, None)
        for kind in ("drms", "rms"):
            for i in range(2):
                path = store.shard_path(key, f"{kind}.p{i}of2")
                assert os.path.exists(path)
                assert cold["shard_bytes"][kind] >= os.path.getsize(path)
            merged = store.get_shard(key, kind)
            assert merged is not None
            assert (
                merged.metrics_snapshot()
                == cold[kind].metrics_snapshot()
            )
        # warm: both partition shards load from the store and re-merge
        warm = _run_cell(cell, root, (), 1, None, True, "columnar", 2)
        assert warm["shards_cached"]
        assert warm["partitions"] == 2
        # the serial (unpartitioned) cell computes the same profile
        serial = _run_cell(cell, root, (), 1, None, True, "columnar", None)
        assert serial["partitions"] is None
        for kind in ("drms", "rms"):
            assert (
                warm[kind].metrics_snapshot()
                == serial[kind].metrics_snapshot()
            )
            assert (
                cold[kind].metrics_snapshot()
                == serial[kind].metrics_snapshot()
            )

    def test_sweep_with_partitions_matches_plain(self, tmp_path):
        cfg = config(tmp_path, store_root=str(tmp_path / "a"), partitions=2)
        part = run_sweep(cfg)
        plain = run_sweep(config(tmp_path, store_root=str(tmp_path / "b")))
        assert part.trends == plain.trends
        # Per-thread cuts (PR 9): even single-run registry traces split
        # when they span more than one section; single-section traces
        # still degrade gracefully to one partition.  Either way the
        # profiles above matched the plain sweep exactly.
        assert all(cell["partitions"] in (1, 2) for cell in part.cells)
        assert any(cell["partitions"] == 2 for cell in part.cells)
        assert part.report_dict()["partitions"] == 2
        assert all(
            cell["partitions"] in (1, 2)
            for cell in part.report_dict()["cells"]
        )
        warm = run_sweep(cfg)
        assert warm.trends == part.trends
        assert all(cell["shards_cached"] for cell in warm.cells)

    def test_partitions_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(config(tmp_path, partitions=-1))


class TestReport:
    def test_report_is_strict_json_with_shard_sizes(self, tmp_path):
        result = run_sweep(config(tmp_path))
        text = dumps_strict(result.report_dict(), indent=2)
        report = strict_parse(text)
        assert report["format"] == "repro-sweep"
        assert report["cache"]["misses"] == 4
        for cell in report["cells"]:
            assert cell["shard_bytes"]["trace"] > 0
            assert cell["shard_bytes"]["drms"] > 0
            assert cell["shard_bytes"]["rms"] > 0
            for row in cell["replays"].values():
                assert row["seconds"] >= 0.0
        # degenerate trends (single-point plots) serialise as nulls
        for per_metric in report["trends"].values():
            for rows in per_metric.values():
                for row in rows.values():
                    assert "model" in row and "exponent" in row

    def test_telemetry_counters(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        run_sweep(config(tmp_path), metrics=registry)
        data = registry.as_dict()
        assert data["sweep.cache.misses"] == 4
        assert data["sweep.cells"] == 4
        assert data["sweep.wall_us"] > 0
        registry2 = MetricsRegistry()
        run_sweep(config(tmp_path), metrics=registry2)
        assert registry2.as_dict()["sweep.cache.hits"] == 4

    def test_cells_carry_attempt_provenance(self, tmp_path):
        serial = run_sweep(config(tmp_path, store_root=str(tmp_path / "a")))
        for cell in serial.report_dict()["cells"]:
            assert cell["attempts"] == 1
            assert cell["completed_by"] == "inline"
        pooled = run_sweep(
            config(tmp_path, store_root=str(tmp_path / "b"), parallel=2)
        )
        for cell in pooled.report_dict()["cells"]:
            assert cell["attempts"] == 1
            assert cell["completed_by"] == "pool"

    def test_cell_task_wire_roundtrip(self, tmp_path):
        from repro.sweep import CellTask, run_cell
        from repro.sweep.engine import merge_store_profiles

        cfg = config(tmp_path, workloads=("producer_consumer",), scales=(1,))
        task = cfg.cell_task(cfg.cells()[0])
        rebuilt = CellTask.from_dict(
            json.loads(json.dumps(task.to_dict()))
        )
        assert rebuilt == task
        payload = run_cell(rebuilt)
        assert payload["events"] > 0
        merged, missing = merge_store_profiles(
            cfg.store_root, ["producer_consumer"], [1], threads=cfg.threads
        )
        assert missing == []
        assert (
            merged["producer_consumer"]["drms"].metrics_snapshot()
            == payload["drms"].metrics_snapshot()
        )

    def test_shards_in_payload_are_shadow_free(self, tmp_path):
        cfg = config(tmp_path, workloads=("producer_consumer",), scales=(1,))
        run_sweep(cfg)
        payload = _run_cell(
            cfg.cells()[0],
            cfg.store_root,
            cfg.tools,
            cfg.repeats,
            cfg.fault_seed,
            cfg.reuse_measurements,
        )
        shard = payload["drms"]
        assert isinstance(shard, DrmsProfiler)
        assert shard.live_activations() == 0
        assert shard.space_cells() == 0  # begin_trace() cleared the shadow


def test_parallel_partitioned_sweep_completes_and_matches_plain(tmp_path):
    """A parallel sweep cell runs in a pool worker; its partitioned
    replay must not build a nested pool there (that wedged the worker's
    exit, and so the whole process).  Run in a subprocess so a hang
    fails on the timeout instead of stalling the suite."""
    src = textwrap.dedent(
        """
        import sys
        sys.path.insert(0, %r)
        from repro.sweep import SweepConfig, run_sweep

        def sweep(root, **kw):
            return run_sweep(SweepConfig(
                workloads=("mysql_select",), scales=(1,), store_root=root,
                tools=("aprof-drms",), repeats=1, **kw,
            ))

        part = sweep(sys.argv[1] + "/a", parallel=2, partitions=2)
        plain = sweep(sys.argv[1] + "/b")
        (cell,), (ref,) = part.cells, plain.cells
        assert cell["partitions"] == 2, cell["partitions"]
        assert cell["completed_by"] == "pool", cell["completed_by"]
        for kind in ("drms", "rms"):
            assert (
                cell[kind].metrics_snapshot() == ref[kind].metrics_snapshot()
            ), kind
        assert part.trends == plain.trends
        print("sweep ok")
        """
    ) % os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", src, str(tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # so a hang's pool workers die with it
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("parallel partitioned sweep hung")
    assert proc.returncode == 0, err
    assert "sweep ok" in out
