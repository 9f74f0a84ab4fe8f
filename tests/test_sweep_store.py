"""Content-addressed trace store: keying, round-trips, corruption."""

import os
import pickle

import pytest

from repro.core import DrmsProfiler
from repro.core.tracefile import TRACE_FORMAT_VERSION
from repro.sweep import SHARD_VERSION, TraceKey, TraceStore
from repro.vm.faults import FaultPlan
from repro.workloads.patterns import producer_consumer


def recorded_batch():
    machine = producer_consumer(15)
    machine.instrument = True
    machine.set_batch_sink()
    machine.run()
    return machine.encoded_trace


KEY = TraceKey(workload="pc", scale=2, threads=4)


class TestTraceKey:
    def test_digest_is_stable(self):
        assert KEY.digest() == TraceKey("pc", 2, 4).digest()

    def test_every_field_changes_the_digest(self):
        digests = {
            KEY.digest(),
            TraceKey("pc2", 2, 4).digest(),
            TraceKey("pc", 3, 4).digest(),
            TraceKey("pc", 2, 8).digest(),
            TraceKey("pc", 2, 4, vm_seed=1).digest(),
            TraceKey("pc", 2, 4, fault_digest="x").digest(),
            TraceKey("pc", 2, 4, trace_version=TRACE_FORMAT_VERSION + 1).digest(),
        }
        assert len(digests) == 7

    def test_default_version_is_current_format(self):
        assert KEY.trace_version == TRACE_FORMAT_VERSION == 3

    def test_fault_plan_digest_tracks_config_not_state(self):
        a, b = FaultPlan(seed=7), FaultPlan(seed=7)
        a.should_kill(1)  # consume single-use state
        assert a.digest() == b.digest()
        assert FaultPlan(seed=8).digest() != b.digest()
        assert (
            FaultPlan(seed=7, short_io_rate=0.5).digest() != b.digest()
        )


class TestTraceStore:
    def test_miss_then_put_then_hit(self, tmp_path):
        store = TraceStore(str(tmp_path))
        assert store.get(KEY) is None
        batch = recorded_batch()
        path = store.put(KEY, batch)
        assert os.path.exists(path)
        loaded = store.get(KEY)
        assert loaded is not None
        assert loaded.to_bytes() == batch.to_bytes()
        assert store.stats() == {
            "hits": 1,
            "misses": 1,
            "corrupt": 0,
            "hit_rate": 0.5,
        }

    def test_fanout_layout(self, tmp_path):
        store = TraceStore(str(tmp_path))
        digest = KEY.digest()
        assert store.trace_path(KEY).endswith(
            os.path.join(digest[:2], digest + ".trace")
        )

    def test_corrupt_entry_is_a_counted_miss(self, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(KEY, recorded_batch())
        path = store.trace_path(KEY)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])  # truncate mid-section
        # a truncated v2 file still scans, but not intact -> miss
        assert store.get(KEY) is None
        assert store.corrupt == 1
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        assert store.get(KEY) is None
        assert store.corrupt == 2

    def test_put_is_atomic_no_temp_litter(self, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(KEY, recorded_batch())
        leftovers = [
            name
            for _root, _dirs, files in os.walk(str(tmp_path))
            for name in files
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_meta_roundtrip_and_unreadable_meta(self, tmp_path):
        store = TraceStore(str(tmp_path))
        assert store.get_meta(KEY) is None
        store.put_meta(KEY, {"events": 10, "replays": {}})
        assert store.get_meta(KEY)["events"] == 10
        with open(store.meta_path(KEY), "w") as handle:
            handle.write("{not json")
        assert store.get_meta(KEY) is None

    def test_meta_rejects_non_finite_floats(self, tmp_path):
        store = TraceStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.put_meta(KEY, {"seconds": float("nan")})


class TestShardCache:
    def make_shard(self):
        profiler = DrmsProfiler(keep_activations=False)
        profiler.run(recorded_batch().iter_events())
        profiler.begin_trace()
        return profiler

    def test_shard_roundtrip(self, tmp_path):
        store = TraceStore(str(tmp_path))
        assert store.get_shard(KEY, "drms") is None
        shard = self.make_shard()
        store.put_shard(KEY, "drms", shard)
        loaded = store.get_shard(KEY, "drms")
        assert loaded is not None
        assert loaded.read_counters == shard.read_counters
        assert dict(loaded.profiles).keys() == dict(shard.profiles).keys()

    def test_version_or_kind_mismatch_means_recompute(self, tmp_path):
        store = TraceStore(str(tmp_path))
        shard = self.make_shard()
        store.put_shard(KEY, "drms", shard)
        # same file, asked for under a different kind: no entry
        assert store.get_shard(KEY, "rms") is None
        # stale version tag: recompute, don't trust
        with open(store.shard_path(KEY, "drms"), "wb") as handle:
            pickle.dump(
                ("repro-shard", SHARD_VERSION + 1, "drms", shard), handle
            )
        assert store.get_shard(KEY, "drms") is None

    def test_garbage_shard_is_ignored(self, tmp_path):
        store = TraceStore(str(tmp_path))
        os.makedirs(os.path.dirname(store.shard_path(KEY, "drms")), exist_ok=True)
        with open(store.shard_path(KEY, "drms"), "wb") as handle:
            handle.write(b"\x80\x04 garbage")
        assert store.get_shard(KEY, "drms") is None


class TestSidecarHardening:
    """PR 7 satellite: any sidecar read failure is a counted miss,
    never an exception — a torn meta/shard costs a recompute, not a
    sweep abort."""

    def make_shard(self):
        profiler = DrmsProfiler(keep_activations=False)
        profiler.run(recorded_batch().iter_events())
        profiler.begin_trace()
        return profiler

    def truncate(self, path):
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])

    def test_truncated_meta_is_counted_not_raised(self, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put_meta(KEY, {"events": 10, "replays": {"nulgrind": 1.0}})
        self.truncate(store.meta_path(KEY))
        assert store.get_meta(KEY) is None
        assert store.sidecar_stats() == {
            "sidecar_corrupt": 1,
            "sidecar_stale": 0,
        }

    def test_absent_sidecars_are_silent(self, tmp_path):
        store = TraceStore(str(tmp_path))
        assert store.get_meta(KEY) is None
        assert store.get_shard(KEY, "drms") is None
        assert store.sidecar_stats() == {
            "sidecar_corrupt": 0,
            "sidecar_stale": 0,
        }

    def test_truncated_pickled_shard_is_counted_not_raised(self, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put_shard(KEY, "drms", self.make_shard())
        self.truncate(store.shard_path(KEY, "drms"))
        assert store.get_shard(KEY, "drms") is None
        assert store.sidecar_stats()["sidecar_corrupt"] == 1

    def test_stale_shard_version_counted_separately(self, tmp_path):
        store = TraceStore(str(tmp_path))
        shard = self.make_shard()
        with open(
            self._shard_file(store), "wb"
        ) as handle:
            pickle.dump(
                ("repro-shard", SHARD_VERSION + 1, "drms", shard), handle
            )
        assert store.get_shard(KEY, "drms") is None
        assert store.sidecar_stats() == {
            "sidecar_corrupt": 0,
            "sidecar_stale": 1,
        }

    def _shard_file(self, store):
        path = store.shard_path(KEY, "drms")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def test_stats_keys_are_unchanged(self, tmp_path):
        # existing consumers assert exact equality on stats(); the
        # sidecar counters live in their own dict
        store = TraceStore(str(tmp_path))
        assert set(store.stats()) == {"hits", "misses", "corrupt", "hit_rate"}

    def test_sidecar_counters_reach_the_registry(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        store = TraceStore(str(tmp_path), metrics=registry)
        store.put_meta(KEY, {"events": 1})
        self.truncate(store.meta_path(KEY))
        store.get_meta(KEY)
        store.put_shard(KEY, "drms", self.make_shard())
        self.truncate(store.shard_path(KEY, "drms"))
        store.get_shard(KEY, "drms")
        data = registry.as_dict()
        assert data["sweep.cache.sidecar_corrupt{kind=meta}"] == 1
        assert data["sweep.cache.sidecar_corrupt{kind=shard}"] == 1


class TestStoreAudit:
    """``repro doctor --store``: full-store audit and quarantine."""

    def make_shard(self):
        profiler = DrmsProfiler(keep_activations=False)
        profiler.run(recorded_batch().iter_events())
        profiler.begin_trace()
        return profiler

    def populate(self, store):
        batch = recorded_batch()
        store.put(KEY, batch)
        store.put_meta(KEY, {"events": len(batch)})
        store.put_shard(KEY, "drms", self.make_shard())
        return batch

    def test_clean_store_audits_clean(self, tmp_path):
        store = TraceStore(str(tmp_path))
        self.populate(store)
        audit = store.audit()
        assert audit.clean
        assert (audit.traces, audit.metas, audit.shards) == (1, 1, 1)
        assert audit.as_dict()["clean"] is True

    def test_audit_flags_every_failure_mode(self, tmp_path):
        store = TraceStore(str(tmp_path))
        self.populate(store)
        # corrupt the trace and the meta in place
        trace_path = store.trace_path(KEY)
        data = open(trace_path, "rb").read()
        with open(trace_path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with open(store.meta_path(KEY), "w") as handle:
            handle.write("{torn")
        # a stale shard and a garbage one
        with open(store.shard_path(KEY, "drms"), "wb") as handle:
            pickle.dump(
                ("repro-shard", SHARD_VERSION + 1, "drms", None), handle
            )
        with open(store.shard_path(KEY, "rms"), "wb") as handle:
            handle.write(b"not a pickle")
        # an orphaned sidecar (meta without any trace) and a leftover tmp
        orphan = TraceKey("orphan", 1, 1)
        store.put_meta(orphan, {"events": 0})
        tmp_file = os.path.join(str(tmp_path), KEY.digest()[:2], "x.tmp")
        with open(tmp_file, "wb") as handle:
            handle.write(b"half-written")

        audit = store.audit()
        assert not audit.clean
        assert len(audit.corrupt_traces) == 1
        assert len(audit.corrupt_metas) == 1
        assert len(audit.corrupt_shards) == 1
        assert len(audit.stale_shards) == 1
        assert audit.orphan_sidecars == [store.meta_path(orphan)]
        assert audit.tmp_files == [tmp_file]

    def test_quarantine_moves_bad_files_and_converges(self, tmp_path):
        store = TraceStore(str(tmp_path))
        self.populate(store)
        with open(store.meta_path(KEY), "w") as handle:
            handle.write("{torn")
        orphan = TraceKey("orphan", 1, 1)
        store.put_shard(orphan, "rms", self.make_shard())
        audit = store.audit()
        moved = store.quarantine(audit)
        assert len(moved) == 2
        for path in moved:
            assert os.path.exists(path)
            assert os.sep + "quarantine" + os.sep in path
        # the bad entries read as clean misses now, and a re-audit
        # (which skips quarantine/) converges to clean
        assert store.get_meta(KEY) is None
        assert store.audit().clean
        # intact data survived untouched
        assert store.get(KEY) is not None
