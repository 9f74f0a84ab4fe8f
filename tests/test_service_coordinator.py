"""Coordinator state machine: leases, heartbeats, requeue, idempotence.

All tests drive an injected fake clock — no sleeping — and assert that
the journal replays back to the exact same materialized state, which is
the service's whole recovery argument.
"""

import pytest

from repro.service import (
    CELL_DONE,
    CELL_FAILED,
    CELL_LEASED,
    CELL_PENDING,
    Coordinator,
)
from repro.service.journal import Journal


class Clock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make(tmp_path, **overrides):
    clock = overrides.pop("clock", Clock())
    options = dict(
        lease_timeout=10.0,
        max_retries=2,
        backoff_base=0.5,
        fsync=False,
        clock=clock,
    )
    options.update(overrides)
    coordinator = Coordinator(
        str(tmp_path / "store"), str(tmp_path / "journal.rpjl"), **options
    )
    return coordinator, clock


def submit_small(coordinator):
    return coordinator.submit(
        ["producer_consumer"], [1, 2], threads=2, tools=("nulgrind",)
    )


class TestSubmit:
    def test_bad_specs_are_rejected_before_the_journal(self, tmp_path):
        coordinator, _ = make(tmp_path)
        with pytest.raises(ValueError):
            coordinator.submit([], [1])
        with pytest.raises(ValueError):
            coordinator.submit(["producer_consumer"], [1], tools=("nope",))
        with pytest.raises(KeyError):
            coordinator.submit(["not-a-workload"], [1])
        for engine in ("bogus", "batched"):  # batched is retired
            with pytest.raises(ValueError, match="unknown engine"):
                coordinator.submit(["producer_consumer"], [1], engine=engine)
        coordinator.close()
        records, _ = Journal(str(tmp_path / "journal.rpjl")).replay()
        assert records == []

    def test_http_submit_rejects_unknown_engine(self, tmp_path):
        import json
        from urllib import error, request

        from repro.service.httpd import serve_http
        from repro.tools import DEFAULT_ENGINE

        coordinator, _ = make(tmp_path)
        server, base_url = serve_http(coordinator)

        def post(body):
            req = request.Request(
                base_url + "/submit",
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            try:
                with request.urlopen(req, timeout=30) as resp:
                    return resp.status, json.loads(resp.read())
            except error.HTTPError as exc:
                return exc.code, json.loads(exc.read())

        spec = {"workloads": ["producer_consumer"], "scales": [1]}
        try:
            status, body = post(dict(spec, engine="batched"))
            assert status == 400
            assert "unknown engine" in body["error"]
            status, body = post(spec)
            assert status == 200
            assert coordinator.jobs[body["job"]].spec["engine"] == DEFAULT_ENGINE
        finally:
            server.shutdown()
            coordinator.close()

    def test_submit_materializes_cells_in_canonical_order(self, tmp_path):
        coordinator, _ = make(tmp_path)
        job_id = coordinator.submit(
            ["selection_sort", "producer_consumer"], [2, 1], threads=2
        )
        job = coordinator.jobs[job_id]
        assert job.cell_order == [
            "selection_sort@s2",
            "selection_sort@s1",
            "producer_consumer@s2",
            "producer_consumer@s1",
        ]
        assert all(
            c.state == CELL_PENDING for c in job.cells.values()
        )
        assert job.state == "running"


class TestLeaseLifecycle:
    def test_lease_grant_and_complete(self, tmp_path):
        coordinator, _ = make(tmp_path)
        job_id = submit_small(coordinator)
        lease = coordinator.lease("w0")
        assert lease["job"] == job_id
        assert lease["cell"] == "producer_consumer@s1"
        assert lease["attempt"] == 1
        assert lease["task"]["workload"] == "producer_consumer"
        cell = coordinator.jobs[job_id].cells["producer_consumer@s1"]
        assert cell.state == CELL_LEASED and cell.worker == "w0"
        result = coordinator.complete(lease["lease"], "w0", {"events": 5})
        assert result == {"accepted": True, "duplicate": False}
        assert cell.state == CELL_DONE
        assert cell.completed_by == "w0"
        assert cell.completed_attempt == 1
        assert cell.summary == {"events": 5}

    def test_no_lease_when_nothing_pending(self, tmp_path):
        coordinator, _ = make(tmp_path)
        assert coordinator.lease("w0") is None
        submit_small(coordinator)
        assert coordinator.lease("w0") is not None
        assert coordinator.lease("w1") is not None
        assert coordinator.lease("w2") is None  # both cells out on lease

    def test_heartbeat_extends_the_deadline(self, tmp_path):
        coordinator, clock = make(tmp_path)  # timeout 10s
        submit_small(coordinator)
        lease = coordinator.lease("w0")
        clock.advance(8.0)
        assert coordinator.heartbeat(lease["lease"], "w0")
        clock.advance(8.0)  # 16s after grant, 8s after heartbeat
        assert coordinator.tick() == 0
        clock.advance(3.0)  # 11s after the last heartbeat
        assert coordinator.tick() == 1

    def test_heartbeat_on_dead_lease_says_stand_down(self, tmp_path):
        coordinator, clock = make(tmp_path)
        submit_small(coordinator)
        lease = coordinator.lease("w0")
        clock.advance(11.0)
        coordinator.tick()
        assert coordinator.heartbeat(lease["lease"], "w0") is False


class TestRequeue:
    def test_expiry_requeues_with_backoff(self, tmp_path):
        coordinator, clock = make(tmp_path)
        job_id = submit_small(coordinator)
        first = coordinator.lease("w0")
        clock.advance(11.0)
        assert coordinator.tick() == 1
        cell = coordinator.jobs[job_id].cells[first["cell"]]
        assert cell.state == CELL_PENDING
        assert cell.attempts == 1
        assert cell.not_before == pytest.approx(clock.now + 0.5)
        # inside the backoff window the OTHER cell is granted instead
        regrant = coordinator.lease("w1")
        assert regrant["cell"] != first["cell"]
        clock.advance(1.0)
        regrant = coordinator.lease("w2")
        assert regrant["cell"] == first["cell"]
        assert regrant["attempt"] == 2

    def test_backoff_doubles_per_attempt(self, tmp_path):
        coordinator, clock = make(tmp_path, max_retries=5)
        job_id = submit_small(coordinator)
        deltas = []
        for _ in range(3):
            clock.advance(120.0)  # clear any backoff window
            lease = coordinator.lease("w0")
            clock.advance(11.0)
            coordinator.tick()
            cell = coordinator.jobs[job_id].cells[lease["cell"]]
            deltas.append(cell.not_before - clock.now)
        assert deltas == [
            pytest.approx(0.5),
            pytest.approx(1.0),
            pytest.approx(2.0),
        ]

    def test_retries_exhaust_into_failed_and_degraded(self, tmp_path):
        coordinator, clock = make(tmp_path, max_retries=1)
        job_id = submit_small(coordinator)
        for _ in range(2):
            clock.advance(60.0)
            lease = coordinator.lease("w0")
            clock.advance(11.0)
            coordinator.tick()
        cell = coordinator.jobs[job_id].cells[lease["cell"]]
        assert cell.state == CELL_FAILED
        # the other cell still completes; the job lands degraded
        clock.advance(60.0)
        other = coordinator.lease("w1")
        coordinator.complete(other["lease"], "w1", {})
        assert coordinator.jobs[job_id].state == "degraded"
        actions = [d.action for d in coordinator.degradations(job_id)]
        assert actions.count("requeued") == 1
        assert actions.count("excluded") == 1

    def test_explicit_fail_consumes_an_attempt(self, tmp_path):
        coordinator, clock = make(tmp_path)
        job_id = submit_small(coordinator)
        lease = coordinator.lease("w0")
        assert coordinator.fail(lease["lease"], "w0", "boom")
        cell = coordinator.jobs[job_id].cells[lease["cell"]]
        assert cell.state == CELL_PENDING and cell.attempts == 1
        assert cell.history[-1]["reason"] == "boom"

    def test_note_worker_dead_requeues_immediately(self, tmp_path):
        coordinator, clock = make(tmp_path)
        job_id = submit_small(coordinator)
        lease = coordinator.lease("w0")
        # no clock advance: the lease is nowhere near its deadline
        assert coordinator.note_worker_dead("w0", "exit -9") == 1
        cell = coordinator.jobs[job_id].cells[lease["cell"]]
        assert cell.state == CELL_PENDING and cell.attempts == 1
        assert coordinator.dead_workers["w0"] == "exit -9"


class TestIdempotentCompletion:
    def test_duplicate_complete_is_a_counted_no_op(self, tmp_path):
        coordinator, _ = make(tmp_path)
        job_id = submit_small(coordinator)
        lease = coordinator.lease("w0")
        coordinator.complete(lease["lease"], "w0", {})
        result = coordinator.complete(lease["lease"], "w0", {})
        assert result == {"accepted": True, "duplicate": True}
        cell = coordinator.jobs[job_id].cells[lease["cell"]]
        assert cell.duplicate_completions == 1
        assert cell.completed_attempt == 1
        coordinator.close()
        records, _ = Journal(str(tmp_path / "journal.rpjl")).replay()
        done = [r for r in records if r["type"] == "cell_done"]
        assert len(done) == 1  # the duplicate never reached the journal

    def test_expired_lease_may_still_complete_first(self, tmp_path):
        # worker w0 loses its lease but finishes anyway: the store is
        # content-addressed, so its work is byte-identical and accepted
        coordinator, clock = make(tmp_path)
        job_id = submit_small(coordinator)
        first = coordinator.lease("w0")
        clock.advance(11.0)
        coordinator.tick()
        result = coordinator.complete(first["lease"], "w0", {})
        assert result == {"accepted": True, "duplicate": False}
        cell = coordinator.jobs[job_id].cells[first["cell"]]
        assert cell.state == CELL_DONE and cell.completed_by == "w0"
        # the requeued grant that would re-run it: its later completion
        # is the duplicate
        clock.advance(60.0)
        second = coordinator.lease("w1")
        if second is not None and second["cell"] == first["cell"]:
            result = coordinator.complete(second["lease"], "w1", {})
            assert result["duplicate"]


class TestReplayEquivalence:
    def scenario(self, coordinator, clock):
        """A messy life: expiry, duplicate, failure, partial progress."""
        job_id = submit_small(coordinator)
        lease = coordinator.lease("w0")
        clock.advance(8.0)
        coordinator.heartbeat(lease["lease"], "w0")
        clock.advance(11.0)
        coordinator.tick()  # w0's lease expires
        clock.advance(60.0)
        second = coordinator.lease("w1")
        coordinator.complete(second["lease"], "w1", {"events": 3})
        coordinator.complete(second["lease"], "w1", {"events": 3})  # dup
        third = coordinator.lease("w1")
        coordinator.fail(third["lease"], "w1", "deterministic boom")
        coordinator.note_worker_dead("w0", "exit -9")
        return job_id

    def snapshot(self, coordinator, job_id):
        job = coordinator.jobs[job_id]
        return {
            "state": job.state,
            "counts": job.counts(),
            "cells": [
                job.cells[cell_id].as_dict() for cell_id in job.cell_order
            ],
            "dead": dict(coordinator.dead_workers),
        }

    def test_replay_rebuilds_identical_state(self, tmp_path):
        coordinator, clock = make(tmp_path)
        job_id = self.scenario(coordinator, clock)
        live = self.snapshot(coordinator, job_id)
        coordinator.close()
        replayed, _ = make(tmp_path, clock=clock, readonly=True)
        rebuilt = self.snapshot(replayed, job_id)
        # duplicate_completions is live bookkeeping (never journaled);
        # everything that decides scheduling must replay exactly
        for snap in (live, rebuilt):
            for cell in snap["cells"]:
                cell.pop("duplicate_completions")
        assert rebuilt == live
        assert not replayed.replay_stats.corrupt

    def test_replay_continues_scheduling_correctly(self, tmp_path):
        coordinator, clock = make(tmp_path)
        job_id = self.scenario(coordinator, clock)
        coordinator.close()
        replayed, _ = make(tmp_path, clock=clock)
        clock.advance(60.0)
        lease = replayed.lease("w2")
        assert lease is not None
        replayed.complete(lease["lease"], "w2", {})
        assert replayed.jobs[job_id].state == "complete"
        assert replayed.all_idle()


class TestReporting:
    def test_job_report_shape_without_trends(self, tmp_path):
        coordinator, _ = make(tmp_path)
        job_id = submit_small(coordinator)
        lease = coordinator.lease("w0")
        coordinator.complete(lease["lease"], "w0", {"events": 1})
        report = coordinator.job_report(job_id, include_trends=False)
        assert report["format"] == "repro-service-job"
        assert report["state"] == "running"
        assert report["counts"]["done"] == 1
        done = [c for c in report["cells"] if c["state"] == "done"]
        assert done[0]["attempts"] == 1
        assert done[0]["completed_by"] == "w0"
        with pytest.raises(KeyError):
            coordinator.job_report("nope")

    def test_metrics_gauges_and_health(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        coordinator, clock = make(tmp_path, metrics=registry)
        submit_small(coordinator)
        coordinator.lease("w0")
        coordinator.publish_metrics()
        data = registry.as_dict()
        assert data["service.cells{state=leased}"] == 1
        assert data["service.cells{state=pending}"] == 1
        assert data["service.jobs{state=running}"] == 1
        assert data["service.leases.granted"] == 1
        health = coordinator.health()
        assert health["status"] == "ok"
        assert health["live_leases"] == 1
