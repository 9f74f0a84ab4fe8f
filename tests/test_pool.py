"""The warm worker pool: one pipe per worker, failures contained to one
worker, and no helper threads in the parent.

Task functions live at module level so they pickle by reference; the
workers are forked, so they already have this module loaded.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.tools.pool import (
    WorkerDied,
    get_pool,
    in_pool_worker,
    pool_stats,
    shutdown_pool,
    supervise,
)


def _pid():
    return os.getpid()


def _sleep_forever():
    time.sleep(600)


def _die():
    os._exit(7)


def _raise():
    raise ValueError("broken by design")


def _in_worker():
    return in_pool_worker()


def _run(tasks, timeout=30.0, max_retries=0, **kwargs):
    results = {}
    sup = supervise(
        tasks,
        stage="pool-test",
        workers=2,
        timeout=timeout,
        max_retries=max_retries,
        backoff_base=0.01,
        on_result=results.__setitem__,
        **kwargs,
    )
    return results, sup


def _worker_pids():
    """The pids of two idle warm workers, through the public surface."""
    results, sup = _run({"a": (_pid, ()), "b": (_pid, ())})
    assert not sup.degradations
    return {results["a"], results["b"]}


def test_hung_task_kills_only_its_worker_and_adds_no_thread():
    get_pool().ensure(2)
    before_pids = _worker_pids()
    assert len(before_pids) == 2
    threads = threading.active_count()
    seen = []

    results = {}

    def on_result(key, value):
        seen.append(threading.active_count())
        results[key] = value

    stats = pool_stats()
    sup = supervise(
        {"hang": (_sleep_forever, ()), "pid": (_pid, ())},
        stage="pool-test",
        workers=2,
        timeout=1.0,
        max_retries=0,
        backoff_base=0.01,
        on_result=on_result,
    )
    # no management, feeder or result thread, before, during or after
    assert threading.active_count() == threads
    assert seen == [threads]
    assert sup.unfinished == ["hang"]
    [row] = sup.degradations
    assert "timeout" in row.reason and row.action == "serial-fallback"
    warm = results["pid"]
    assert warm in before_pids
    after = pool_stats()
    # exactly the wedged worker was restarted; it did not count as broken
    assert after["spawns"] == stats["spawns"] + 1
    assert after["respawns_broken"] == stats["respawns_broken"]
    after_pids = _worker_pids()
    assert warm in after_pids  # the other worker stayed warm
    assert before_pids - {warm} != after_pids - {warm}


def test_dead_worker_fails_only_its_task_and_is_respawned():
    get_pool().ensure(2)
    stats = pool_stats()
    results, sup = _run(
        {"dies": (_die, ()), "pid": (_pid, ())}, max_retries=1
    )
    assert set(results) == {"pid"}
    assert sup.unfinished == ["dies"]
    assert [(d.tool, d.attempt, d.action) for d in sup.degradations] == [
        ("dies", 1, "retried"),
        ("dies", 2, "serial-fallback"),
    ]
    assert all("code 7" in d.reason for d in sup.degradations)
    after = pool_stats()
    assert after["respawns_broken"] == stats["respawns_broken"] + 2
    assert after["spawns"] == stats["spawns"] + 2


def test_deterministic_errors_go_straight_to_fallback():
    results, sup = _run(
        {
            "raises": (_raise, ()),
            "unpicklable": (_pid, (lambda: None,)),
            "ok": (_in_worker, ()),
        },
        max_retries=3,
    )
    assert results == {"ok": True}
    rows = {d.tool: d for d in sup.degradations}
    assert set(rows) == {"raises", "unpicklable"}
    assert all(d.attempt == 1 for d in rows.values())
    assert all(d.action == "serial-fallback" for d in rows.values())
    assert "ValueError: broken by design" in rows["raises"].reason
    assert not in_pool_worker()


def test_more_tasks_than_workers_all_run_on_the_pool():
    tasks = {k: (_pid, ()) for k in range(7)}
    results, sup = _run(tasks, timeout=10.0)
    assert not sup.degradations
    assert sorted(results) == list(range(7))
    assert len(set(results.values())) <= get_pool().workers


def test_submit_handles_wait_for_their_own_reply():
    pool = get_pool().ensure(2)
    tasks = [pool.submit(_pid) for _ in range(5)]  # more than workers
    pids = [task.result() for task in tasks]
    assert len(set(pids)) <= pool.workers
    assert os.getpid() not in pids
    with pytest.raises(ValueError, match="broken by design"):
        pool.submit(_raise).result()
    with pytest.raises(WorkerDied):
        pool.submit(_die).result()
    assert pool.submit(_in_worker).result() is True


def test_shutdown_leaves_no_child_process():
    pool = get_pool().ensure(2)
    pool.submit(time.sleep, 0.2)  # a reply nobody reads
    shutdown_pool()
    assert multiprocessing.active_children() == []
    assert pool_stats()["workers"] == 0
    assert get_pool().ensure(1).submit(_in_worker).result() is True
