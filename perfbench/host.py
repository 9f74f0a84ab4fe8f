"""Host facts, process bookkeeping and the post-workload health check."""

from __future__ import annotations

import os
import signal
import sys
import time
from multiprocessing import resource_tracker

SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro-shm-"


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def host_facts(workers: int) -> dict:
    """The facts that pick a code path.  Two results are comparable
    only if these match."""
    from repro.tools.pool import shm_available

    try:
        import numpy  # noqa: F401  (selects the codec's lane path)

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "usable_cpus": usable_cpus(),
        "workers": workers,
        "partitions": workers,
        # replay_partitioned replays every partition inline on such hosts
        "partition_inline_all": (os.cpu_count() or 1) < 2
        and not os.environ.get("REPRO_PARTITION_FORCE_POOL"),
        "numpy": has_numpy,
        "shm_available": shm_available(),
        "python": sys.version.split()[0],
    }


def cpu_ticks():
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``.

    Steal is time the hypervisor gave this VM's CPUs to someone else;
    its share over a run says how far the host disturbed the timings.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def _proc_table():
    """``{pid: (ppid, state)}`` for every visible process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def descendants():
    """Pids of every live process below this one (zombies excluded)."""
    table = _proc_table()
    found, frontier = set(), {os.getpid()}
    while frontier:
        frontier = {
            pid
            for pid, (ppid, state) in table.items()
            if ppid in frontier and pid not in found
        }
        found |= frontier
    return {pid for pid in found if table[pid][1] != "Z"}


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live descendants."""
    pids = {os.getpid()} | descendants()
    return sum(_hwm_kb(pid) for pid in pids) / 1024.0


def shm_entries() -> set:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def _alive(pids):
    table = _proc_table()
    return {pid for pid in pids if table.get(pid, (0, "Z"))[1] != "Z"}


def stop_children(timeout: float = 30.0) -> int:
    """Stop the warm pool and wait until every process started below
    this one has ended -- including helpers that pool workers started
    and that are reparented when their worker exits.

    Returns the number of processes that had to be signalled.
    """
    from repro.tools.pool import shutdown_pool

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    watched = descendants() - {tracker_pid}

    def left():
        return _alive(watched | descendants()) - {tracker_pid}

    shutdown_pool()
    deadline = time.monotonic() + timeout
    while left() and time.monotonic() < deadline:
        time.sleep(0.02)
    if tracker_pid is not None and hasattr(tracker, "_stop"):
        # The shared-memory resource tracker outlives the pool; close
        # its pipe so it exits now rather than after this process.
        tracker._stop()
    killed = 0
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = left()
        if not pids:
            break
        for pid in pids:
            try:
                os.kill(pid, sig)
                killed += 1
            except ProcessLookupError:
                pass
        end = time.monotonic() + 5.0
        while left() and time.monotonic() < end:
            time.sleep(0.02)
    return killed
