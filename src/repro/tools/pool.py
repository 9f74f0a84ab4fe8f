"""Zero-copy trace residency and persistent warm worker pools.

Before this module, every parallel stage paid two fixed costs per use:
a fresh ``ProcessPoolExecutor`` (fork + import + teardown) per
measure/sweep-cell/retry-round, and a pickled copy of the trace payload
per submitted task.  Both costs scale with ``trace x workers x cells``
and are what made 2-worker partitioned replay *slower* than serial.

Two pieces remove them:

* :class:`SharedTrace` places the serialised trace in a POSIX
  shared-memory segment **once**; workers attach by name and decode
  their partition's byte range through a zero-copy ``memoryview``.
  Cleanup is belt-and-braces: explicit ``unlink()`` on every exit path
  of the supervisor, an ``atexit`` hook for anything still registered,
  and creator-pid-stamped segment names (``repro-shm-<pid>-<seq>``) so
  any process can reap segments whose creator died without unlinking
  (SIGKILL, power loss) — :func:`reap_stale_segments` runs on every
  ``SharedTrace`` creation, so one surviving run cleans up after any
  number of killed ones.

* :class:`WorkerPool` keeps one supervised ``ProcessPoolExecutor``
  alive for the whole process: partitions, tools, sweep cells and
  retry rounds all reuse the same warm workers instead of respawning.
  The pool only ever grows; a broken executor (a worker died) or an
  explicit :meth:`WorkerPool.terminate` (a worker wedged) respawns it
  lazily on the next :meth:`WorkerPool.ensure`.  ``tasks_reused``
  counts submissions that rode an already-warm pool — the figure the
  sweep report and ``repro stats`` surface.

One supervisor, :func:`supervise`, runs every round on that pool — tool
replays, trace partitions and sweep cells alike — with one retry,
fallback and kill-hook policy, recording each decision as a
:class:`Degradation`.

Worker processes keep an **attach cache** keyed by segment name
(:func:`attached_view`): the same trace is mapped once per worker, not
once per task, and the cache is LRU-capped so long-lived workers do
not accumulate mappings.  Workers map segments read-only and never
register them with a ``resource_tracker``: only the creator registers
and unlinks, so the books balance whatever the fork order — no
per-worker tracker processes, no spurious tracker unlinks or leak
warnings at exit.

Everything degrades: platforms without working shared memory fall back
to the pickled-subrange path (callers probe :func:`shm_available`),
and a forked child inheriting this module's globals can neither unlink
the parent's segments nor reuse its executor — both are guarded by
creator-pid checks.
"""

from __future__ import annotations

import atexit
import itertools
import mmap
import multiprocessing
import os
import random
import threading
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - exotic build without _posixshmem
    shared_memory = None  # type: ignore[assignment]

__all__ = [
    "KILL_ENV",
    "Degradation",
    "SharedTrace",
    "Supervised",
    "WorkerPool",
    "active_segments",
    "attached_view",
    "detach_all",
    "get_pool",
    "in_pool_worker",
    "pool_stats",
    "reap_stale_segments",
    "share_trace",
    "shm_available",
    "shutdown_pool",
    "supervise",
]

#: segment name prefix; the embedded creator pid is what makes stale
#: segments reapable after a SIGKILL (``repro-shm-<pid>-<seq>``)
_SHM_PREFIX = "repro-shm"

#: where POSIX shared memory surfaces as files on Linux (reaping scans
#: it directly; attach/create never need it)
_SHM_DIR = "/dev/shm"

_seq = itertools.count()
_lock = threading.RLock()

#: creator-side registry: name -> SharedTrace, for the atexit sweep
_LIVE: Dict[str, "SharedTrace"] = {}

_SHM_OK: Optional[bool] = None


def shm_available() -> bool:
    """Probe (once) whether shared-memory segments actually work here."""
    global _SHM_OK
    if _SHM_OK is None:
        if shared_memory is None:
            _SHM_OK = False
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=16)
                probe.close()
                probe.unlink()
                _SHM_OK = True
            except Exception:
                _SHM_OK = False
    return _SHM_OK


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - conservative: assume alive
        return True
    return True


def reap_stale_segments() -> List[str]:
    """Unlink ``repro-shm-*`` segments whose creator process is dead.

    The crash-cleanup backstop: ``atexit`` cannot run under SIGKILL, so
    a killed run leaves its segment behind — but the name carries the
    creator pid, and the next run (any run, any process) reaps it here.
    Returns the names reaped; never raises.
    """
    reaped: List[str] = []
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return reaped
    own = os.getpid()
    for entry in entries:
        if not entry.startswith(_SHM_PREFIX + "-"):
            continue
        parts = entry.split("-")
        if len(parts) < 4 or not parts[2].isdigit():
            continue
        pid = int(parts[2])
        if pid == own or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, entry))
            reaped.append(entry)
        except OSError:  # pragma: no cover - raced with another reaper
            pass
    return reaped


class SharedTrace:
    """One trace payload resident in a shared-memory segment.

    Created by the supervising parent; workers attach by ``name`` via
    :func:`attached_view` and read ``size`` bytes zero-copy.  The
    segment outlives worker crashes (the parent owns it) and is
    unlinked exactly once — by :meth:`unlink`, the ``atexit`` sweep, or
    a later run's :func:`reap_stale_segments` if this process was
    SIGKILLed first.  Usable as a context manager.
    """

    def __init__(self, payload) -> None:
        if shared_memory is None:
            raise RuntimeError("shared memory is not available")
        size = len(payload)
        if size == 0:
            raise ValueError("cannot share an empty payload")
        reap_stale_segments()
        shm = None
        for _ in range(8):  # name collisions only via pid reuse
            name = f"{_SHM_PREFIX}-{os.getpid()}-{next(_seq)}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
                break
            except FileExistsError:  # pragma: no cover - pid-reuse race
                continue
        if shm is None:  # pragma: no cover - 8 straight collisions
            raise RuntimeError("could not allocate a shared trace segment")
        shm.buf[:size] = payload
        self._shm = shm
        self._owner = os.getpid()
        self.name = shm.name
        self.size = size
        with _lock:
            _LIVE[self.name] = self

    def view(self) -> memoryview:
        """Creator-side zero-copy view (workers use attached_view)."""
        if self._shm is None:
            raise ValueError("segment already unlinked")
        return self._shm.buf[: self.size]

    def unlink(self) -> None:
        """Close and remove the segment; idempotent, never raises.

        A forked child inheriting this object is not the owner and
        must not unlink the parent's segment out from under it.
        """
        if self._shm is None or os.getpid() != self._owner:
            return
        shm, self._shm = self._shm, None
        with _lock:
            _LIVE.pop(self.name, None)
        try:
            shm.close()
        except Exception:  # pragma: no cover - exported views linger
            pass
        try:
            shm.unlink()
        except Exception:  # pragma: no cover - already reaped
            pass

    def __enter__(self) -> "SharedTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


def share_trace(payload) -> Optional[SharedTrace]:
    """``payload`` resident in a new segment, or ``None`` where shared
    memory does not work (callers then ship pickled bytes)."""
    if not shm_available():
        return None
    try:
        return SharedTrace(payload)
    except Exception:
        return None


def active_segments() -> int:
    """Segments this process created and has not yet unlinked — the
    ``shm.segments_active`` gauge (0 after every clean replay)."""
    own = os.getpid()
    with _lock:
        return sum(1 for t in _LIVE.values() if t._owner == own)


# -- worker-side attach cache -------------------------------------------------

#: name -> mapping (``_Mapping`` or ``SharedMemory``), LRU order;
#: per-process (each pool worker gets its own after fork)
_ATTACHED: "OrderedDict[str, object]" = OrderedDict()
_ATTACH_CAP = 4
_attach_hits = 0
_attach_misses = 0


class _Mapping:
    """A read-only view of one segment that no resource tracker knows
    about (``buf``/``close`` like ``SharedMemory``)."""

    def __init__(self, name: str) -> None:
        fd = os.open(os.path.join(_SHM_DIR, name), os.O_RDONLY)
        try:
            self._mmap = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()


def _map_segment(name: str):
    """Map segment ``name`` for reading without registering it.

    ``SharedMemory(name=...)`` registers every attach with a resource
    tracker (unconditionally before Python 3.13).  A worker forked
    before the creator's tracker started would start a tracker of its
    own, and that tracker's exit-time sweep warns about segments the
    creator has long unlinked.  Where segments are files under
    ``/dev/shm`` they are mapped directly instead; elsewhere the
    registering attach is the fallback.
    """
    try:
        return _Mapping(name)
    except FileNotFoundError:  # pragma: no cover - shm lives elsewhere
        return shared_memory.SharedMemory(name=name)


def attached_view(name: str, size: int) -> memoryview:
    """Attach to segment ``name`` (cached) and return ``size`` bytes.

    The cache keys by segment name, so a worker replaying many
    partitions — or many tasks across sweep cells — of the same trace
    maps it exactly once.  Capped LRU: attaching an evicted segment
    again is just another open + ``mmap``.
    """
    global _attach_hits, _attach_misses
    if shared_memory is None:
        raise RuntimeError("shared memory is not available")
    with _lock:
        shm = _ATTACHED.get(name)
        if shm is not None:
            _ATTACHED.move_to_end(name)
            _attach_hits += 1
            return shm.buf[:size]
        _attach_misses += 1
    shm = _map_segment(name)
    with _lock:
        _ATTACHED[name] = shm
        while len(_ATTACHED) > _ATTACH_CAP:
            _old, old_shm = _ATTACHED.popitem(last=False)
            try:
                old_shm.close()
            except BufferError:  # pragma: no cover - view still exported
                pass
    return shm.buf[:size]


def attach_stats() -> Dict[str, int]:
    """Hit/miss counters of this process's attach cache."""
    with _lock:
        return {
            "attached": len(_ATTACHED),
            "hits": _attach_hits,
            "misses": _attach_misses,
        }


def detach_all() -> None:
    """Drop every cached attachment (tests; also safe mid-run)."""
    with _lock:
        items = list(_ATTACHED.items())
        _ATTACHED.clear()
    for _name, shm in items:
        try:
            shm.close()
        except BufferError:  # pragma: no cover
            pass


# -- persistent warm worker pool ----------------------------------------------

#: set by the executor initializer in every :class:`WorkerPool` worker
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def in_pool_worker() -> bool:
    """True inside a :class:`WorkerPool` worker process.

    Work running in a pool worker (a sweep cell, say) must not build a
    pool of its own: a nested executor forked from a worker wedges the
    worker's exit, and with it the parent's.  Callers that would fan
    out take their inline path instead."""
    return _IN_WORKER


class WorkerPool:
    """A supervised ``ProcessPoolExecutor`` that survives between uses.

    Callers bracket each round of submissions with
    :meth:`ensure` (grow/heal to at least N workers) and leave the pool
    running afterwards; only a wedged worker forces :meth:`terminate`.
    The executor is replaced — never resized in place — when it must
    grow, is broken, or was terminated; ``spawns`` counts those
    replacements and ``tasks_reused`` the submissions that rode an
    already-used executor (the warm-pool win).
    """

    def __init__(self) -> None:
        self._executor: Optional[ProcessPoolExecutor] = None
        self._workers = 0
        self._used = False
        self._pid = os.getpid()
        self.spawns = 0
        self.respawns_broken = 0
        self.tasks = 0
        self.tasks_reused = 0

    @property
    def workers(self) -> int:
        return self._workers

    def _broken(self) -> bool:
        return bool(getattr(self._executor, "_broken", False))

    def _respawn(self, workers: int) -> None:
        old = self._executor
        if old is not None:
            if self._broken():
                self.respawns_broken += 1
            old.shutdown(wait=False, cancel_futures=True)
        self._executor = ProcessPoolExecutor(
            max_workers=workers, initializer=_mark_worker
        )
        self._workers = workers
        self._used = False
        self.spawns += 1

    def ensure(self, workers: int) -> "WorkerPool":
        """Make the pool usable with at least ``workers`` workers.

        Grows (never shrinks — idle workers are the warmth), and heals
        a broken or terminated executor.  Raises whatever executor
        construction raises (no fork available) — callers already
        treat that as pool-unavailable and fall back to serial.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        with _lock:
            if (
                self._executor is None
                or self._broken()
                or self._workers < workers
            ):
                self._respawn(max(workers, self._workers))
        return self

    def submit(self, fn, *args, **kwargs) -> Future:
        """Submit one task; heals a just-broken executor once."""
        with _lock:
            if self._executor is None:
                raise RuntimeError("WorkerPool.ensure() before submit()")
            warm = self._used
            try:
                future = self._executor.submit(fn, *args, **kwargs)
            except (BrokenProcessPool, RuntimeError):
                self._respawn(self._workers)
                warm = False
                future = self._executor.submit(fn, *args, **kwargs)
            self._used = True
            self.tasks += 1
            if warm:
                self.tasks_reused += 1
            return future

    def terminate(self) -> None:
        """Kill the workers outright (a task wedged past its deadline);
        the next :meth:`ensure` respawns.  Never hangs."""
        with _lock:
            executor, self._executor = self._executor, None
            self._used = False  # _workers survives so regrow keeps size
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5)

    def shutdown(self) -> None:
        """Graceful teardown (atexit, tests)."""
        with _lock:
            executor, self._executor = self._executor, None
            self._used = False
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def stats(self) -> Dict[str, int]:
        return {
            "workers": self._workers,
            "spawns": self.spawns,
            "respawns_broken": self.respawns_broken,
            "tasks": self.tasks,
            "tasks_reused": self.tasks_reused,
        }


_GLOBAL_POOL: Optional[WorkerPool] = None


def get_pool() -> WorkerPool:
    """The process-wide warm pool.

    One pool per process is what hoists pool lifetime to measure/sweep/
    service-job scope with no plumbing: every :func:`supervise` round in
    this process — tools, partitions, sweep cells — shares it.  A
    forked child gets a fresh pool (executors do not survive fork), so
    nested parallelism stays safe.
    """
    global _GLOBAL_POOL
    with _lock:
        if _GLOBAL_POOL is None or _GLOBAL_POOL._pid != os.getpid():
            _GLOBAL_POOL = WorkerPool()
        return _GLOBAL_POOL


def pool_stats() -> Dict[str, int]:
    """Counters of the process-wide pool (zeros before first use)."""
    with _lock:
        if _GLOBAL_POOL is None or _GLOBAL_POOL._pid != os.getpid():
            return {
                "workers": 0,
                "spawns": 0,
                "respawns_broken": 0,
                "tasks": 0,
                "tasks_reused": 0,
            }
        return _GLOBAL_POOL.stats()


def shutdown_pool(terminate: bool = False) -> None:
    """Tear down the process-wide pool (tests, worker loops between
    jobs).  The next :func:`get_pool` starts cold."""
    global _GLOBAL_POOL
    with _lock:
        pool, _GLOBAL_POOL = _GLOBAL_POOL, None
    if pool is not None and pool._pid == os.getpid():
        if terminate:
            pool.terminate()
        else:
            pool.shutdown()


# -- the supervisor -----------------------------------------------------------

#: ceiling on the inter-round backoff sleep, seconds
_MAX_BACKOFF = 5.0

#: private RNG for backoff jitter.  Jitter only paces retries — it must
#: never draw from (and thereby perturb) the global ``random`` stream,
#: which seeded workloads and experiment scripts rely on for
#: reproducibility.  OS-entropy seeded: pacing needs no determinism.
_jitter_rng = random.Random()

#: fault-injection hook: a comma-separated list of task keys (a tool
#: name, a partition index, a sweep cell id).  The spec is read
#: parent-side at submit — a warm pool may have forked before it was
#: set — and shipped with each task; a pool worker running a named task
#: exits hard (``os._exit``) before starting it, simulating an
#: OOM-killed worker.  Never honoured in the parent, so the caller's
#: inline fallback survives.
KILL_ENV = "REPRO_POOL_TEST_KILL"


@dataclass(frozen=True)
class Degradation:
    """One self-healing action a supervised stage had to take.

    ``stage`` is where the problem surfaced (``parallel-replay``,
    ``partition-replay``, ``parallel-sweep``, ``serial-replay``, ...),
    ``attempt`` which try failed, and ``action`` what was done about it
    (``retried``, ``serial-fallback`` or ``excluded``)."""

    stage: str
    tool: str
    attempt: int
    reason: str
    action: str

    def as_dict(self) -> dict:
        """The report spelling shared by every JSON surface (overhead,
        sweep, service job reports).  ``tool`` doubles as the cell id
        for sweep/service stages — the key is named ``unit`` here so
        the consumer does not have to guess."""
        return {
            "stage": self.stage,
            "unit": self.tool,
            "attempt": self.attempt,
            "reason": self.reason,
            "action": self.action,
        }


class Supervised(NamedTuple):
    """What :func:`supervise` could not finish, and why."""

    #: keys the caller must run inline, in task order
    unfinished: List[Hashable]
    #: failed tries per key (a finished key's count is final)
    attempts: Dict[Hashable, int]
    degradations: List[Degradation]


def _kill_keys() -> frozenset:
    spec = os.environ.get(KILL_ENV) or ""
    return frozenset(key.strip() for key in spec.split(",") if key.strip())


def _run_task(fn: Callable, args: tuple, kill: bool):
    """Pool-side wrapper of every supervised task."""
    if kill and multiprocessing.parent_process() is not None:
        os._exit(13)
    return fn(*args)


def supervise(
    tasks: Dict[Hashable, Tuple[Callable, tuple]],
    *,
    stage: str,
    workers: int,
    timeout: float,
    max_retries: int,
    backoff_base: float,
    on_result: Callable[[Hashable, Any], None],
    unit: Callable[[Hashable], str] = str,
) -> Supervised:
    """Run ``tasks`` (``{key: (fn, args)}``) on the warm pool in rounds.

    Each round submits every pending task and collects results in
    completion order against one shared deadline — ``timeout`` per wave
    of ``workers`` tasks — handing each to ``on_result(key, value)`` as
    it arrives.  The policy, the same for every stage:

    * a task that misses the deadline, or whose worker died
      (``BrokenProcessPool``), is retried next round after a capped,
      jittered exponential backoff, and becomes ``serial-fallback`` once
      it has failed ``max_retries + 1`` times;
    * any other exception is deterministic — a process retry cannot
      help — and goes straight to ``serial-fallback``;
    * a round in which a task timed out ends with
      :meth:`WorkerPool.terminate` (a wedged worker cannot stay warm);
    * a pool that cannot start marks every pending key
      ``serial-fallback``.

    The parent only waits: the executor's dispatch threads need the GIL
    to hand each task to a worker, and work the parent ran meanwhile in
    pure Python would hold it for whole switch intervals at every
    hand-off.  Degradations name the key as ``unit(key)`` under
    ``stage``, with ``attempt`` = tries so far.

    Never raises on worker trouble and never hangs; exceptions from
    ``on_result`` propagate.  The caller runs the returned
    ``unfinished`` keys inline.
    """
    pending = dict(tasks)
    order = list(tasks)
    attempts: Dict[Hashable, int] = {key: 0 for key in order}
    finished = set()
    degradations: List[Degradation] = []
    kill = _kill_keys()
    pool = get_pool()

    def deliver(key: Hashable, value: Any) -> None:
        pending.pop(key, None)
        finished.add(key)
        on_result(key, value)

    def fail(key: Hashable, reason: str, retry: bool) -> None:
        attempts[key] += 1
        exhausted = not retry or attempts[key] > max_retries
        if exhausted:
            pending.pop(key, None)
        degradations.append(
            Degradation(
                stage,
                unit(key),
                attempts[key],
                reason,
                "serial-fallback" if exhausted else "retried",
            )
        )

    round_no = 0
    while pending and round_no <= max_retries:
        round_no += 1
        if round_no > 1:
            delay = backoff_base * 2.0 ** (round_no - 2)
            time.sleep(
                min(delay + _jitter_rng.uniform(0, backoff_base), _MAX_BACKOFF)
            )
        futures: Dict[Future, Hashable] = {}
        try:
            pool.ensure(min(workers, len(pending)))
            for key, (fn, args) in pending.items():
                future = pool.submit(_run_task, fn, args, str(key) in kill)
                futures[future] = key
        except Exception as exc:  # no fork/spawn available at all
            futures = {}
            reason = f"pool unavailable: {type(exc).__name__}: {exc}"
            for key in list(pending):
                fail(key, reason, False)
        waves = -(-len(futures) // max(1, workers))
        deadline = time.monotonic() + timeout * max(1, waves)
        not_done = set(futures)
        while not_done:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            done, not_done = futures_wait(
                not_done, timeout=remaining, return_when=FIRST_COMPLETED
            )
            for future in done:
                key = futures[future]
                try:
                    value = future.result()
                except BrokenProcessPool as exc:
                    fail(key, f"worker pool broke: {exc}", True)
                except Exception as exc:
                    fail(key, f"{type(exc).__name__}: {exc}", False)
                else:
                    deliver(key, value)
        for future in not_done:
            fail(futures[future], f"exceeded {timeout:g}s timeout", True)
        if not_done:
            pool.terminate()
    unfinished = [key for key in order if key not in finished]
    return Supervised(unfinished, attempts, degradations)


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - exercised via subprocess
    """Last-chance cleanup: unlink owned segments, stop the pool.

    Runs in every process that imported this module — the owner-pid
    guards inside ``unlink()``/``shutdown_pool()`` make it a no-op in
    forked children, so a pool worker exiting cannot unlink a segment
    its parent still serves to siblings.
    """
    with _lock:
        traces = list(_LIVE.values())
    for trace in traces:
        trace.unlink()
    shutdown_pool()
    detach_all()
