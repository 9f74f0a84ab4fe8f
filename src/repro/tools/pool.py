"""Persistent warm worker pool and the one round supervisor.

:class:`WorkerPool` keeps N forked worker processes alive for the whole
process — partitions, tools, sweep cells and retry rounds all reuse the
same warm workers instead of respawning.  Each worker owns one duplex
``multiprocessing`` pipe: a task is ``(fn, args)`` pickled straight
into an idle worker's pipe, and the reply ``(ok, value)`` comes back on
the same pipe.  The calling thread does both ends itself — one
``send`` to dispatch, one :func:`multiprocessing.connection.wait` over
the busy workers' pipes and process sentinels to collect — so there is
no management thread, no queue-feeder thread and no future hop between
a task and its worker.  ``tasks_reused`` counts tasks that rode an
already-used worker — the figure the sweep report and ``repro stats``
surface.

Failures stay with one worker.  A worker that dies (its sentinel turns
ready, or its pipe hits EOF) fails only the task it was running, and
only that worker is respawned (``respawns_broken``); a worker that
misses a round's deadline is killed and respawned alone.  The other
workers stay warm.

One supervisor, :func:`supervise`, runs every round on that pool — tool
replays, trace partitions and sweep cells alike — with one retry,
fallback and kill-hook policy, recording each decision as a
:class:`Degradation`.  A partition round also gives the parent one
slot (``inline=``): it replays one partition itself between dispatch
and collection, so the round needs one worker fewer.  Tool and sweep
rounds stay all-pool: their fault tools fault only inside a worker,
and a sweep cell run in the parent would open a nested round on this
pool.

Tasks carry their trace bytes pickled: a partition task ships its
subrange (trace header plus its own sections), a tool task the whole
payload.  Stored traces are fused and small (the fig-4 x16 trace is
~3 KB), so the pickle costs less than the shared-memory segment that
used to hold them.
:class:`SharedTrace`, :func:`shm_available`, :func:`active_segments`
and :func:`reap_stale_segments` remain for the crash-cleanup backstop
and the benchmark hooks that still name them; no replay creates a
segment any more.

A forked child inheriting this module's globals can neither unlink the
parent's segments nor reuse its workers — both are guarded by
creator-pid checks.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import random
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
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
    "Task",
    "WorkerDied",
    "WorkerPool",
    "active_segments",
    "get_pool",
    "in_pool_worker",
    "pool_stats",
    "reap_stale_segments",
    "shm_available",
    "shutdown_pool",
    "supervise",
    "usable_cpus",
]

#: segment name prefix; the embedded creator pid is what makes stale
#: segments reapable after a SIGKILL (``repro-shm-<pid>-<seq>``)
_SHM_PREFIX = "repro-shm"

#: where POSIX shared memory surfaces as files on Linux (reaping scans
#: it directly)
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
    """One payload resident in a pid-stamped shared-memory segment.

    The segment is unlinked exactly once — by :meth:`unlink`, the
    ``atexit`` sweep, or a later run's :func:`reap_stale_segments` if
    this process was SIGKILLed first.
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


def active_segments() -> int:
    """Segments this process created and has not yet unlinked — the
    ``shm.segments_active`` gauge (0 whenever nothing leaked)."""
    own = os.getpid()
    with _lock:
        return sum(1 for t in _LIVE.values() if t._owner == own)


# -- persistent warm worker pool ----------------------------------------------

#: set in every :class:`WorkerPool` worker as it starts
_IN_WORKER = False


def in_pool_worker() -> bool:
    """True inside a :class:`WorkerPool` worker process.

    Work running in a pool worker (a sweep cell, say) must not build a
    pool of its own: a nested pool forked from a worker wedges the
    worker's exit, and with it the parent's.  Callers that would fan
    out take their inline path instead."""
    return _IN_WORKER


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, which taskset
    and cpusets narrow, falling back to ``os.cpu_count()`` where the
    platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


#: seconds :meth:`WorkerPool.shutdown` and a respawn wait for a worker
#: to exit before killing it
_EXIT_GRACE = 5.0


def _worker_main(conn, inherited) -> None:
    """A worker's whole life: run ``(fn, args)`` tasks off ``conn`` and
    send back ``(True, value)`` or ``(False, exception)`` until the
    parent closes its end."""
    global _IN_WORKER, _lock
    _IN_WORKER = True
    _lock = threading.RLock()  # the parent may have forked holding it
    # Drop the parent-side pipe ends this fork copied — its own and its
    # siblings' — so each pipe has exactly two ends and a parent that
    # dies reads as EOF here.
    for other in inherited:
        other.close()
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            fn, args = pickle.loads(data)
            reply = (True, fn(*args))
        except Exception as exc:
            reply = (False, exc)
        try:
            # plain C pickling, as for tasks (``conn.send`` would run
            # the slower ``ForkingPickler`` on every reply)
            conn.send_bytes(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        except OSError:  # the parent closed its end mid-task
            return
        except Exception as exc:  # the value or exception would not pickle
            conn.send(
                (
                    False,
                    RuntimeError(
                        f"unpicklable reply: {type(exc).__name__}: {exc}"
                    ),
                )
            )


class WorkerDied(RuntimeError):
    """The worker running a task exited before replying."""


class Task:
    """One task in flight on one worker; :meth:`result` waits for it."""

    __slots__ = ("_pool", "_worker", "_outcome")

    def __init__(self, pool: "WorkerPool", worker: "_Worker") -> None:
        self._pool = pool
        self._worker = worker
        #: ``None`` in flight, then the raw reply bytes (unpickled on
        #: first :meth:`result`) or a decoded ``(ok, value)``
        self._outcome: Any = None

    def result(self) -> Any:
        """The task's value, or its exception raised here
        (:class:`WorkerDied` if its worker exited first)."""
        if self._outcome is None:
            with _lock:
                self._pool._collect(self)
        if isinstance(self._outcome, bytes):
            try:
                self._outcome = pickle.loads(self._outcome)
            except Exception as exc:  # the reply would not unpickle
                self._outcome = (False, exc)
        ok, value = self._outcome
        if ok:
            return value
        raise value


class _Worker:
    """One forked worker process and the parent's end of its pipe; a
    respawn restarts the same object, so tasks keep their reference."""

    __slots__ = ("process", "conn", "task", "used")

    def start(self, ctx, siblings: Iterable["_Worker"]) -> None:
        conn, child = ctx.Pipe(duplex=True)
        inherited = [conn] + [w.conn for w in siblings if w is not self]
        process = ctx.Process(
            target=_worker_main, args=(child, inherited), name="repro-pool"
        )
        try:
            process.start()
        finally:
            child.close()
        self.process = process
        self.conn = conn
        self.task: Optional[Task] = None
        self.used = False

    def stop(self, kill: bool) -> None:
        """Close the pipe (an idle worker exits on the EOF); with
        ``kill``, or if it has not exited within the grace period,
        signal it.  Never hangs."""
        self.conn.close()
        process = self.process
        if kill and process.is_alive():
            process.terminate()
        process.join(_EXIT_GRACE)
        if process.is_alive():  # pragma: no cover - ignored SIGTERM
            process.kill()
            process.join(_EXIT_GRACE)
        try:
            process.close()  # its sentinel fd, now rather than at GC
        except ValueError:  # pragma: no cover - unkillable
            pass


class WorkerPool:
    """N warm forked workers, one duplex pipe each, that survive between
    uses.

    Callers bracket each round of submissions with :meth:`ensure`
    (grow to at least N workers, replacing any that died while idle)
    and leave the pool running afterwards.  ``spawns`` counts worker
    processes started, ``respawns_broken`` the dead workers replaced,
    ``tasks`` the tasks sent and ``tasks_reused`` those that went to a
    worker that had run one before (the warm-pool win).
    """

    def __init__(self) -> None:
        self._workers: List[_Worker] = []
        self._pid = os.getpid()
        self.spawns = 0
        self.respawns_broken = 0
        self.tasks = 0
        self.tasks_reused = 0

    @property
    def workers(self) -> int:
        return len(self._workers)

    def _start(self, worker: _Worker) -> None:
        # raises ValueError where fork does not exist: pool unavailable
        worker.start(multiprocessing.get_context("fork"), self._workers)
        self.spawns += 1

    def _respawn(self, worker: _Worker, broken: bool) -> None:
        """Restart ``worker`` (dead, or wedged: it is killed first)."""
        worker.stop(kill=True)
        self._start(worker)
        if broken:
            self.respawns_broken += 1

    def ensure(self, workers: int) -> "WorkerPool":
        """Make the pool usable with at least ``workers`` workers.

        Grows (never shrinks — idle workers are the warmth) and
        restarts idle workers that died since the last round.  Raises
        whatever forking raises — callers already treat that as
        pool-unavailable and fall back to serial.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        with _lock:
            for worker in self._workers:
                if worker.task is None and not worker.process.is_alive():
                    self._respawn(worker, broken=True)
            while len(self._workers) < workers:
                worker = _Worker()
                self._start(worker)
                self._workers.append(worker)
        return self

    def submit(self, fn: Callable, *args) -> Task:
        """Send ``fn(*args)`` to the first idle worker and return its
        :class:`Task`.  With every worker busy, first waits for one to
        reply (the reply is kept for its own task's ``result()``).  A
        task that will not pickle raises here, before anything is
        sent."""
        with _lock:
            if not self._workers:
                raise RuntimeError("WorkerPool.ensure() before submit()")
            idle = [w for w in self._workers if w.task is None]
            if not idle:
                busy = [w.task for w in self._workers]
                idle = [task._worker for task in self.collect(busy, None)]
            worker = idle[0]
            data = pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)
            try:
                worker.conn.send_bytes(data)
            except OSError:  # it died while idle
                self._respawn(worker, broken=True)
                worker.conn.send_bytes(data)
            task = worker.task = Task(self, worker)
            self.tasks += 1
            if worker.used:
                self.tasks_reused += 1
            worker.used = True
            return task

    def _collect(self, task: Task, ready=None) -> None:
        """Block until ``task``'s worker replies or dies and settle the
        task (``ready``: what a :func:`connection.wait` already saw
        ready).  The reply is kept as bytes, so the worker is free for
        its next task before the parent unpickles anything.  A dead
        worker fails the task with :class:`WorkerDied` and is
        restarted."""
        worker = task._worker
        if worker.task is not task:  # settled already
            return
        worker.task = None
        if ready is None:
            ready = connection.wait([worker.conn, worker.process.sentinel])
        try:
            if worker.conn not in ready:
                raise EOFError
            data = worker.conn.recv_bytes()
        except (EOFError, OSError):
            worker.process.join(_EXIT_GRACE)
            task._outcome = (
                False,
                WorkerDied(
                    f"worker pool broke: worker {worker.process.pid} "
                    f"exited with code {worker.process.exitcode}"
                ),
            )
            self._respawn(worker, broken=True)
            return
        task._outcome = data

    def collect(
        self, tasks: List[Task], timeout: Optional[float]
    ) -> List[Task]:
        """Wait up to ``timeout`` seconds (``None``: until one is) for
        replies among ``tasks``; returns the tasks settled, in
        ``tasks`` order.  Their ``result()`` then returns at once."""
        if all(task._outcome is None for task in tasks):
            waits: Dict[Any, Task] = {}
            for task in tasks:
                worker = task._worker
                waits[worker.conn] = waits[worker.process.sentinel] = task
            ready = connection.wait(list(waits), timeout)
            with _lock:
                for obj in ready:
                    self._collect(waits[obj], ready)
        return [task for task in tasks if task._outcome is not None]

    def kill(self, task: Task) -> None:
        """Kill the worker running ``task`` (it missed its deadline) and
        restart it; the other workers stay warm."""
        with _lock:
            worker = task._worker
            if worker.task is task:
                worker.task = None
                task._outcome = (False, WorkerDied("killed past deadline"))
                self._respawn(worker, broken=False)

    def shutdown(self) -> None:
        """Stop every worker: close all pipes first so they exit
        together, then reap them (killing any still busy after the
        grace period).  Never hangs."""
        with _lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.conn.close()
        for worker in workers:
            worker.stop(kill=False)

    def stats(self) -> Dict[str, int]:
        return {
            "workers": len(self._workers),
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
    forked child gets a fresh pool (workers belong to the process that
    forked them), so nested parallelism stays safe.
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


def shutdown_pool() -> None:
    """Tear down the process-wide pool (tests, worker loops between
    jobs).  The next :func:`get_pool` starts cold."""
    global _GLOBAL_POOL
    with _lock:
        pool, _GLOBAL_POOL = _GLOBAL_POOL, None
    if pool is not None and pool._pid == os.getpid():
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
#: inline fallback survives; a round's parent slot never takes a named
#: key, so the kill always happens.
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
    if kill and _IN_WORKER:
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
    inline: Optional[Callable[[Hashable], Any]] = None,
) -> Supervised:
    """Run ``tasks`` (``{key: (fn, args)}``) on the warm pool in rounds.

    A round keeps up to ``workers`` tasks in flight: it writes each
    pending task into an idle worker's pipe, and when tasks outnumber
    workers the next one goes to the first worker that replies, before
    the parent unpickles that reply.
    Results are collected in completion order against one shared
    deadline — ``timeout`` per wave of ``workers`` tasks — and handed to
    ``on_result(key, value)`` as they arrive.

    ``inline`` is the caller's own in-process run of one key.  Given it
    and ``workers >= 2``, the parent is the last of the ``workers``
    slots: a round keeps ``workers - 1`` tasks in the pool, then the
    parent runs one pending key as ``inline(key)``, then it collects;
    while keys remain it refills the freed workers and takes another
    key itself.  A key named in ``REPRO_POOL_TEST_KILL`` always goes to
    a worker.  The policy, the same for every stage:

    * a task that misses the deadline, or whose worker died, is retried
      next round after a capped, jittered exponential backoff, and
      becomes ``serial-fallback`` once it has failed ``max_retries + 1``
      times;
    * any other exception (a task that would not pickle, or an
      ``inline`` call that raised, included) is deterministic — a
      process retry cannot help — and goes straight to
      ``serial-fallback``;
    * a worker that died is respawned alone, and at the deadline only
      the workers still running a task are killed and respawned; the
      others stay warm — a reply that arrived while the parent ran its
      own share past the deadline still counts;
    * a pool that cannot start marks every pending key
      ``serial-fallback``.

    Degradations name the key as ``unit(key)`` under ``stage``, with
    ``attempt`` = tries so far.

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
    width = max(1, workers)
    # pool slots per round: with ``inline`` the parent is the last one
    slots = width - 1 if inline is not None and width >= 2 else width

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

    def done(key: Hashable, value: Any) -> None:
        pending.pop(key)
        finished.add(key)
        on_result(key, value)

    def fill(queue: List[Hashable], running: Dict[Task, Hashable]) -> None:
        """Dispatch keys off the end of ``queue`` until ``slots`` run."""
        while queue and len(running) < slots:
            key = queue.pop()
            fn, args = pending[key]
            try:
                task = pool.submit(_run_task, fn, args, str(key) in kill)
            except Exception as exc:  # the task would not pickle
                fail(key, f"{type(exc).__name__}: {exc}", False)
            else:
                running[task] = key

    def reap(
        running: Dict[Task, Hashable], wait: float
    ) -> List[Tuple[Task, Hashable]]:
        """Take the tasks that reply within ``wait`` seconds out of
        ``running``."""
        return [
            (task, running.pop(task))
            for task in pool.collect(list(running), wait)
        ]

    def settle(settled: List[Tuple[Task, Hashable]]) -> None:
        for task, key in settled:
            try:
                value = task.result()
            except WorkerDied as exc:
                fail(key, str(exc), True)
            except Exception as exc:
                fail(key, f"{type(exc).__name__}: {exc}", False)
            else:
                done(key, value)

    def share(queue: List[Hashable]) -> bool:
        """Run the next queued key that no kill spec names in the
        parent; False if there is none."""
        for key in reversed(queue):
            if str(key) not in kill:
                break
        else:
            return False
        queue.remove(key)
        try:
            value = inline(key)
        except Exception as exc:
            fail(key, f"{type(exc).__name__}: {exc}", False)
        else:
            done(key, value)
        return True

    round_no = 0
    while pending and round_no <= max_retries:
        round_no += 1
        if round_no > 1:
            delay = backoff_base * 2.0 ** (round_no - 2)
            time.sleep(
                min(delay + _jitter_rng.uniform(0, backoff_base), _MAX_BACKOFF)
            )
        try:
            pool.ensure(min(slots, len(pending)))
        except Exception as exc:  # no fork available at all
            reason = f"pool unavailable: {type(exc).__name__}: {exc}"
            for key in list(pending):
                fail(key, reason, False)
            continue
        queue = list(pending)
        queue.reverse()  # pop() from the end takes keys in task order
        deadline = time.monotonic() + timeout * -(-len(queue) // width)
        running: Dict[Task, Hashable] = {}
        fill(queue, running)
        while running:
            shared = (
                slots < width and time.monotonic() < deadline and share(queue)
            )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if shared:  # replies that landed while the parent ran
                    settle(reap(running, 0))
                break
            settled = reap(running, remaining)
            # freed workers get their next task before any reply unpickles
            fill(queue, running)
            settle(settled)
        for task, key in running.items():
            fail(key, f"exceeded {timeout:g}s timeout", True)
            pool.kill(task)
        for key in reversed(queue):  # never started before the deadline
            fail(key, f"exceeded {timeout:g}s timeout", True)
    unfinished = [key for key in order if key not in finished]
    return Supervised(unfinished, attempts, degradations)


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - exercised via subprocess
    """Last-chance cleanup: unlink owned segments, stop the pool.

    Registered after :mod:`multiprocessing`'s own exit hook (imported
    above), so it runs first: the workers are told to exit before
    multiprocessing joins its children.  The owner-pid guards inside
    ``unlink()``/``shutdown_pool()`` make it a no-op in forked
    children.
    """
    with _lock:
        traces = list(_LIVE.values())
    for trace in traces:
        trace.unlink()
    shutdown_pool()
