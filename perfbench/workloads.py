"""The benchmark workloads, each driven through the public API.

Every workload runs in one process as a closed loop: the next op starts
only when the previous one has finished.  Ops run in whole *rounds*;
a round is one seeded permutation of the workload's fixed op set, so
every run sees the same mix of ops and latency quantiles stay put.

A workload provides:

* ``setup()`` — imports, inputs built from the seed, pool warm-up
  (this is what ``setup_s`` times);
* ``prepare_references()`` — the reference outputs, computed after
  ``setup_s`` is taken and before the first timed op;
* ``round(index, trace)`` — one round: returns the timed wall and one
  :class:`Op` per op.  Every op's output is checked against the
  reference right after the timed region that produced it;
* ``bytes_per_event`` and ``layer_extras()`` — figures the workload's
  results report directly (tool replay times, warm sweep wall).
"""

from __future__ import annotations

import os
import pickle
import random
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace

TOOL_NAMES = ("nulgrind", "memcheck", "callgrind", "helgrind", "aprof", "aprof-drms")


@dataclass
class Op:
    latency: float
    events: int
    ok: bool
    degraded: bool
    #: counts towards the op latency quantiles
    sampled: bool = True


def _root(trace):
    return trace.span("op") if trace is not None else nullcontext()


def _warm_pool(workers: int) -> None:
    from repro.tools.pool import get_pool

    pool = get_pool().ensure(workers)
    for future in [pool.submit(os.getpid) for _ in range(workers)]:
        future.result()


def _tree_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def _per_op(extras: dict, ops: int, totals: tuple) -> dict:
    """Per-op means of the reported figures, except the run totals."""
    return {k: v if k in totals else v / max(ops, 1) for k, v in extras.items()}


def merged_profiles(root: str, workloads, scales):
    """Per workload, the pickled merged profilers (canonical cell order)
    and their profile projection; plus the cells missing from the store."""
    from repro.sweep.engine import merge_store_profiles

    merged, missing = merge_store_profiles(root, list(workloads), list(scales), threads=4)
    out = {
        w: (pickle.dumps(p), (profile_state(p["drms"].profiles), read_counts(p["drms"]),
                              profile_state(p["rms"].profiles)))
        for w, p in merged.items()
    }
    return out, set(missing)


def profile_state(profiles) -> dict:
    return {key: (p.calls, p.total_input, p.points) for key, p in profiles}


def read_counts(profiler) -> dict:
    return {r: tuple(c) for r, c in profiler.read_counters.items() if any(c)}


class Workload:
    name = ""
    #: op latency percentile reported as ``op_tail_s`` (nearest rank)
    tail_pct = 90

    def __init__(self, seed: int, workdir: str, workers: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.workers = workers
        self.bytes_per_event = 0.0
        self.extras = {}
        #: stated input size, for the report line
        self.input_size = {}

    def layer_extras(self) -> dict:
        return dict(self.extras)


class Fig4Replay(Workload):
    """The fig-4 ``mysql_select`` run, recorded once and concatenated
    ``RUNS`` times with a depth-zero boundary between runs; each op is
    one partitioned bytes-to-merged-profiles replay under drms and rms."""

    name = "fig4_replay"
    RUNS = 16
    # The ops are identical replays, so latency above the upper quartile
    # follows host jitter rather than the program: over 10 seeds the p90
    # spread (Q3-Q1)/median reached 0.43 on the 2-CPU reference host.
    tail_pct = 75

    def setup(self) -> None:
        from repro.core.events import SwitchThread, encode_events
        from repro.core.tracing import with_switches
        from repro.vm.machine import Machine
        from repro.vm.scheduler import RandomScheduler
        from repro.workloads.mysql import select_sweep

        machine = select_sweep(
            machine=Machine(scheduler=RandomScheduler(self.rng.randrange(2**32)))
        )
        machine.run()
        self.run_events = with_switches(machine.trace)
        events, bounds = [], []
        for _ in range(self.RUNS):
            if events:
                bounds.append(len(events))
                events.append(SwitchThread())
            events.extend(self.run_events)
        batch = encode_events(events)
        self.payload = batch.to_bytes(boundaries=bounds)
        self.events = len(batch)
        self.bytes_per_event = len(self.payload) / self.events
        self.input_size = {
            "runs": self.RUNS,
            "events": self.events,
            "payload_bytes": len(self.payload),
        }
        del events, batch
        _warm_pool(self.workers)
        self._replay()  # first replay attaches shm and fills caches

    def _replay(self):
        from repro.tools.partition import replay_partitioned

        return replay_partitioned(
            self.payload,
            partitions=self.workers,
            kinds=("drms", "rms"),
            workers=self.workers,
        )

    def prepare_references(self) -> None:
        from repro.core import FULL_POLICY, DrmsProfiler, NaiveDrmsProfiler, RmsProfiler
        from repro.core.events import EventBatch

        decoded = list(EventBatch.from_bytes(self.payload).iter_events())
        drms = DrmsProfiler(policy=FULL_POLICY)
        drms.run(decoded)
        rms = RmsProfiler()
        rms.run(decoded)
        self.ref = (profile_state(drms.profiles), read_counts(drms), profile_state(rms.profiles))
        # One recorded run against the naive oracle.
        oracle = NaiveDrmsProfiler(policy=FULL_POLICY)
        oracle.run(self.run_events)
        single = DrmsProfiler(policy=FULL_POLICY)
        single.run(self.run_events)
        self.oracle_ok = (profile_state(oracle.profiles), read_counts(oracle)) == (
            profile_state(single.profiles),
            read_counts(single),
        )

    def round(self, index: int, trace):
        start = time.perf_counter()
        try:
            with _root(trace):
                rep = self._replay()
        except Exception:  # a failed op, counted below
            traceback.print_exc()
            return time.perf_counter() - start, [Op(time.perf_counter() - start, 0, False, False)]
        latency = time.perf_counter() - start
        drms, rms = rep.profilers["drms"], rep.profilers["rms"]
        got = (profile_state(drms.profiles), read_counts(drms), profile_state(rms.profiles))
        ok = self.oracle_ok and got == self.ref
        return latency, [Op(latency, self.events, ok, bool(rep.degradations))]


class Table1Tools(Workload):
    """The Table 1 pass: each op is one ``measure_workload`` over one
    SPEC-OMP kernel under all six tools."""

    name = "table1_tools"
    THREADS = 8
    SCALE = 3

    def setup(self) -> None:
        from repro.tools.runner import measure_workload  # noqa: F401
        from repro.workloads.registry import suite

        self.kernels = sorted(w.name for w in suite("specomp"))
        self.sched_seed = {k: self.rng.randrange(2**32) for k in self.kernels}
        _warm_pool(self.workers)
        self.extras = {f"tools.{t}_s": 0.0 for t in TOOL_NAMES}
        self.extras["tools.excluded"] = 0.0
        self._ops = 0
        self._bytes = self._events = 0

    def _build(self, name: str):
        from repro.vm.scheduler import RandomScheduler
        from repro.workloads.registry import get_workload

        def build():
            machine = get_workload(name).build(threads=self.THREADS, scale=self.SCALE)
            machine.scheduler = RandomScheduler(self.sched_seed[name])
            return machine

        return build

    def prepare_references(self) -> None:
        from repro.core.tracefile import plan_partitions
        from repro.tools.partition import replay_partitioned
        from repro.tools.runner import DEFAULT_TOOLS, record_trace, replay_tool

        self.ref = {}
        for name in self.kernels:
            _, batch, machine = record_trace(self._build(name))
            payload = batch.to_bytes(boundaries=machine.trace_boundaries)
            plan = plan_partitions(payload, self.workers)
            space = {}
            for tool, factory in DEFAULT_TOOLS.items():
                kind = getattr(factory, "partition_kind", None)
                if kind is None:
                    space[tool] = replay_tool(factory, batch, 1, engine="columnar")[1]
                else:
                    # Partitioned tools report the largest partition's
                    # shadow state; the reference replays the same plan
                    # inline.
                    space[tool] = replay_partitioned(
                        payload, plan=plan, kinds=(kind,), workers=1
                    ).max_space_cells
            self.ref[name] = (len(batch), space)
        self.input_size = {
            "kernels": len(self.kernels),
            "events_per_round": sum(events for events, _ in self.ref.values()),
        }

    def round(self, index: int, trace):
        from repro.tools.runner import measure_workload

        order = list(self.kernels)
        self.rng.shuffle(order)
        wall, ops = 0.0, []
        for name in order:
            start = time.perf_counter()
            try:
                with _root(trace):
                    m = measure_workload(
                        name,
                        self._build(name),
                        repeats=1,
                        parallel=self.workers,
                        partitions=self.workers,
                    )
            except Exception:  # a failed op, counted below
                traceback.print_exc()
                wall += time.perf_counter() - start
                ops.append(Op(time.perf_counter() - start, 0, False, False))
                continue
            latency = time.perf_counter() - start
            wall += latency
            events, space = self.ref[name]
            got = {t: tm.space_cells for t, tm in m.tools.items()}
            ok = m.trace_events == events and got == space
            ops.append(Op(latency, m.trace_events * len(m.tools), ok, bool(m.degradations)))
            for tool, tm in m.tools.items():
                self.extras[f"tools.{tool}_s"] += tm.replay_time
            self.extras["tools.excluded"] += len(m.excluded_tools)
            self._ops += 1
            self._bytes += m.trace_bytes
            self._events += m.trace_events
        self.bytes_per_event = self._bytes / self._events if self._events else 0.0
        return wall, ops

    def layer_extras(self) -> dict:
        return _per_op(self.extras, self._ops, ("tools.excluded",))


class SweepColdWarm(Workload):
    """``run_sweep`` into a fresh store (cold), then again over the same
    store (warm), then the same cells as one job of an in-process
    ``Coordinator`` with its durable journal (fsync on), drained by one
    ``run_worker`` over ``LocalClient`` (service).  Each op is one cell;
    latency quantiles use the cold cells, and the warm re-sweep wall is
    reported as a layer figure.

    The service pass is the only place the journal and the lease
    bookkeeping run.  Its cells all hit the store, so coordination is
    most of each of them.  It is not a workload of its own: with fresh
    cold cells per job, its latency swung by up to 60% between runs on
    a quiet host, more than any bound allows."""

    name = "sweep_cold_warm"
    # p90: a round has 15 cold cells and a 30 s run on a host slowed
    # twofold holds about 11 rounds, so p95 would leave fewer than 10
    # samples beyond it.
    tail_pct = 90
    # vips_wbuffer is left out: its trace grows quadratically with scale
    # (580k events at scale 3), so one cell would be most of every round.
    WORKLOADS = (
        "mysql_select",
        "producer_consumer",
        "selection_sort",
        "stream_reader",
        "vips_im_generate",
    )
    SCALES = (1, 2, 3)
    TOOLS = TOOL_NAMES

    def setup(self) -> None:
        from repro.service import Coordinator  # noqa: F401
        from repro.service.worker import LocalClient, run_worker  # noqa: F401

        _warm_pool(self.workers)
        self.warm_walls = []
        self.extras = {f"tools.{t}_s": 0.0 for t in TOOL_NAMES}
        self.extras.update(
            {"sweep.degradations": 0.0, "store.corrupt": 0.0, "service.poll_wait_s": 0.0}
        )
        self._ops = 0

    def _config(self, root: str, workloads, scales, parallel):
        from repro.sweep import SweepConfig

        # partitions stay off here: with partitions set, every pool
        # worker builds a nested pool whose processes keep the worker
        # from exiting (see METRICS.md).
        return SweepConfig(
            workloads=tuple(workloads),
            scales=tuple(scales),
            store_root=root,
            threads=4,
            tools=self.TOOLS,
            repeats=1,
            parallel=parallel,
            partitions=None,
        )

    def prepare_references(self) -> None:
        from repro.sweep import run_sweep

        # A direct serial sweep (pickle-equal reference), and one through
        # the paper-faithful scalar engine, whose profiles must match too.
        refs = []
        for engine in ("columnar", "scalar"):
            root = os.path.join(self.workdir, f"reference-{engine}")
            config = self._config(root, self.WORKLOADS, self.SCALES, None)
            run_sweep(replace(config, engine=engine))
            merged, missing = merged_profiles(root, self.WORKLOADS, self.SCALES)
            if missing:
                raise RuntimeError(f"reference sweep lost cells {sorted(missing)}")
            refs.append(merged)
            shutil.rmtree(root)
        self.ref = {w: (refs[0][w][0], refs[1][w][1]) for w in self.WORKLOADS}

    def round(self, index: int, trace):
        from repro.sweep import run_sweep

        workloads, scales = list(self.WORKLOADS), list(self.SCALES)
        self.rng.shuffle(workloads)
        self.rng.shuffle(scales)
        root = os.path.join(self.workdir, f"store-{index}")
        config = self._config(root, workloads, scales, self.workers)
        results, walls = [], []
        for _ in ("cold", "warm"):
            start = time.perf_counter()
            try:
                with _root(trace):
                    results.append(run_sweep(config))
            except Exception:  # a failed op, counted below
                traceback.print_exc()
                results.append(None)
            walls.append(time.perf_counter() - start)
        if results[1] is not None:
            self.warm_walls.append(walls[1])
        start = time.perf_counter()
        service_cells, state = self._service_pass(root, index, workloads, scales, trace)
        walls.append(time.perf_counter() - start)
        merged, missing = merged_profiles(root, self.WORKLOADS, self.SCALES)
        bad = {w for w in self.WORKLOADS if merged.get(w) != self.ref[w]}
        ops = []
        for phase, result in zip(("cold", "warm"), results):
            if result is None:
                ops.extend(Op(0.0, 0, False, False) for _ in self.WORKLOADS for _ in self.SCALES)
                continue
            degraded = {d.tool for d in result.degradations}
            self.extras["sweep.degradations"] += len(result.degradations)
            done = {p["cell"].id for p in result.cells}
            for p in result.cells:
                cell = p["cell"]
                self.extras["store.corrupt"] += p["corrupt"]
                for tool, row in p["replays"].items():
                    if row["source"] == "measured":
                        self.extras[f"tools.{tool}_s"] += row["seconds"]
                ok = cell.workload not in bad and cell.id not in missing
                # a warm cell must come from the store
                ok = ok and (p["cached"] if phase == "warm" else not p["cached"])
                sampled = phase == "cold"
                ops.append(Op(p["wall_time"], p["events"], ok, cell.id in degraded, sampled))
            lost = len(self.WORKLOADS) * len(self.SCALES) - len(done)
            ops.extend(Op(0.0, 0, False, True) for _ in range(lost))
        for latency, summary in service_cells:
            ok = state == "complete" and not bad and not missing and summary.get("cached")
            ops.append(Op(latency, summary.get("events", 0), bool(ok), state != "complete", False))
            self.extras["store.corrupt"] += summary.get("corrupt", 0)
        lost = len(self.WORKLOADS) * len(self.SCALES) - len(service_cells)
        ops.extend(Op(0.0, 0, False, True) for _ in range(max(lost, 0)))
        cold_events = sum(op.events for op in ops if op.sampled)
        self.input_size = {
            "cells_per_pass": len(self.WORKLOADS) * len(self.SCALES),
            "events_per_pass": cold_events,
        }
        if cold_events:
            self.bytes_per_event = _tree_bytes(root) / cold_events
        shutil.rmtree(root, ignore_errors=True)
        self._ops += len(ops)
        return sum(walls), ops

    def _service_pass(self, root, index, workloads, scales, trace):
        """Drain the round's cells through the service over the warm
        store; returns the per-cell ``(latency, summary)`` and the job
        state."""
        from repro.service import Coordinator
        from repro.service.worker import LocalClient, run_worker

        journal = os.path.join(self.workdir, f"journal-{index}.rpjl")
        coordinator = Coordinator(root, journal, lease_timeout=60.0)
        client = _TimedClient(LocalClient(coordinator))
        state = "error"
        try:
            with _root(trace):
                # same cells, tools and partitioning as the sweep, so
                # every cell is a store hit with cached measurements
                job = coordinator.submit(
                    workloads, scales, threads=4, tools=self.TOOLS, partitions=None
                )
                run_worker(client, "bench-worker", poll_interval=0.01, stop_when_idle=True)
            state = coordinator.job_report(job, include_trends=False)["state"]
            if coordinator.degradations(job):
                state = "degraded"
        except Exception:  # a failed op, counted below
            traceback.print_exc()
        finally:
            coordinator.close()
            if os.path.exists(journal):
                os.remove(journal)
        self.extras["service.poll_wait_s"] += client.poll_wait
        return client.cells, state

    def layer_extras(self) -> dict:
        out = _per_op(self.extras, self._ops, ("sweep.degradations", "store.corrupt"))
        out["sweep.warm_sweep_s"] = statistics.median(self.warm_walls) if self.warm_walls else 0.0
        return out


class _TimedClient:
    """A ``LocalClient`` wrapper that times each cell from the lease
    call to the completion reply, and the worker's idle polling."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.cells = []  # (latency, completion summary)
        self.poll_wait = 0.0
        self._lease_start = None
        self._idle_since = None

    def lease(self, worker):
        now = time.perf_counter()
        if self._idle_since is not None:
            self.poll_wait += now - self._idle_since
            self._idle_since = None
        lease = self.inner.lease(worker)
        if lease is None:
            self._idle_since = time.perf_counter()
        else:
            self._lease_start = now
        return lease

    def heartbeat(self, lease, worker):
        return self.inner.heartbeat(lease, worker)

    def complete(self, lease, worker, summary):
        reply = self.inner.complete(lease, worker, summary)
        self.cells.append((time.perf_counter() - self._lease_start, summary or {}))
        return reply

    def fail(self, lease, worker, reason):
        return self.inner.fail(lease, worker, reason)

    def idle(self):
        return self.inner.idle()


WORKLOADS = {w.name: w for w in (Fig4Replay, Table1Tools, SweepColdWarm)}
