"""Per-layer self-time tracing from the benchmark's side of the API.

Nothing inside ``src/`` is instrumented.  Instead, :class:`LayerTrace`
replaces the public entry points of each pipeline module (module
attributes and class methods, wherever the program looks them up) with
thin wrappers that time every call into a named layer.

* Self time of a span is its duration minus the time its child spans
  cover on the same thread; the per-thread stack makes that exact.
* The wrappers are installed before the worker pool forks, and an
  on/off flag lives in shared memory, so pool workers time their calls
  too.  Each worker writes its totals to ``layers-<pid>.json`` when it
  exits, and the benchmark folds those in after the pool has stopped.
* With the flag off a wrapper costs one shared-memory read per call;
  the untraced end-to-end runs do not install wrappers at all.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import multiprocessing.util
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class LayerTrace:
    """Self times (seconds) and counters keyed by layer name."""

    def __init__(self, dump_dir: str) -> None:
        self.dump_dir = dump_dir
        self._flag = multiprocessing.RawValue("b", 0)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []  # one (self_s, counts) pair per thread
        self._patches = []
        self._logical = {}  # id(fused batch) -> logical event count
        # Runs in each forked pool worker after multiprocessing has
        # reset its own state (os.register_at_fork would run too early:
        # the child's bootstrap clears the finalizer registry).
        multiprocessing.util.register_after_fork(self, LayerTrace._after_fork)

    # -- switching ---------------------------------------------------------

    def enable(self) -> None:
        self._flag.value = 1

    def disable(self) -> None:
        self._flag.value = 0

    def _after_fork(self) -> None:
        # A forked pool worker starts from zero and dumps at exit.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._logical = {}
        multiprocessing.util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        self_s, counts = self.totals()
        if not self_s and not counts:
            return
        path = os.path.join(self.dump_dir, f"layers-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump({"self_s": self_s, "counts": counts}, handle)

    def fold_worker_dumps(self) -> int:
        """Add the totals pool workers wrote at exit; returns how many."""
        table = self._table()
        found = 0
        for name in sorted(os.listdir(self.dump_dir)):
            if not (name.startswith("layers-") and name.endswith(".json")):
                continue
            with open(os.path.join(self.dump_dir, name)) as handle:
                data = json.load(handle)
            for layer, value in data["self_s"].items():
                table[0][layer] += value
            for key, value in data["counts"].items():
                table[1][key] += value
            found += 1
        return found

    # -- accounting --------------------------------------------------------

    def _table(self):
        local = self._local
        table = getattr(local, "table", None)
        if table is None:
            table = local.table = (defaultdict(float), defaultdict(float))
            local.stack = []
            with self._lock:
                self._tables.append(table)
        return table

    def totals(self):
        self_s, counts = defaultdict(float), defaultdict(float)
        with self._lock:
            tables = list(self._tables)
        for own, cnt in tables:
            for key, value in list(own.items()):
                self_s[key] += value
            for key, value in list(cnt.items()):
                counts[key] += value
        return dict(self_s), dict(counts)

    def count(self, key: str, value: float = 1.0) -> None:
        self._table()[1][key] += value

    def _enter(self) -> None:
        self._table()
        self._local.stack.append([_now(), 0.0])

    def _exit(self, layer: str) -> float:
        end = _now()
        stack = self._local.stack
        start, child = stack.pop()
        duration = end - start
        self._local.table[0][layer] += duration - child
        if stack:
            stack[-1][1] += duration
        return duration

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark itself (the per-op root)."""
        if not self._flag.value:
            yield
            return
        self._enter()
        try:
            yield
        finally:
            self._exit(layer)

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, layer, post=None) -> None:
        """Time calls of ``owner.attr`` as ``layer``.

        ``layer`` is a name or a function of the call's first argument
        (used by ``Machine.run`` to tell recording from native runs);
        ``post(args, kwargs, result)`` runs after the span closes.
        """
        raw = owner.__dict__[attr]
        kind = type(raw)
        fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
        flag = self._flag

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not flag.value:
                return fn(*args, **kwargs)
            name = layer if isinstance(layer, str) else layer(args[0])
            self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if post is not None:
                post(args, kwargs, result)
            return result

        self._patch(owner, attr, kind(wrapper) if kind in (classmethod, staticmethod) else wrapper)

    def wrap_generator(self, owner, attr: str, layer: str) -> None:
        """Time each ``next()`` of a generator function as ``layer``."""
        fn = owner.__dict__[attr]
        flag = self._flag

        def timed(gen):
            while True:
                self._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    self._exit(layer)
                    return
                except BaseException:
                    self._exit(layer)
                    raise
                self._exit(layer)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return timed(gen) if flag.value else gen

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the pipeline's layers --------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point named in ``METRICS.md``."""
        import concurrent.futures as cf

        import repro.core.events as events
        import repro.core.tracefile as tracefile
        import repro.service.coordinator as coordinator
        import repro.service.journal as journal
        import repro.service.worker as worker
        import repro.sweep as sweep
        import repro.sweep.engine as engine
        import repro.sweep.store as store
        import repro.tools.partition as partition
        import repro.tools.pool as pool
        import repro.tools.runner as runner
        from repro.core.rms import RmsProfiler
        from repro.core.timestamping import DrmsProfiler
        from repro.vm.machine import Machine

        count = self.count
        logical = self._logical

        def after_run(args, kwargs, result):
            machine = args[0]
            if machine.instrument and machine.encoded_trace is not None:
                count("vm.events", len(machine.encoded_trace))

        self.wrap(
            Machine,
            "run",
            lambda m: "vm.record" if m.instrument else "vm.native",
            after_run,
        )

        def after_encode(args, kwargs, result):
            count("codec.events", len(args[0]))
            count("codec.bytes", len(result))

        self.wrap(events.EventBatch, "to_bytes", "codec.encode", after_encode)

        for module in (tracefile, partition, runner):
            self.wrap_generator(module, "iter_section_batches", "tracefile.decode")
        self.wrap(events.EventBatch, "from_bytes", "tracefile.decode")
        self.wrap(store, "scan_trace", "tracefile.decode")
        for module in (tracefile, partition):
            self.wrap(module, "plan_partitions", "tracefile.plan")

        def after_fuse(args, kwargs, result):
            runs, covered = events.count_superops(result)
            if len(logical) > 4096:
                logical.clear()
            logical[id(result)] = len(result) - runs + covered
            count("events.in", len(args[0]))
            count("events.covered", covered)

        for module in (events, partition, runner, engine):
            self.wrap(module, "fuse_batch", "events.fuse", after_fuse)

        def after_kernel(args, kwargs, result):
            batch = args[1]
            count("kernel.events", logical.get(id(batch), len(batch)))

        self.wrap(DrmsProfiler, "consume_columnar", "kernel.drms", after_kernel)
        self.wrap(RmsProfiler, "consume_columnar", "kernel.rms", after_kernel)

        def after_partitioned(args, kwargs, rep):
            count("partition.replays")
            count("partition.count", len(rep.plan.partitions))
            count("partition.imbalance", rep.plan.imbalance)
            count("partition.merge_s", rep.merge_time)
            count("partition.cold_reads_reclassified", rep.cold_reads_reclassified)
            shards = [s for row in rep.shards for s in row]
            count("partition.replay_max_s", max((s.elapsed for s in shards), default=0.0))
            count("tracefile.decode_stall_s", sum(s.decode_stall_s for s in shards))
            count("tracefile.backpressure_s", sum(s.backpressure_s for s in shards))

        self.wrap(partition, "replay_partitioned", "partition", after_partitioned)
        self.wrap(partition, "replay_partition", "partition")
        self.wrap(pool.WorkerPool, "submit", "pool.submit")
        self.wrap(pool.SharedTrace, "__init__", "pool.shm")
        self.wrap(cf.Future, "result", "pool.wait")
        self.wrap(partition, "futures_wait", "pool.wait")

        def after_get(args, kwargs, result):
            count("store.hits" if result is not None else "store.misses")

        def wrote(path):
            count("store.bytes_written", os.path.getsize(path))

        self.wrap(store.TraceStore, "get", "store.get", after_get)
        self.wrap(store.TraceStore, "put", "store.put", lambda a, k, r: wrote(r))
        self.wrap(store.TraceStore, "get_shard", "store.shard_get")
        self.wrap(
            store.TraceStore,
            "put_shard",
            "store.shard_put",
            lambda a, k, r: wrote(a[0].shard_path(a[1], a[2])),
        )
        self.wrap(store.TraceStore, "get_meta", "store.meta")
        self.wrap(
            store.TraceStore,
            "put_meta",
            "store.meta",
            lambda a, k, r: wrote(a[0].meta_path(a[1])),
        )

        for module in (engine, sweep):
            self.wrap(module, "run_sweep", "sweep")
        for module in (engine, worker):
            self.wrap(module, "run_cell", "sweep.cell")

        self.wrap(coordinator.Coordinator, "lease", "service.lease")
        self.wrap(coordinator.Coordinator, "complete", "service.complete")
        self.wrap(coordinator.Coordinator, "submit", "service.submit")

        def after_append(args, kwargs, result):
            count("service.journal_appends")
            # frame = u32 length + u32 crc32 + the canonical JSON record
            frame = json.dumps(result, sort_keys=True, separators=(",", ":"))
            count("service.journal_bytes", len(frame) + 8)

        self.wrap(journal.Journal, "append", "service.journal", after_append)
