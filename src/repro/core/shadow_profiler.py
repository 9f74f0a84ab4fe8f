"""The per-thread state and shard contract both profilers share.

The drms algorithm (Figures 8–9) extends the PLDI'12 rms profiler of
[5], and both keep the same per-thread state: a global counter ``count``
of thread switches and routine activations (the timestamp source), per
thread ``t`` a shadow memory ``ts_t`` with the timestamp of ``t``'s
latest access, and a shadow run-time stack ``S_t`` of pending
activations with their invocation timestamps and *partial* values
(Invariant 2).  :class:`ShadowProfiler` owns that state and everything
that treats it as a shard rather than as a trace consumer: execution
boundaries (:meth:`~ShadowProfiler.begin_trace`), exact shard merging
(:meth:`~ShadowProfiler.merge`), the partition-cut seeding and
extraction of DESIGN.md §15, the boundary summary later partitions
reclassify cold reads against, and the aggregate gauges.

Subclasses bring the event handlers, ``consume`` and ``consume_columnar``
(kept in each class's own body), and extend the contract with whatever
state only they have — :class:`repro.core.timestamping.DrmsProfiler`
adds the global write memories ``wts``/``wsrc``, the read split and
renumbering; :class:`repro.core.rms.RmsProfiler` adds nothing.  The
base is never instantiated or stored on its own: shards hold the
subclasses, rebuilt by class name from their ``__dict__``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.events import Event, EventBatch
from repro.core.profiles import ProfileSet
from repro.core.shadow import ShadowMemory
from repro.core.shadow_stack import ShadowStack

__all__ = ["ShadowProfiler"]


class ShadowProfiler:
    """Per-thread timestamps, shadow stacks and profiles, plus the shard
    contract over them.  Subclasses set :attr:`_metric_prefix` and
    define ``consume`` and ``consume_columnar``."""

    #: namespace of the published series (``drms.*`` / ``rms.*``)
    _metric_prefix = ""

    def __init__(self, keep_activations: bool = True) -> None:
        # The counter starts at 1: timestamp 0 is reserved as the "never
        # accessed" value, so operations occurring before the first
        # routine activation or thread switch must not stamp cells with 0.
        self.count = 1
        self.ts: Dict[int, ShadowMemory] = {}
        self.stacks: Dict[int, ShadowStack] = {}
        self.profiles = ProfileSet()
        self.profiles.keep_activations = keep_activations
        #: deepest shadow stack seen across all threads (both paths
        #: maintain it, so columnar ≡ scalar includes the high-water mark)
        self.stack_depth_hwm = 0
        #: run superops consumed by the columnar kernel (observability
        #: only — deliberately *not* part of ``metrics_snapshot``, which
        #: must be identical across consumption engines)
        self.superops_consumed = 0
        #: partitioned-replay support: when a list, every *cold* counted
        #: read — one of a cell this profiler has never seen accessed
        #: (``local == 0``; for drms also never written, ``wts == 0``) —
        #: is appended as ``(thread, addr, run, routine, carried,
        #: stack_len)`` with ``run`` consecutive addresses.  Serially
        #: such reads are unambiguous, but a partition replaying a
        #: mid-trace byte range cannot see prefix accesses, so the merge
        #: stage reclassifies cold reads against the preceding
        #: partitions' boundary summaries (see ``tools/partition.py``).
        #: ``None`` (the default) keeps every hot path on its zero-cost
        #: branch.
        self.cold_reads: Optional[List[tuple]] = None
        #: per-thread partition-cut support (DESIGN.md §15): a worker
        #: whose byte range starts mid-activation seeds each thread's
        #: shadow stack with placeholder frames for the carried-in
        #: activations (:meth:`seed_partition`).  ``carried_live[t]``
        #: is how many of thread ``t``'s bottom frames are still seeds,
        #: ``carried_returns`` records ``(thread, partial, raw_cost)``
        #: when a seed pops inside this partition, and ``count_base``
        #: is where the timestamp counter started (above every seed
        #: stamp) so :meth:`merge` can rebase counts exactly.
        self.count_base = 1
        self.carried_live: Dict[int, int] = {}
        self.carried_returns: List[tuple] = []

    # -- state access -------------------------------------------------------

    def _thread_ts(self, thread: int) -> ShadowMemory:
        mem = self.ts.get(thread)
        if mem is None:
            mem = ShadowMemory()
            self.ts[thread] = mem
        return mem

    def _stack(self, thread: int) -> ShadowStack:
        stack = self.stacks.get(thread)
        if stack is None:
            stack = ShadowStack()
            self.stacks[thread] = stack
        return stack

    # -- driving ---------------------------------------------------------------

    def run(self, events: Iterable[Event]) -> ProfileSet:
        for event in events:
            self.consume(event)
        return self.profiles

    def run_batch(self, batch: EventBatch) -> ProfileSet:
        self.consume_columnar(batch)
        return self.profiles

    # -- execution boundaries & shard merging ------------------------------------

    def seed_partition(self, carry_in) -> None:
        """Seed the shadow stacks for a partition whose byte range
        starts mid-activation (DESIGN.md §15).

        ``carry_in`` is the planner's per-thread carry: ``(thread,
        ((seq, routine, call_cost), ...))`` bottom-to-top.  Each carried
        activation becomes a placeholder frame with the real routine
        name (so reads counted to it attribute correctly), cost 0 (the
        real call cost is reapplied at merge time) and timestamps
        ``1..depth`` per thread; ``count`` then starts above every seed
        stamp, so every in-partition ordering decision is exactly the
        serial one.  Must be called on a fresh profiler."""
        if self.count != 1 or self.stacks or self.ts:
            raise ValueError("seed_partition() requires a fresh profiler")
        max_depth = 0
        for thread, stack in carry_in:
            if not stack:
                continue
            entries = self._stack(thread)
            self._thread_ts(thread)
            for k, (_seq, rtn, _call_cost) in enumerate(stack):
                entries.push(rtn, ts=k + 1, cost=0)
            self.carried_live[thread] = len(stack)
            if len(stack) > max_depth:
                max_depth = len(stack)
        self.count = self.count_base = max_depth + 1

    def take_partition_state(self) -> Tuple[dict, list]:
        """Extract the partition-cut bookkeeping once a worker's byte
        range is fully consumed: per-thread live stacks as ``(partial,
        ts)`` tuples bottom-to-top (the activations still carried out
        of this partition) and the recorded seed returns.  Clears the
        stacks afterwards so the complete-trace checks of
        :meth:`merge`/:meth:`begin_trace` pass on the shard."""
        live: Dict[int, tuple] = {}
        for thread, stack in self.stacks.items():
            if len(stack):
                live[thread] = tuple((e.drms, e.ts) for e in stack.entries)
                stack.entries.clear()
        returns = list(self.carried_returns)
        self.carried_returns = []
        self.carried_live = {}
        return live, returns

    def begin_trace(self) -> None:
        """Mark an execution boundary: the next events belong to an
        *independent* trace (a separate VM execution with an unrelated
        address space).

        Clears the per-execution shadow state — every per-thread ``ts``
        and the (empty) shadow stacks, plus whatever a subclass adds —
        while keeping everything cumulative: profiles, the timestamp
        counter and the high-water mark.  Requires the previous trace
        to be complete (no live activations); timestamps of the new
        trace simply continue from ``count``, which is
        order-preserving, so profiling decisions inside the new trace
        are unaffected by the base offset.
        """
        if self.live_activations():
            raise ValueError(
                "begin_trace() with live activations: the previous trace "
                "is incomplete"
            )
        self.ts = {}
        self.stacks = {}

    def merge(self, other: "ShadowProfiler") -> "ShadowProfiler":
        """Fold another shard's results into this profiler, in place.

        Both profilers must have consumed complete traces of *separate*
        executions (the :meth:`begin_trace` semantics); the merge is
        then exact — profiles and activation records (and, for drms,
        the first/thread/kernel read split) equal those of a single
        profiler that consumed both traces with an execution boundary
        between them — and associative, so shards reduce in any
        grouping.

        Timestamps are rebased implicitly: a shard's timestamps only
        ever feed *ordering* comparisons within its own trace, so the
        merged counter just advances by the shard's span to keep
        Invariant 2's monotonicity for events consumed after the merge.
        Returns ``self``.
        """
        if other is self:
            raise ValueError("cannot merge a profiler shard with itself")
        if self.live_activations() or other.live_activations():
            raise ValueError(
                "merge() with live activations: both shards must hold "
                "complete traces"
            )
        self.profiles.merge_from(other.profiles)
        # The shard's counter advanced ``other.count - other.count_base``
        # times (``count_base`` is 1 unless the shard was seeded for a
        # mid-activation partition cut).
        self.count += other.count - other.count_base
        if self.stack_depth_hwm < other.stack_depth_hwm:
            self.stack_depth_hwm = other.stack_depth_hwm
        self.superops_consumed += other.superops_consumed
        # A merge is an execution boundary: residual shadow state from
        # either shard must not leak into whatever trace is consumed next.
        self.begin_trace()
        return self

    def boundary_summary(self) -> Tuple[dict, dict]:
        """Condense the live shadow state into the two maps a later
        partition needs to reclassify its cold reads (see
        ``tools/partition.py``): ``last_write[addr] -> (count, src)``
        and ``last_access[thread][addr] -> count`` from the per-thread
        timestamp memories (which stamp reads and writes alike).  The
        per-thread state has no global write memory, so ``last_write``
        is empty here; drms fills it.  Must be taken *before*
        :meth:`begin_trace`/:meth:`take_partition_state` clear the
        state it summarises.
        """
        last_access = {
            thread: dict(mem.items()) for thread, mem in self.ts.items()
        }
        return {}, last_access

    # -- introspection -----------------------------------------------------------

    def live_activations(self) -> int:
        """Shadow-stack entries still pending across all threads.  After a
        well-formed trace — including one where the VM fault-aborted
        threads via synthetic returns — this is 0; anything else means a
        leaked activation."""
        return sum(len(stack) for stack in self.stacks.values())

    def space_cells(self) -> int:
        """Shadowed cells across the per-thread shadow memories plus
        stack entries — the space-overhead figure used by the Table 1
        harness (drms adds its global memory)."""
        cells = 0
        for mem in self.ts.values():
            cells += mem.space_cells()
        for stack in self.stacks.values():
            cells += 4 * len(stack)
        return cells

    # -- telemetry ---------------------------------------------------------------

    def publish_metrics(self, registry) -> None:
        """Publish the gauges both profilers share under
        ``_metric_prefix``; subclasses extend this with their own series.
        Everything is derived from always-on plain state (set-style
        updates, so republishing is idempotent)."""
        if registry is None or not registry.enabled:
            return
        p = self._metric_prefix
        registry.gauge(p + ".count").set(self.count)
        registry.gauge(p + ".stack.depth_hwm").set(self.stack_depth_hwm)
        registry.gauge(p + ".stacks").set(len(self.stacks))
        registry.gauge(p + ".live_activations").set(self.live_activations())
        registry.gauge(p + ".space.cells").set(self.space_cells())

    def metrics_snapshot(self) -> Dict[str, object]:
        """The aggregate statistics as a flat plain dict (a fresh
        registry is populated and flattened).  A pure function of
        profiler state, so the scalar and columnar paths must agree on it
        — the equivalence suite compares snapshots directly."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        self.publish_metrics(registry)
        return registry.as_dict()
