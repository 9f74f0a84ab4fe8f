"""The read/write timestamping drms algorithm (Figures 8 and 9).

This is the paper's efficient algorithm.  Rather than materialising the
per-activation location sets of the naive approach, it keeps:

* a **global** counter ``count`` of thread switches and routine
  activations, used as the timestamp source;
* a **global** shadow memory ``wts`` mapping each location to the
  timestamp of the latest write *by any thread or by the kernel*;
* per thread ``t``, a shadow memory ``ts_t`` with the timestamp of the
  latest access (read or write) by ``t``, and a shadow run-time stack
  ``S_t`` holding, for each pending activation, its invocation timestamp
  and its *partial* drms.

Invariant 2 of the paper holds throughout: the true drms of the ``i``-th
pending activation equals the sum of the partial drms of stack entries
``i..top``.  All handlers are O(1) except the ancestor search in ``read``
(O(log d) binary search on the shadow stack).

Induced first-reads are recognised by the single comparison
``ts_t[l] < wts[l]``: if the location was written more recently than the
last access by this thread, the write must have come from a different
thread or from the kernel.  A parallel write-source map attributes each
induced first-read to *thread input* or *external input*, feeding the
Section 4.1 workload-characterization metrics.

Counter overflow (Section 3.2, *Counter Overflows*) is handled by
periodic global renumbering — see :mod:`repro.core.renumber` — triggered
when ``count`` crosses ``counter_limit``.

The per-thread state and its shard contract (execution boundaries,
merging, partition cuts, boundary summaries, the shared gauges) live in
:class:`repro.core.shadow_profiler.ShadowProfiler`, shared with the rms
baseline; this module adds the global memories and extends the contract
over them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.events import (
    AUXILIARY_EVENTS,
    Call,
    Event,
    EventBatch,
    KernelToUser,
    Read,
    Return,
    SwitchThread,
    UserToKernel,
    Write,
)
from repro.core.kernel import consume_columnar_drms
from repro.core.policy import FULL_POLICY, InputPolicy
from repro.core.renumber import renumber_state
from repro.core.shadow import ShadowMemory
from repro.core.shadow_profiler import ShadowProfiler

__all__ = ["KERNEL_WRITER", "DrmsProfiler"]

#: Sentinel "thread id" for kernel fills.  Internally ``wsrc`` stores
#: ``writer + 1`` per cell so the shadow memory's never-written 0 means
#: "kernel or untracked", which classifies identically.
KERNEL_WRITER = -1


class DrmsProfiler(ShadowProfiler):
    """Online drms profiler over a merged, totally-ordered event trace.

    Parameters
    ----------
    policy:
        Which dynamic input sources count.  The degenerate
        ``InputPolicy(False, False)`` computes the plain rms of [5]; in
        that mode the global write-timestamp shadow memory is never
        touched, mirroring plain aprof's lack of a global shadow memory
        (and its smaller space footprint in Table 1).
    counter_limit:
        When the global counter reaches this value a renumbering pass
        compacts all live timestamps.  ``None`` disables renumbering.
        Tiny limits (e.g. 16) are functionally valid — a property test
        relies on this — just slower.
    keep_activations:
        Whether the profile set records every raw activation tuple.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` for *live* telemetry
        (currently the renumbering counter and compaction histogram —
        rare events, so attaching a registry costs nothing per event).
        Aggregate statistics are always tracked as plain state and can
        be published to any registry afterwards via
        :meth:`publish_metrics` / :meth:`metrics_snapshot`.
    """

    def __init__(
        self,
        policy: InputPolicy = FULL_POLICY,
        counter_limit: Optional[int] = None,
        keep_activations: bool = True,
        metrics=None,
    ) -> None:
        if counter_limit is not None and counter_limit < 4:
            raise ValueError("counter_limit must be at least 4")
        super().__init__(keep_activations)
        self.policy = policy
        self.counter_limit = counter_limit
        self.wts = ShadowMemory()
        # Last-writer map, same leaf geometry as wts so the columnar
        # kernel can resolve both chunks with one tag check.  Cells hold
        # ``writer_thread + 1``; 0 means kernel-written or never written
        # (the two are deliberately indistinguishable: a never-written
        # cell can only reach the induced-read classification via a
        # kernel fill, which the dict-based encoding also defaulted to).
        self.wsrc = ShadowMemory()
        #: per-routine event counters:
        #: [plain first-reads, thread-induced, kernel-induced]
        self.read_counters: Dict[str, List[int]] = {}
        self.renumber_passes = 0
        #: live registry for rare events; ``None`` unless an *enabled*
        #: registry was passed, so hot paths never consult it
        self.metrics = metrics if metrics is not None and metrics.enabled else None
        #: summed pre-/post-renumbering counter values (compaction ratio)
        self.renumber_before_total = 0
        self.renumber_after_total = 0

    # -- state access -------------------------------------------------------

    def _counters(self, routine: str) -> List[int]:
        return self.read_counters.setdefault(routine, [0, 0, 0])

    def _bump_count(self) -> None:
        self.count += 1
        if self.counter_limit is not None and self.count >= self.counter_limit:
            self._renumber()

    def _renumber(self) -> None:
        self.count = renumber_state(
            count=self.count,
            wts=self.wts,
            thread_ts=self.ts,
            stacks=self.stacks,
            observer=self._note_renumber,
        )
        self.renumber_passes += 1

    def _note_renumber(self, live: int, old: int, new: int) -> None:
        """Renumbering observer: aggregate the compaction ratio and feed
        the live registry (renumbering is rare, so this is off the hot
        path by construction)."""
        self.renumber_before_total += old
        self.renumber_after_total += new
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("drms.renumber.passes").inc()
            metrics.histogram("drms.renumber.live").observe(live)

    # -- event handlers (Figure 8) -------------------------------------------

    def on_call(self, event: Call) -> None:
        self._bump_count()
        # Touch the thread-ts map too so lazy state allocation matches
        # the columnar kernel (which materialises both per thread) and the
        # telemetry snapshot is identical across consumption paths.
        self._thread_ts(event.thread)
        stack = self._stack(event.thread)
        stack.push(event.routine, ts=self.count, cost=event.cost)
        depth = len(stack)
        if depth > self.stack_depth_hwm:
            self.stack_depth_hwm = depth

    def on_return(self, event: Return) -> None:
        self._thread_ts(event.thread)
        stack = self._stack(event.thread)
        if not stack:
            raise ValueError(f"return with empty stack on thread {event.thread}")
        top = stack.pop()
        if len(stack) < self.carried_live.get(event.thread, 0):
            # A carried seed popped: record the partial sum and raw
            # return cost for the merge stage; no collect here (the
            # merge reassembles the activation's total across
            # partitions) and no inheritance (the parent is also a
            # seed — its share is already in its own partial).
            self.carried_live[event.thread] = len(stack)
            self.carried_returns.append((event.thread, top.drms, event.cost))
            return
        self.profiles.collect(
            top.rtn, event.thread, top.drms, event.cost - top.cost
        )
        if stack:
            stack.top.drms += top.drms

    def on_switch_thread(self) -> None:
        self._bump_count()

    def on_read(self, thread: int, addr: int) -> None:
        ts = self._thread_ts(thread)
        stack = self._stack(thread)
        local = ts[addr]
        if local < self.wts[addr]:
            # Induced first-read: the location was written since this
            # thread last touched it, necessarily by the kernel or by a
            # different thread (a write by `thread` itself would have set
            # ts_t[addr] == wts[addr]).
            if stack:
                stack.top.drms += 1
                slot = 1 if self.wsrc[addr] else 2
                self._counters(stack.top.rtn)[slot] += 1
        elif stack and local < stack.top.ts:
            # First access by the topmost activation.
            stack.top.drms += 1
            self._counters(stack.top.rtn)[0] += 1
            if local != 0:
                # The thread accessed `addr` before entering the topmost
                # routine: the deepest ancestor that already counted it
                # must give the unit back, restoring Invariant 2 for all
                # activations below it.
                ancestor = stack.deepest_ancestor_at(local)
                if ancestor is not None:
                    stack[ancestor].drms -= 1
            elif self.cold_reads is not None and self.wts[addr] == 0:
                self.cold_reads.append(
                    (
                        thread,
                        addr,
                        1,
                        stack.top.rtn,
                        self.carried_live.get(thread, 0),
                        len(stack),
                    )
                )
        ts[addr] = self.count

    def on_write(self, thread: int, addr: int) -> None:
        self._stack(thread)  # keep lazy allocation kernel-identical
        self._thread_ts(thread)[addr] = self.count
        if self.policy.thread_input:
            self.wts[addr] = self.count
            self.wsrc[addr] = thread + 1

    # -- event handlers (Figure 9: external input) -----------------------------

    def on_kernel_to_user(self, event: KernelToUser) -> None:
        if not self.policy.external_input:
            return
        self._bump_count()
        self.wts[event.addr] = self.count
        self.wsrc[event.addr] = 0

    def on_user_to_kernel(self, event: UserToKernel) -> None:
        # The kernel reads user memory on the thread's behalf (Figure 9).
        # Plain aprof does not wrap system calls, so the degenerate rms
        # policy (external_input off) must not see this access at all.
        if self.policy.external_input:
            self.on_read(event.thread, event.addr)

    # -- driving ---------------------------------------------------------------

    def consume(self, event: Event) -> None:
        if isinstance(event, Read):
            self.on_read(event.thread, event.addr)
        elif isinstance(event, Write):
            self.on_write(event.thread, event.addr)
        elif isinstance(event, Call):
            self.on_call(event)
        elif isinstance(event, Return):
            self.on_return(event)
        elif isinstance(event, SwitchThread):
            self.on_switch_thread()
        elif isinstance(event, KernelToUser):
            self.on_kernel_to_user(event)
        elif isinstance(event, UserToKernel):
            self.on_user_to_kernel(event)
        elif isinstance(event, AUXILIARY_EVENTS):
            pass  # sync/thread-lifecycle events carry no profiled accesses
        else:
            raise TypeError(f"unknown event: {event!r}")

    # -- columnar fast path ------------------------------------------------------

    def consume_columnar(self, batch: EventBatch) -> None:
        """Process an opcode-encoded batch, fused or unfused, with the
        columnar kernel — see :mod:`repro.core.kernel`.

        Semantically identical to calling :meth:`consume` on every event
        of ``batch.iter_events()`` — Hypothesis property tests pin the
        equivalence (profiles, read counters, metrics snapshots) against
        the scalar loop and the naive oracle.  State is carried across
        calls, so a trace may be fed in slices.
        """
        consume_columnar_drms(self, batch)

    # -- execution boundaries & shard merging ------------------------------------

    def begin_trace(self) -> None:
        """:meth:`ShadowProfiler.begin_trace
        <repro.core.shadow_profiler.ShadowProfiler.begin_trace>`, which
        also clears the global ``wts``/``wsrc`` memories; read counters
        and renumbering statistics are cumulative and kept."""
        super().begin_trace()
        self.wts = ShadowMemory()
        self.wsrc = ShadowMemory()

    def merge(self, other: "DrmsProfiler") -> "DrmsProfiler":
        """:meth:`ShadowProfiler.merge
        <repro.core.shadow_profiler.ShadowProfiler.merge>` for shards of
        the same policy, also summing the read counters and the
        renumbering statistics (they depend on where each shard's
        counter started, so they are bookkeeping, not part of the
        exactness claim).  Renumbering (if enabled) may compact the
        merged counter on the next bump — the shadow state is cleared,
        so that pass is trivially cheap.  The merged profiler keeps
        ``self``'s policy, counter limit and registry; returns ``self``.
        """
        if other is not self and other.policy != self.policy:
            raise ValueError(
                f"cannot merge shards with different policies: "
                f"{self.policy} vs {other.policy}"
            )
        super().merge(other)
        for routine, counts in other.read_counters.items():
            mine = self._counters(routine)
            mine[0] += counts[0]
            mine[1] += counts[1]
            mine[2] += counts[2]
        self.renumber_passes += other.renumber_passes
        self.renumber_before_total += other.renumber_before_total
        self.renumber_after_total += other.renumber_after_total
        return self

    def boundary_summary(self) -> Tuple[dict, dict]:
        """:meth:`ShadowProfiler.boundary_summary
        <repro.core.shadow_profiler.ShadowProfiler.boundary_summary>`
        with ``last_write[addr] -> (count, src)`` read from the global
        write-timestamp/source memories."""
        wsrc = self.wsrc
        last_write = {}
        for base, stamps in self.wts.leaves():
            # every write stamps wts and wsrc together, so each wts leaf
            # has its wsrc leaf under the same tag: read it whole
            cells = zip(stamps, wsrc.leaf_peek(base))
            last_write.update(
                (base | off, cell) for off, cell in enumerate(cells) if cell[0]
            )
        return last_write, super().boundary_summary()[1]

    # -- introspection -----------------------------------------------------------

    def pending_drms(self, thread: int) -> List[Tuple[str, int]]:
        """``(routine, drms-so-far)`` for each pending activation of
        ``thread``, bottom to top, derived from the partial values via
        Invariant 2 (suffix sums of the shadow stack)."""
        stack = self._stack(thread)
        out: List[Tuple[str, int]] = []
        suffix = 0
        for entry in reversed(stack.entries):
            suffix += entry.drms
            out.append((entry.rtn, suffix))
        out.reverse()
        return out

    def space_cells(self) -> int:
        """Shadowed cells across all shadow memories plus stack entries:
        the per-thread figure plus the global write memory."""
        return self.wts.space_cells() + super().space_cells()

    # -- telemetry ---------------------------------------------------------------

    _metric_prefix = "drms"

    def publish_metrics(self, registry) -> None:
        """Publish the profiler's aggregate statistics into ``registry``:
        the shared gauges plus the global shadow memory, renumbering and
        read-split series.

        The only live series — the renumbering counter — is *set* to its
        authoritative value here, which makes the published numbers
        identical whether or not the profiler ran with a live registry
        attached.
        """
        if registry is None or not registry.enabled:
            return
        super().publish_metrics(registry)
        p = self._metric_prefix
        registry.counter(p + ".renumber.passes").value = self.renumber_passes
        if self.renumber_before_total:
            registry.gauge(p + ".renumber.before_total").set(
                self.renumber_before_total
            )
            registry.gauge(p + ".renumber.after_total").set(
                self.renumber_after_total
            )
            registry.gauge(p + ".renumber.compaction_ratio").set(
                round(
                    self.renumber_after_total / self.renumber_before_total, 6
                )
            )
        global_leaves = self.wts.chunks_allocated + self.wsrc.chunks_allocated
        thread_leaves = sum(m.chunks_allocated for m in self.ts.values())
        global_bytes = self.wts.space_bytes() + self.wsrc.space_bytes()
        thread_bytes = sum(m.space_bytes() for m in self.ts.values())
        registry.gauge(p + ".shadow.leaves", {"scope": "global"}).set(
            global_leaves
        )
        registry.gauge(p + ".shadow.leaves", {"scope": "thread"}).set(
            thread_leaves
        )
        registry.gauge(p + ".shadow.peak_bytes", {"scope": "global"}).set(
            global_bytes
        )
        registry.gauge(p + ".shadow.peak_bytes", {"scope": "thread"}).set(
            thread_bytes
        )
        registry.gauge(p + ".shadow.peak_bytes", {"scope": "total"}).set(
            global_bytes + thread_bytes
        )
        totals = [0, 0, 0]
        for routine, counts in sorted(self.read_counters.items()):
            for slot, kind in enumerate(("first", "thread", "kernel")):
                totals[slot] += counts[slot]
                if counts[slot]:
                    registry.gauge(
                        p + ".reads.by_routine",
                        {"kind": kind, "routine": routine},
                    ).set(counts[slot])
        for slot, kind in enumerate(("first", "thread", "kernel")):
            registry.gauge(p + ".reads", {"kind": kind}).set(totals[slot])
