"""Standalone rms profiler — the PLDI'12 latest-access baseline ([5]).

The read memory size (rms) of an activation is the number of distinct
locations whose *first* access by the activation (or by its completed
descendants) is a read.  This module implements the original
latest-access algorithm: per-thread access timestamps plus a shadow stack
of partial values, with **no** global write-timestamp shadow memory —
which is why plain aprof is "slightly more efficient" than aprof-drms in
Table 1.

It is deliberately an independent implementation rather than a
configuration of :class:`repro.core.timestamping.DrmsProfiler`: the test
suite cross-checks that ``DrmsProfiler(policy=RMS_POLICY)`` matches this
class on arbitrary traces, and Inequality 1 (``drms >= rms``) is checked
activation-by-activation against it.

Kernel events: a ``userToKernel`` cell is read by the kernel on the
thread's behalf and counts like a plain read; a ``kernelToUser`` fill is
invisible to the rms (the baseline tracks no kernel writes), which is
what makes ``rms(streamReader) = 1`` in Figure 3.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

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
from repro.core.kernel import consume_columnar_rms
from repro.core.profiles import ProfileSet
from repro.core.shadow import ShadowMemory
from repro.core.shadow_stack import ShadowStack

__all__ = ["RmsProfiler"]


class RmsProfiler:
    """Online rms profiler over a merged event trace."""

    def __init__(self, keep_activations: bool = True) -> None:
        # Timestamp 0 is reserved as "never accessed"; start at 1.
        self.count = 1
        self.ts: Dict[int, ShadowMemory] = {}
        self.stacks: Dict[int, ShadowStack] = {}
        self.profiles = ProfileSet()
        self.profiles.keep_activations = keep_activations
        #: deepest shadow stack seen across all threads (maintained by
        #: both consumption paths, like the drms profiler's)
        self.stack_depth_hwm = 0
        #: run superops consumed by the columnar kernel (observability
        #: only — not part of ``metrics_snapshot``, which must be
        #: identical across consumption engines)
        self.superops_consumed = 0
        #: partitioned-replay support, mirroring the drms profiler
        #: (DESIGN.md §15): when ``cold_reads`` is a list, every counted
        #: read of a never-seen cell (``local == 0``) is logged as
        #: ``(thread, addr, run, routine, carried, stack_len)`` so the
        #: merge stage can re-run the latest-access decision against the
        #: preceding partitions' boundary summaries.  ``None`` (the
        #: default) keeps the hot paths on their zero-cost branch.
        self.cold_reads = None
        self.count_base = 1
        self.carried_live: Dict[int, int] = {}
        self.carried_returns: List[tuple] = []

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

    def on_call(self, event: Call) -> None:
        self.count += 1
        # Touch the thread-ts map too: the columnar kernel materialises
        # both per thread, and the telemetry snapshot must not depend on
        # which consumption path ran.
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
            # A carried seed popped: record the partial for the merge
            # stage, no collect and no parent inheritance (the parent
            # is also a seed).
            self.carried_live[event.thread] = len(stack)
            self.carried_returns.append((event.thread, top.drms, event.cost))
            return
        self.profiles.collect(
            top.rtn, event.thread, top.drms, event.cost - top.cost
        )
        if stack:
            stack.top.drms += top.drms

    def on_read(self, thread: int, addr: int) -> None:
        ts = self._thread_ts(thread)
        stack = self._stack(thread)
        local = ts[addr]
        if stack and local < stack.top.ts:
            stack.top.drms += 1
            if local != 0:
                ancestor = stack.deepest_ancestor_at(local)
                if ancestor is not None:
                    stack[ancestor].drms -= 1
            elif self.cold_reads is not None:
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

    def consume(self, event: Event) -> None:
        if isinstance(event, Read):
            self.on_read(event.thread, event.addr)
        elif isinstance(event, Write):
            self.on_write(event.thread, event.addr)
        elif isinstance(event, Call):
            self.on_call(event)
        elif isinstance(event, Return):
            self.on_return(event)
        elif isinstance(event, UserToKernel):
            pass  # plain aprof does not wrap system calls
        elif isinstance(event, SwitchThread):
            self.count += 1
        elif isinstance(event, KernelToUser):
            pass  # kernel fills are invisible to the rms baseline
        elif isinstance(event, AUXILIARY_EVENTS):
            pass  # sync/thread-lifecycle events carry no profiled accesses
        else:
            raise TypeError(f"unknown event: {event!r}")

    def run(self, events: Iterable[Event]) -> ProfileSet:
        for event in events:
            self.consume(event)
        return self.profiles

    def consume_columnar(self, batch: EventBatch) -> None:
        """Process an opcode-encoded batch, fused or unfused, with the
        columnar kernel — see :mod:`repro.core.kernel`.  State-equivalent
        to scalar :meth:`consume` over ``batch.iter_events()``
        (property-tested); kernel fills and syscall reads are invisible,
        as in :meth:`consume`."""
        consume_columnar_rms(self, batch)

    def run_batch(self, batch: EventBatch) -> ProfileSet:
        self.consume_columnar(batch)
        return self.profiles

    # -- execution boundaries & shard merging ------------------------------------

    def seed_partition(self, carry_in) -> None:
        """Seed the shadow stacks for a mid-activation partition cut —
        same contract as :meth:`DrmsProfiler.seed_partition
        <repro.core.timestamping.DrmsProfiler.seed_partition>`."""
        if self.count != 1 or self.stacks or self.ts:
            raise ValueError("seed_partition() requires a fresh profiler")
        max_depth = 0
        for thread, stack in carry_in:
            if not stack:
                continue
            shadow = self._stack(thread)
            self._thread_ts(thread)
            for k, (_seq, rtn, _call_cost) in enumerate(stack):
                shadow.push(rtn, ts=k + 1, cost=0)
            self.carried_live[thread] = len(stack)
            if len(stack) > max_depth:
                max_depth = len(stack)
        self.count = self.count_base = max_depth + 1

    def take_partition_state(self) -> Tuple[dict, list]:
        """Extract carried-out live stacks as ``(partial, ts)`` per
        thread plus recorded seed returns, then clear the stacks — same
        contract as :meth:`DrmsProfiler.take_partition_state
        <repro.core.timestamping.DrmsProfiler.take_partition_state>`."""
        live: Dict[int, tuple] = {}
        for thread, stack in self.stacks.items():
            if len(stack):
                live[thread] = tuple((e.drms, e.ts) for e in stack.entries)
                stack.entries.clear()
        returns = list(self.carried_returns)
        self.carried_returns = []
        self.carried_live = {}
        return live, returns

    def boundary_summary(self) -> Tuple[dict, dict]:
        """Condense live shadow state for later partitions' cold-read
        fix-up: the rms baseline has no global write memory, so only
        ``last_access[thread][addr] -> count`` is meaningful (the first
        element is an always-empty ``last_write`` to keep the shape of
        :meth:`DrmsProfiler.boundary_summary
        <repro.core.timestamping.DrmsProfiler.boundary_summary>`).
        Take it *before* :meth:`begin_trace`/:meth:`take_partition_state`
        clear the state it summarises."""
        last_access = {
            thread: dict(mem.items()) for thread, mem in self.ts.items()
        }
        return {}, last_access

    def begin_trace(self) -> None:
        """Mark an execution boundary before feeding an independent
        trace: per-thread access timestamps and (empty) shadow stacks
        are cleared, cumulative state (profiles, counter, high-water
        mark) is kept.  Same contract as
        :meth:`DrmsProfiler.begin_trace
        <repro.core.timestamping.DrmsProfiler.begin_trace>`, minus the
        global shadow memories the baseline does not have."""
        if self.live_activations():
            raise ValueError(
                "begin_trace() with live activations: the previous trace "
                "is incomplete"
            )
        self.ts = {}
        self.stacks = {}

    def merge(self, other: "RmsProfiler") -> "RmsProfiler":
        """Fold another shard's results into this profiler, in place.

        Exact and associative under the :meth:`begin_trace` semantics —
        see :meth:`DrmsProfiler.merge
        <repro.core.timestamping.DrmsProfiler.merge>` for the shared
        contract.  Returns ``self``.
        """
        if other is self:
            raise ValueError("cannot merge a profiler shard with itself")
        if self.live_activations() or other.live_activations():
            raise ValueError(
                "merge() with live activations: both shards must hold "
                "complete traces"
            )
        self.profiles.merge_from(other.profiles)
        self.count += other.count - other.count_base
        if self.stack_depth_hwm < other.stack_depth_hwm:
            self.stack_depth_hwm = other.stack_depth_hwm
        self.superops_consumed += other.superops_consumed
        self.begin_trace()
        return self

    def live_activations(self) -> int:
        """Pending shadow-stack entries across threads (0 after a
        well-formed trace, fault-unwound or not)."""
        return sum(len(stack) for stack in self.stacks.values())

    def space_cells(self) -> int:
        cells = 0
        for mem in self.ts.values():
            cells += mem.space_cells()
        for stack in self.stacks.values():
            cells += 4 * len(stack)
        return cells

    # -- telemetry ---------------------------------------------------------------

    def publish_metrics(self, registry) -> None:
        """Publish aggregate statistics (``rms.*`` namespace; the
        baseline has no global shadow memory, renumbering, or read
        split, so the series are the per-thread subset of the drms
        profiler's)."""
        if registry is None or not registry.enabled:
            return
        registry.gauge("rms.count").set(self.count)
        registry.gauge("rms.stack.depth_hwm").set(self.stack_depth_hwm)
        registry.gauge("rms.stacks").set(len(self.stacks))
        registry.gauge("rms.live_activations").set(self.live_activations())
        registry.gauge("rms.space.cells").set(self.space_cells())
        registry.gauge("rms.shadow.leaves", {"scope": "thread"}).set(
            sum(m.chunks_allocated for m in self.ts.values())
        )
        registry.gauge("rms.shadow.peak_bytes", {"scope": "thread"}).set(
            sum(m.space_bytes() for m in self.ts.values())
        )

    def metrics_snapshot(self) -> Dict[str, object]:
        """Flat plain-dict form of :meth:`publish_metrics` — a pure
        function of profiler state, compared directly by the scalar ≡
        columnar equivalence suite."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        self.publish_metrics(registry)
        return registry.as_dict()
