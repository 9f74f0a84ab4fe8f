"""Standalone rms profiler — the PLDI'12 latest-access baseline ([5]).

The read memory size (rms) of an activation is the number of distinct
locations whose *first* access by the activation (or by its completed
descendants) is a read.  This module implements the original
latest-access algorithm: per-thread access timestamps plus a shadow stack
of partial values, with **no** global write-timestamp shadow memory —
which is why plain aprof is "slightly more efficient" than aprof-drms in
Table 1.

The event handlers and the columnar kernel are deliberately an
independent implementation rather than a configuration of
:class:`repro.core.timestamping.DrmsProfiler`: the test suite
cross-checks that ``DrmsProfiler(policy=RMS_POLICY)`` matches this class
on arbitrary traces, and Inequality 1 (``drms >= rms``) is checked
activation-by-activation against it.  The per-thread state and the
shard contract over it (execution boundaries, merging, partition cuts,
boundary summaries, the shared gauges) are the same state in both
algorithms, so both inherit them from
:class:`repro.core.shadow_profiler.ShadowProfiler`.

Kernel events: a ``userToKernel`` cell is read by the kernel on the
thread's behalf and counts like a plain read; a ``kernelToUser`` fill is
invisible to the rms (the baseline tracks no kernel writes), which is
what makes ``rms(streamReader) = 1`` in Figure 3.
"""

from __future__ import annotations

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
from repro.core.shadow_profiler import ShadowProfiler

__all__ = ["RmsProfiler"]


class RmsProfiler(ShadowProfiler):
    """Online rms profiler over a merged event trace."""

    _metric_prefix = "rms"

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

    def consume_columnar(self, batch: EventBatch) -> None:
        """Process an opcode-encoded batch, fused or unfused, with the
        columnar kernel — see :mod:`repro.core.kernel`.  State-equivalent
        to scalar :meth:`consume` over ``batch.iter_events()``
        (property-tested); kernel fills and syscall reads are invisible,
        as in :meth:`consume`."""
        consume_columnar_rms(self, batch)

    # -- telemetry ---------------------------------------------------------------

    def publish_metrics(self, registry) -> None:
        """Publish aggregate statistics (``rms.*`` namespace; the
        baseline has no global shadow memory, renumbering, or read
        split, so the series are the per-thread subset of the drms
        profiler's)."""
        if registry is None or not registry.enabled:
            return
        super().publish_metrics(registry)
        registry.gauge("rms.shadow.leaves", {"scope": "thread"}).set(
            sum(m.chunks_allocated for m in self.ts.values())
        )
        registry.gauge("rms.shadow.peak_bytes", {"scope": "thread"}).set(
            sum(m.space_bytes() for m in self.ts.values())
        )
