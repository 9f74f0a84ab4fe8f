"""Naive set-based drms computation (Figure 7 of the paper).

This is the *simple-minded approach* the paper describes as a warm-up: for
every pending routine activation ``r`` of every thread ``t`` we explicitly
maintain the set ``L_{r,t}`` of memory locations accessed during the
activation.  A read on ``l`` is a (possibly induced) first-read iff
``l not in L_{r,t}``; writes by a different thread (or by the kernel)
remove ``l`` from the sets of every *other* thread, which is what makes
later reads induced first-reads.

The paper dismisses this algorithm as "extremely time-consuming" and
"very space demanding" — which it is — but it is also unambiguous, and we
keep it as the reference oracle: property-based tests check that the
efficient read/write timestamping algorithm of Figure 8 computes exactly
the same drms value for every routine activation on arbitrary traces.

The class also records, per executing routine, how many of its counted
reads were *induced* first-reads and whether the inducing write came from
another thread or from the kernel; the event-level attribution matches
line 2 of Figure 8's ``read`` handler and feeds the thread-input /
external-input metrics of Section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

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
from repro.core.policy import InputPolicy
from repro.core.profiles import ProfileSet

__all__ = ["NaiveActivation", "NaiveDrmsProfiler"]


@dataclass
class NaiveActivation:
    """One pending routine activation with its explicit location set."""

    routine: str
    locations: Set[int] = field(default_factory=set)
    drms: int = 0
    cost_at_entry: int = 0


class NaiveDrmsProfiler:
    """Reference implementation of the drms metric over an event trace.

    Parameters
    ----------
    policy:
        Which dynamic input sources count (see
        :class:`repro.core.policy.InputPolicy`).  With both sources
        disabled the computed value degenerates to the rms of [5].
    """

    def __init__(self, policy: Optional[InputPolicy] = None) -> None:
        self.policy = policy if policy is not None else InputPolicy()
        self.profiles = ProfileSet()
        self._stacks: Dict[int, List[NaiveActivation]] = {}
        self._costs: Dict[int, int] = {}
        # Event-level attribution state: for each thread, the set of
        # locations it has accessed since the latest foreign write to them.
        self._accessed_since_foreign: Dict[int, Set[int]] = {}
        # Source of the latest write to each location: thread id, or the
        # sentinel -1 for the kernel; absent if never written.
        self._last_writer: Dict[int, int] = {}
        #: per-routine event counters: [plain first-reads,
        #: thread-induced first-reads, kernel-induced first-reads]
        self.read_counters: Dict[str, List[int]] = {}

    # -- helpers -----------------------------------------------------------

    def _stack(self, thread: int) -> List[NaiveActivation]:
        return self._stacks.setdefault(thread, [])

    def _accessed(self, thread: int) -> Set[int]:
        return self._accessed_since_foreign.setdefault(thread, set())

    def _counters(self, routine: str) -> List[int]:
        return self.read_counters.setdefault(routine, [0, 0, 0])

    def _classify_read(self, thread: int, addr: int) -> Optional[int]:
        """Return the counter slot for a read by ``thread`` on ``addr``:
        1 = thread-induced, 2 = kernel-induced, 0 = plain first access,
        ``None`` = not a first access at all."""
        writer = self._last_writer.get(addr)
        induced = (
            writer is not None
            and writer != thread
            and addr not in self._accessed(thread)
        )
        if induced:
            return 2 if writer == -1 else 1
        stack = self._stack(thread)
        if stack and addr not in stack[-1].locations:
            return 0
        return None

    # -- event handlers -----------------------------------------------------

    def on_call(self, event: Call) -> None:
        self._costs[event.thread] = event.cost
        self._stack(event.thread).append(
            NaiveActivation(event.routine, cost_at_entry=event.cost)
        )

    def on_return(self, event: Return) -> None:
        stack = self._stack(event.thread)
        if not stack:
            raise ValueError(f"return with empty stack on thread {event.thread}")
        act = stack.pop()
        self.profiles.collect(
            act.routine, event.thread, act.drms, event.cost - act.cost_at_entry
        )

    def on_read(self, thread: int, addr: int) -> None:
        stack = self._stack(thread)
        if stack:
            slot = self._classify_read(thread, addr)
            if slot is not None and slot != 0:
                self._counters(stack[-1].routine)[slot] += 1
            elif slot == 0:
                self._counters(stack[-1].routine)[0] += 1
        for act in stack:
            if addr not in act.locations:
                act.drms += 1
                act.locations.add(addr)
        self._accessed(thread).add(addr)

    def on_write(self, thread: int, addr: int) -> None:
        for act in self._stack(thread):
            act.locations.add(addr)
        self._accessed(thread).add(addr)
        if self.policy.thread_input:
            self._last_writer[addr] = thread
            for other, stack in self._stacks.items():
                if other == thread:
                    continue
                self._accessed(other).discard(addr)
                for act in stack:
                    act.locations.discard(addr)

    def on_kernel_to_user(self, event: KernelToUser) -> None:
        if not self.policy.external_input:
            return
        self._last_writer[event.addr] = -1
        for thread, stack in self._stacks.items():
            self._accessed(thread).discard(event.addr)
            for act in stack:
                act.locations.discard(event.addr)

    def on_user_to_kernel(self, event: UserToKernel) -> None:
        # The kernel reads user memory on the thread's behalf: treated as
        # a read implicitly performed by the thread (Figure 9).  Invisible
        # when external input is not tracked (plain aprof does not wrap
        # system calls).
        if self.policy.external_input:
            self.on_read(event.thread, event.addr)

    # -- driving -------------------------------------------------------------

    def consume(self, event: Event) -> None:
        if isinstance(event, Read):
            self.on_read(event.thread, event.addr)
        elif isinstance(event, Write):
            self.on_write(event.thread, event.addr)
        elif isinstance(event, Call):
            self.on_call(event)
        elif isinstance(event, Return):
            self.on_return(event)
        elif isinstance(event, KernelToUser):
            self.on_kernel_to_user(event)
        elif isinstance(event, UserToKernel):
            self.on_user_to_kernel(event)
        elif isinstance(event, SwitchThread):
            pass
        elif isinstance(event, AUXILIARY_EVENTS):
            pass  # sync/thread-lifecycle events carry no profiled accesses
        else:
            raise TypeError(f"unknown event: {event!r}")

    def run(self, events: Iterable[Event]) -> ProfileSet:
        for event in events:
            self.consume(event)
        return self.profiles

    def run_batch(self, batch: "EventBatch") -> ProfileSet:
        """Profile an opcode-encoded batch by decoding it event by event.

        The oracle deliberately has **no** fast path: it stays the
        unambiguous scalar reference that the columnar pipeline is
        property-tested against.
        """
        for event in batch.iter_events():
            self.consume(event)
        return self.profiles

    def pending_drms(self, thread: int) -> List[Tuple[str, int]]:
        """``(routine, current drms)`` for the pending activations of
        ``thread``, bottom to top — used by the oracle tests to compare
        mid-trace states."""
        return [(a.routine, a.drms) for a in self._stack(thread)]
