"""Trace strategies and state comparers shared by the test suites.

The trace shapes the exactness harness (``test_exactness.py``) replays
and the projections every suite compares profiler state through live
here, so no ``test_*`` module imports another.
"""

import random
from array import array

from hypothesis import strategies as st

from repro.core import (
    EXTERNAL_ONLY_POLICY,
    FULL_POLICY,
    RMS_POLICY,
    DrmsProfiler,
    InputPolicy,
    RmsProfiler,
)
from repro.core.events import (
    OP_FILL_READ_LOOP,
    OP_KERNEL_TO_USER,
    OP_KFILL_RUN,
    OP_READ,
    OP_READ_RUN,
    OP_WRITE,
    OP_WRITE_RUN,
    Call,
    EventBatch,
    KernelToUser,
    LockAcquire,
    LockRelease,
    Read,
    Return,
    SwitchThread,
    ThreadExit,
    ThreadStart,
    TraceEncoder,
    UserToKernel,
    Write,
    pack_loop,
)
from repro.core.tracing import with_switches

ADDRESSES = [0x10, 0x11, 0x12, 0x13, 0x200, 0x7FFF0]
THREAD_ONLY_POLICY = InputPolicy(thread_input=True, external_input=False)
ALL_POLICIES = [FULL_POLICY, RMS_POLICY, EXTERNAL_ONLY_POLICY, THREAD_ONLY_POLICY]


# -- random traces ------------------------------------------------------------


@st.composite
def random_trace(draw, max_threads=3, max_ops=120):
    """A random, well-formed, merged multi-threaded trace.

    Every step picks a thread and a random valid operation, auxiliary
    events (locks, thread lifecycle) included so every opcode of the
    batch layer is exercised; pending activations are closed at the end
    so every activation completes and produces a performance point.
    ``switchThread`` markers separate operations of different threads,
    as the merged-trace format requires.
    """
    n_threads = draw(st.integers(1, max_threads))
    n_ops = draw(st.integers(0, max_ops))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)

    depths = {t: 0 for t in range(1, n_threads + 1)}
    next_id = {t: 0 for t in range(1, n_threads + 1)}
    events = [ThreadStart(t, 0 if t == 1 else 1) for t in range(1, n_threads + 1)]
    for _ in range(n_ops):
        thread = rng.randint(1, n_threads)
        choices = ["read", "write", "k2u", "u2k", "call", "lock"]
        if depths[thread] > 0:
            choices.append("return")
            # bias toward memory traffic inside routines
            choices += ["read", "write"]
        op = rng.choice(choices)
        addr = rng.choice(ADDRESSES)
        if op == "call":
            events.append(Call(thread, f"r{next_id[thread] % 5}"))
            next_id[thread] += 1
            depths[thread] += 1
        elif op == "return":
            events.append(Return(thread))
            depths[thread] -= 1
        elif op == "read":
            events.append(Read(thread, addr))
        elif op == "write":
            events.append(Write(thread, addr))
        elif op == "k2u":
            events.append(KernelToUser(thread, addr))
        elif op == "lock":
            name = f"m{rng.randint(0, 2)}"
            events.append(LockAcquire(thread, name))
            events.append(LockRelease(thread, name))
        else:
            events.append(UserToKernel(thread, addr))
    for thread, depth in depths.items():
        for _ in range(depth):
            events.append(Return(thread))
    for thread in range(1, n_threads + 1):
        events.append(ThreadExit(thread))
    return with_switches(events)


def concat_runs(runs):
    """Concatenate complete runs into one multi-run trace; returns
    ``(events, boundaries)`` with one boundary per interior run start
    (the multi-run recording shape)."""
    events, bounds = [], []
    for raw in runs:
        if events:
            bounds.append(len(events))
            events.append(SwitchThread())
        events.extend(with_switches(raw))
    return events, bounds


@st.composite
def multi_run_trace(draw):
    n_runs = draw(st.integers(1, 4))
    runs = [
        draw(random_trace(max_threads=3, max_ops=60)) for _ in range(n_runs)
    ]
    return concat_runs(runs)


def monolithic(events, cost=3):
    """Wrap a merged trace in one outer activation on thread 1 so no
    depth-zero boundary exists anywhere inside: every cut the planner
    makes is a mid-activation per-thread carry."""
    raw = [e for e in events if not isinstance(e, SwitchThread)]
    return with_switches(
        [Call(1, "outer", cost)] + raw + [Return(1, cost * 2)]
    )


# -- syscall fills ------------------------------------------------------------

#: fill buffer bases: leaf-aligned, one short of a leaf end, mid-leaf
_FILL_BASES = [0x40, 0x7F, 0x90, 0x13C, 0x1000]


@st.composite
def syscall_trace(draw, max_threads=3, max_syscalls=5):
    """Syscall-shaped traces: each syscall fills a user buffer with a
    ``kernelToUser`` event per cell (1-130 stride-1 cells, so fills
    cross 64-cell leaves), then its routine reads part of the buffer.
    Other threads write into the buffer between and in the middle of
    fills, so fill runs are cut, and induced reads split between thread
    and kernel sources.  Each thread keeps an outer ``session``
    activation that may stay open, leaving partial drms pending."""
    n_threads = draw(st.integers(1, max_threads))
    n_syscalls = draw(st.integers(1, max_syscalls))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    events = [ThreadStart(t, 0 if t == 1 else 1) for t in range(1, n_threads + 1)]
    events += [Call(t, "session") for t in range(1, n_threads + 1)]
    for _ in range(n_syscalls):
        t = rng.randint(1, n_threads)
        base = rng.choice(_FILL_BASES)
        length = rng.randint(1, 130)
        events.append(Call(t, f"sys{rng.randint(0, 2)}"))
        if rng.random() < 0.5:  # the buffer was touched before the fill
            events.extend(Read(t, base + i) for i in range(0, length, 3))
        cut = rng.randint(0, length)
        events.extend(KernelToUser(t, base + i) for i in range(cut))
        for u in range(1, n_threads + 1):
            if u != t and rng.random() < 0.5:
                lo = rng.randrange(length)
                events.extend(
                    Write(u, base + i)
                    for i in range(lo, min(length, lo + rng.randint(1, 8)))
                )
        events.extend(KernelToUser(t, base + i) for i in range(cut, length))
        if rng.random() < 0.3:
            events.append(UserToKernel(t, base + rng.randrange(length)))
        events.append(Call(t, "parse"))
        lo = rng.randrange(length)
        events.extend(
            Read(t, base + i) for i in range(lo, rng.randint(lo + 1, length))
        )
        events.append(Return(t))
        events.append(Return(t))
    for t in range(1, n_threads + 1):
        if rng.random() < 0.5:
            events.append(Return(t))
        events.append(ThreadExit(t))
    return with_switches(events)


def closed_sessions(events):
    """A syscall-shaped run with the activations each thread left open
    returned just before its exit, so the run is complete."""
    depth = {}
    out = []
    for event in events:
        if isinstance(event, Call):
            depth[event.thread] = depth.get(event.thread, 0) + 1
        elif isinstance(event, Return):
            depth[event.thread] -= 1
        elif isinstance(event, ThreadExit):
            open_calls = depth.pop(event.thread, 0)
            out.extend(Return(event.thread) for _ in range(open_calls))
        out.append(event)
    return out


# -- stream reads (fillReadLoop) ----------------------------------------------

#: cap on ``n * k`` per stretch where the profilers replay it: tiny
#: counter limits renumber every few events, so the scalar reference is
#: quadratic in stretch length.  The fold tests lift it, so stretches
#: outgrow ``_LOOP_MAX_WEIGHT``.
_CELLS_PER_STRETCH = 256


@st.composite
def stream_read(draw, cells=_CELLS_PER_STRETCH):
    """A stream-read trace as items: dataclass events, and
    ``(thread, base, n, k)`` stretches of k fill/read pairs over one
    n-cell buffer inside a leaf.  Between stretches come foreign writes
    to the buffer, ``userToKernel`` rows and reads by other threads;
    a stretch runs inside an activation or outside any."""
    items = []
    depth = {1: 0, 2: 0, 3: 0}
    for s in range(draw(st.integers(1, 5))):
        thread = draw(st.sampled_from([1, 1, 2]))
        if draw(st.booleans()):
            items.append(Call(thread, f"r{s % 3}", s))
            depth[thread] += 1
        n = draw(st.integers(1, 64))
        k = draw(st.integers(1, 70))
        k = max(1, min(k, cells // n))
        base = draw(st.integers(0, 3)) * 64 + draw(st.integers(0, 64 - n))
        items.append((thread, base, n, k))
        other = 3 - thread
        for _ in range(draw(st.integers(0, 3))):
            cell = base + draw(st.integers(0, n - 1))
            kind = draw(st.sampled_from(["write", "u2k", "read", "ret"]))
            if kind == "write":
                items.append(Write(other, cell))
            elif kind == "u2k":
                items.append(UserToKernel(thread, cell))
            elif kind == "read":
                items.append(Read(draw(st.sampled_from([other, 3])), cell))
            elif depth[thread]:
                items.append(Return(thread, 2 * s + 1))
                depth[thread] -= 1
    for thread, d in depth.items():
        items.extend(Return(thread, 99) for _ in range(d))
    return _with_switches(items)


def _thread(item):
    return item[0] if isinstance(item, tuple) else item.thread


def _with_switches(items):
    out, last = [], None
    for item in items:
        if last is not None and _thread(item) != last:
            out.append(SwitchThread())
        last = _thread(item)
        out.append(item)
    return out


def events_of(items):
    """The recorded events the items stand for."""
    events = []
    for item in items:
        if not isinstance(item, tuple):
            events.append(item)
            continue
        thread, base, n, k = item
        for _ in range(k):
            events.extend(KernelToUser(thread, base + i) for i in range(n))
            events.extend(Read(thread, base + i) for i in range(n))
    return events


def pair_starts(events):
    """Indices of fills right after a read by the same thread: where a
    cut lands inside a stretch."""
    return [
        i
        for i in range(1, len(events))
        if isinstance(events[i], KernelToUser)
        and isinstance(events[i - 1], Read)
        and events[i - 1].thread == events[i].thread
    ]


def stretches(events):
    """``events`` as items (see :func:`stream_read`): each maximal
    stretch of k >= 2 back-to-back fill/read pairs over one n-cell
    buffer inside a leaf becomes one ``(thread, base, n, k)`` item, so
    ``events_of(stretches(events)) == events``."""
    items, i = [], 0
    while i < len(events):
        head = events[i]
        k = 0
        if isinstance(head, KernelToUser):
            t, base = head.thread, head.addr
            n = 0
            while (
                i + n < len(events)
                and events[i + n] == KernelToUser(t, base + n)
                and (base + n) >> 6 == base >> 6
            ):
                n += 1
            pair = events_of([(t, base, n, 1)])
            while events[i + 2 * n * k : i + 2 * n * (k + 1)] == pair:
                k += 1
        if k >= 2:
            items.append((t, base, n, k))
            i += 2 * n * k
        else:
            items.append(head)
            i += 1
    return items


def rows_of(items):
    """The items as rows with one loop row per stretch of k >= 2 pairs
    — whatever ``n``, so n = 1 loops, which the writer never emits,
    reach the kernels too."""
    encoder = TraceEncoder()
    for item in items:
        if not isinstance(item, tuple):
            encoder.append_event(item)
        elif item[3] >= 2:
            thread, base, n, k = item
            encoder.append(OP_FILL_READ_LOOP, thread, base, pack_loop(n, k))
        else:
            thread, base, n, _k = item
            encoder.append(OP_KFILL_RUN, thread, base, n)
            encoder.append(OP_READ_RUN, thread, base, n)
    return encoder.batch


# -- the fusion rule ----------------------------------------------------------

#: plain opcode -> the run superop it fuses into
RUN_OF = {
    OP_READ: OP_READ_RUN,
    OP_WRITE: OP_WRITE_RUN,
    OP_KERNEL_TO_USER: OP_KFILL_RUN,
}


def reference_fuse(batch: EventBatch, leaf_bits: int = 6) -> EventBatch:
    """The row-at-a-time fusion loop: one output row per run, tail
    state carried from row to row in Python ints (no wrap)."""
    ops, threads, args, costs = batch.ops, batch.threads, batch.args, batch.costs
    f_ops, f_threads = array("b"), array("q")
    f_args, f_costs = array("q"), array("q")
    tail_op = -1
    tail_thread = 0
    tail_next = 0
    tail_leaf = -1
    for i in range(len(ops)):
        op = ops[i]
        if op in RUN_OF:
            thread = threads[i]
            addr = args[i]
            run_op = RUN_OF[op]
            if (
                (tail_op == op or tail_op == run_op)
                and thread == tail_thread
                and addr == tail_next
                and (addr >> leaf_bits) == tail_leaf
            ):
                if tail_op == op:
                    f_ops[-1] = run_op
                    f_costs[-1] = 2
                    tail_op = run_op
                else:
                    f_costs[-1] += 1
                tail_next = addr + 1
                continue
            tail_op = op
            tail_thread = thread
            tail_next = addr + 1
            tail_leaf = addr >> leaf_bits
        elif op in RUN_OF.values():
            tail_op = op
            tail_thread = threads[i]
            tail_next = args[i] + costs[i]
            tail_leaf = args[i] >> leaf_bits
        else:
            tail_op = -1
        f_ops.append(op)
        f_threads.append(threads[i])
        f_args.append(args[i])
        f_costs.append(costs[i])
    return EventBatch(f_ops, f_threads, f_args, f_costs, names=batch.names)


# -- state comparers ----------------------------------------------------------


def activation_sizes(profiles):
    return [(rtn, t, size) for rtn, t, size, _cost in profiles.activations]


def profile_state(profiles):
    """Full comparable projection of a ProfileSet (points are dataclasses
    with value equality)."""
    return {key: (p.calls, p.total_input, p.points) for key, p in profiles}


def read_counts(profiler):
    return {
        r: tuple(c) for r, c in profiler.read_counters.items() if any(c)
    }


def pending(profiler):
    """The pending (partial) activations on every shadow stack."""
    return {
        t: [(e.rtn, e.ts, e.drms) for e in s.entries]
        for t, s in profiler.stacks.items()
    }


def serial_profilers(batch, counter_limit=None):
    """The serial scalar replay of ``batch`` under both profilers, at
    the post-``begin_trace()`` state a merged partition shard has."""
    drms = DrmsProfiler(
        policy=FULL_POLICY, counter_limit=counter_limit,
        keep_activations=False,
    )
    rms = RmsProfiler(keep_activations=False)
    for event in batch.iter_events():
        drms.consume(event)
        rms.consume(event)
    drms.begin_trace()
    rms.begin_trace()
    return drms, rms


def tool_state(tool):
    summary = tool.finish()
    if "profiles" in summary:
        summary = dict(summary)
        summary["profiles"] = profile_state(summary.pop("profiles"))
    return summary, tool.space_cells()
