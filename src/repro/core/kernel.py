"""Columnar consume kernel: superop-aware replay for both profilers.

This is the one fast replay path beside the paper-faithful scalar
``consume`` reference.  It consumes opcode-encoded
:class:`~repro.core.events.EventBatch` columns, plain or carrying
the three *run superops* (:data:`~repro.core.events.OP_READ_RUN`,
:data:`~repro.core.events.OP_WRITE_RUN` and
:data:`~repro.core.events.OP_KFILL_RUN`) and the *loop superop*
(:data:`~repro.core.events.OP_FILL_READ_LOOP`) produced by
:func:`~repro.core.events.fuse_batch`: a run of N same-thread stride-1
reads, writes or kernel fills inside one shadow leaf costs one
dispatch, one leaf probe and a handful of C-level ``array('q')`` slice
operations instead of N of each, and a loop of k fill-then-read pairs
over one buffer costs the same as one run.

Why fusion is safe (the Invariant 2 argument)
---------------------------------------------
Plain reads and writes never bump the global counter, so every event of
a run executes at the *same* timestamp ``count`` and the addresses
within a run are pairwise distinct (stride 1).  Hence no event of the
run can observe shadow state written by an earlier event of the same
run — each cell is touched exactly once — and the per-cell outcome is a
pure function of the pre-run shadow state:

* a **write run** stamps ``ts_t``/``wts``/``wsrc`` per cell exactly as
  N scalar writes would (same value, same cells, order irrelevant);
* a **read run** classifies each cell from its pre-run ``ts_t`` and
  ``wts`` values; partial-drms increments go to the *same* top entry
  for the whole run (the stack cannot change mid-run), and ancestor
  decrements depend only on each cell's old timestamp, so the suffix
  sums of Invariant 2 come out identical to the scalar replay.

A **kernel-fill run** (a syscall filling a user buffer, Figure 9) is
different: each ``kernelToUser`` cell bumps the global counter and then
stamps ``wts``, so cell ``i`` of a run starting at counter ``count``
gets ``count+1+i`` and source 0 (kernel).  That is an arithmetic
progression, stamped per leaf segment with one slice of a cached ramp
of counter values, after which ``count`` advances by N — exact unless
renumbering falls inside the run (``count + N`` reaches the counter
limit), in which case the kernel bumps, renumbers and stamps cell by
cell so compaction happens at the same cell as in the scalar loop.
The rms kernel, and drms with external input off, skip a fill run in
one dispatch, as they skip a single ``kernelToUser``.
``userToKernel`` events are not fused.

A **fill-read loop** (a syscall read loop: k times, the kernel fills
buffer cells ``[a, a+n)`` and the thread then reads them) replays in
one leaf segment.  Every read of the loop is a kernel-induced first
read: the fill just before it stamps ``wts`` with the ramp
``count+1 ... count+n``, and no per-thread stamp ever exceeds
``count``.  So the loop adds ``n*k`` to the top activation's drms and
to its kernel-induced counter, leaves ``wts`` holding the last pair's
ramp (source 0) and the thread's stamps at ``count + n*k``, and
advances ``count`` by ``n*k``.  The row costs O(1) Python: the ramp
is a slice of the kernel-fill ramp when that covers it, else one
numpy-built int64 range, and the read stamp is built at length ``n``.
When ``count + n*k`` reaches the counter limit the kernel replays the
loop pair by pair through the fill-run and read-run paths instead, so
renumbering happens at the exact cell.  Where fills are invisible
(rms, and drms with external input off) a loop is one read run of its
buffer: the first read classifies it and the k-1 later reads are pure
re-reads at the same timestamp.

Bulk fast paths
---------------
For a read run the kernel slices the old timestamps out of the leaf and
classifies the whole segment at once when it can.  One C-level
``old.count(old[0])`` tells a uniform segment from a mixed one, at any
length; only a mixed segment is scanned with ``min()``/``max()``.  The
drms kernel tests the segment's global write stamps the same way.  The
cases, checked in observed frequency order:

* every cell foreign-written since its last local access
  (``min(wts) > max(old)``) → N induced first-reads, split
  thread/kernel by counting non-zero write sources;
* every cell already accessed at/after the top activation's timestamp
  and not written since (``max(wts) <= min(old) >= top.ts``) → pure
  re-read, no profile effect at all;
* all cells last touched at one *uniform* older timestamp — the usual
  shape when a previous run stamped them — and not foreign-written
  since → N plain first-reads repaid to a single shared ancestor found
  with one binary search (a fresh all-zero segment is the
  ``minold == 0`` case of this path: no ancestor to repay).

Mixed segments fall back to a per-cell loop that still amortises
dispatch, thread-state switching and leaf resolution over the run.
Leaf resolution itself is inlined: with the leaf tag in hand it is
one probe of the memory's leaf index (``_leaves.get(tag)``, the same
chunk objects the three levels hold), and ``leaf_create`` is only
called to materialise a missing leaf.

Calls and returns
-----------------
Inside the per-thread block the kernel tests ``OP_CALL`` and
``OP_RETURN`` before the memory opcodes, so a call or return row does
not fail five memory-opcode tests first.  A call sets the four fields
of its ``StackEntry`` on a bare instance instead of calling the
dataclass's generated ``__init__``.  A return does not call
``ProfileSet.collect``.  It folds its point into a per-call dict,
``{(routine, thread, size): [calls, max, min, total]}``, and appends its
activation record to a local list.  One
:meth:`~repro.core.profiles.ProfileSet.fold_points` per kernel call
folds both, in first-seen order, so profiles, points and
``activations`` come out as per-return ``collect`` calls leave them.
The pending points are also folded before the kernel raises, and
before a loop row recurses into the kernel (renumbering inside the
loop), so the profile set is never behind the rows already replayed.
"""

from __future__ import annotations

from array import array
from typing import Dict

import numpy as _np

from repro.core.events import (
    OP_CALL,
    OP_FILL_READ_LOOP,
    OP_KERNEL_TO_USER,
    OP_KFILL_RUN,
    OP_LOCK_ACQUIRE,
    OP_READ,
    OP_READ_RUN,
    OP_RETURN,
    OP_SWITCH_THREAD,
    OP_THREAD_EXIT,
    OP_THREAD_START,
    OP_USER_TO_KERNEL,
    OP_WRITE,
    OP_WRITE_RUN,
    _LOOP_N_BITS,
    _LOOP_N_MASK,
    EventBatch,
    unfold_loops,
)
from repro.core.shadow import ShadowMemory
from repro.core.shadow_stack import ShadowStack, StackEntry

__all__ = ["consume_columnar_drms", "consume_columnar_rms"]


def consume_columnar_drms(prof, batch: EventBatch) -> None:
    """Columnar replay of ``batch`` into a ``DrmsProfiler``.

    State-equivalent, via ``iter_events`` expansion of superops, to
    the scalar ``consume`` loop on the unfused trace (property-tested,
    including metrics snapshots).  State is carried across calls, so a
    trace may be fed in slices.
    """
    if not len(batch.ops):
        return
    ops = batch.ops
    names = batch.names
    thread_input = prof.policy.thread_input
    external_input = prof.policy.external_input
    limit = prof.counter_limit
    limit_v = limit if limit is not None else 0x7FFFFFFFFFFFFFFF
    wts = prof.wts
    wsrc = prof.wsrc
    ts_map = prof.ts
    stacks = prof.stacks
    read_counters = prof.read_counters
    rc_get = read_counters.get
    # Returns gather their performance points here, folded into the
    # profile set once per call (see ``ProfileSet.fold_points``).
    points: Dict[tuple, list] = {}
    points_get = points.get
    new_entry = StackEntry.__new__
    keep = prof.profiles.keep_activations
    activations: list = []
    activations_append = activations.append
    cold = prof.cold_reads
    cold_append = cold.append if cold is not None else None
    carried_map = prof.carried_live
    carried_get = carried_map.get
    carried_rets_append = prof.carried_returns.append
    count = prof.count

    if OP_USER_TO_KERNEL in ops:
        # Figure 9: a kernel read on the thread's behalf is a plain read
        # when external input counts, invisible otherwise (runs never
        # carry kernel events, so the remap is single-event only).
        remap = OP_READ if external_input else OP_THREAD_START
        ops = [remap if o == OP_USER_TO_KERNEL else o for o in ops]

    leaf_bits = wts.leaf_bits
    leaf_mask = wts.leaf_mask
    leaf_size = leaf_mask + 1
    # Inlined leaf resolution: every shadow of one profiler shares the
    # leaf geometry (they are all built with the same defaults), so
    # with the leaf tag in hand the hot loop resolves a leaf with one
    # probe of the memory's leaf index, falling back to ``leaf_create``
    # only when the leaf does not exist yet.
    wts_leaf_get = wts._leaves.get
    wsrc_leaf_get = wsrc._leaves.get

    # Per-thread cached state: [ts_mem, stack_entries, ts_tag, ts_chunk,
    # top_entry, top_counters, wts_tag, wts_chunk, src_chunk].  The
    # wts/wsrc caches share one tag (their leaves are created in
    # lockstep) and are kept per thread because threads mostly touch
    # disjoint regions — a single global tag would thrash on every
    # thread switch.  Only *existing* chunks are cached: a chunk is a
    # stable object (renumbering rewrites it in place), so a reference
    # stays valid across threads, whereas caching "no chunk here" could
    # go stale the moment another thread allocates that leaf.  The
    # ``None`` tag sentinel never equals a real tag, so the first access
    # always resolves.
    states: Dict[int, list] = {}
    cur = None
    cur_state = None
    cur_mem = None
    ts_leaf_get = None
    ts_tag = None
    ts_chunk = None
    stack_entries: list = []
    top = None
    top_counters = None
    wts_tag = None
    wts_chunk = None
    src_chunk = None
    top_drms = 0
    c_plain = 0
    c_thread = 0
    c_kernel = 0
    carried = 0
    hwm = prof.stack_depth_hwm
    runs_consumed = 0

    # Bulk-stamp template: a full leaf of the current timestamp,
    # rebuilt lazily whenever the counter moves (calls, switches,
    # kernel fills, renumbering).  Stamping a segment is then one
    # C-level slice assignment.  Templates are repeats of the one-cell
    # ``cell``: setting it and repeating it costs a third of building
    # an array from a list.
    cell = array("q", [0])
    stamp_count = -1
    stamp_leaf = None
    # Write-source template, keyed by the stored value (writer+1).
    src_val = -1
    src_leaf = None
    # Kernel fills mark their cells kernel-written (source 0) and stamp
    # consecutive counter values, sliced out of a ramp of ``ramp_span``
    # values from ``ramp_base``, rebuilt (vectorised) when a fill leaves
    # it — built lazily, so fill-free batches never pay for it.
    zero_leaf = array("q", bytes(8 * leaf_size))
    ramp_span = max(1024, leaf_size)
    ramp_base = 0
    ramp = array("q")

    for op, tid, arg, cost in zip(ops, batch.threads, batch.args, batch.costs):
        if (
            op <= OP_WRITE
            or op == OP_READ_RUN
            or op == OP_WRITE_RUN
            or op == OP_FILL_READ_LOOP
        ):
            if tid != cur:
                state = states.get(tid)
                if state is None:
                    mem = ts_map.get(tid)
                    if mem is None:
                        mem = ShadowMemory()
                        ts_map[tid] = mem
                    stack = stacks.get(tid)
                    if stack is None:
                        stack = ShadowStack()
                        stacks[tid] = stack
                    entries = stack.entries
                    state = [
                        mem,
                        entries,
                        None,
                        None,
                        entries[-1] if entries else None,
                        None,
                        None,
                        None,
                        None,
                    ]
                    states[tid] = state
                if top_drms:
                    top.drms += top_drms
                    top_drms = 0
                if c_plain or c_thread or c_kernel:
                    top_counters[0] += c_plain
                    top_counters[1] += c_thread
                    top_counters[2] += c_kernel
                    c_plain = c_thread = c_kernel = 0
                if cur_state is not None:
                    cur_state[2] = ts_tag
                    cur_state[3] = ts_chunk
                    cur_state[4] = top
                    cur_state[5] = top_counters
                    cur_state[6] = wts_tag
                    cur_state[7] = wts_chunk
                    cur_state[8] = src_chunk
                cur_state = state
                cur_mem = state[0]
                ts_leaf_get = cur_mem._leaves.get
                stack_entries = state[1]
                ts_tag = state[2]
                ts_chunk = state[3]
                top = state[4]
                top_counters = state[5]
                wts_tag = state[6]
                wts_chunk = state[7]
                src_chunk = state[8]
                carried = carried_get(tid, 0)
                cur = tid
            if op == OP_CALL:
                count += 1
                if count >= limit_v:
                    prof.count = count
                    prof._renumber()
                    count = prof.count
                if top_drms:
                    top.drms += top_drms
                    top_drms = 0
                if c_plain or c_thread or c_kernel:
                    top_counters[0] += c_plain
                    top_counters[1] += c_thread
                    top_counters[2] += c_kernel
                    c_plain = c_thread = c_kernel = 0
                # StackEntry(names[arg], count, 0, cost), its fields set
                # without a call to the generated __init__ (half the
                # entry's cost)
                top = new_entry(StackEntry)
                top.rtn = names[arg]
                top.ts = count
                top.drms = 0
                top.cost = cost
                top_counters = None
                stack_entries.append(top)
                if len(stack_entries) > hwm:
                    hwm = len(stack_entries)
            elif op == OP_RETURN:
                if top is None:
                    prof.count = count
                    prof.profiles.fold_points(points, activations)
                    raise ValueError(
                        f"return with empty stack on thread {tid}"
                    )
                if c_plain or c_thread or c_kernel:
                    top_counters[0] += c_plain
                    top_counters[1] += c_thread
                    top_counters[2] += c_kernel
                    c_plain = c_thread = c_kernel = 0
                done = stack_entries.pop()
                done_drms = done.drms + top_drms
                if len(stack_entries) < carried:
                    # A carried seed popped (see DrmsProfiler.on_return):
                    # record the partial for the merge stage, suppress
                    # collect and parent inheritance.
                    carried = len(stack_entries)
                    carried_map[tid] = carried
                    carried_rets_append((tid, done_drms, cost))
                    top = stack_entries[-1] if stack_entries else None
                    top_drms = 0
                else:
                    # ProfileSet.collect, deferred: fold this point
                    # into the call's pending [calls, max, min, total].
                    c = cost - done.cost
                    key = (done.rtn, tid, done_drms)
                    point = points_get(key)
                    if point is None:
                        points[key] = [1, c, c, c]
                    else:
                        point[0] += 1
                        if c > point[1]:
                            point[1] = c
                        elif c < point[2]:
                            point[2] = c
                        point[3] += c
                    if keep:
                        activations_append((done.rtn, tid, done_drms, c))
                    if stack_entries:
                        top = stack_entries[-1]
                        top_drms = done_drms
                    else:
                        top = None
                        top_drms = 0
                top_counters = None
            elif op == OP_READ:
                tag = arg >> leaf_bits
                off = arg & leaf_mask
                if tag != ts_tag:
                    ts_chunk = ts_leaf_get(tag)
                    if ts_chunk is None:
                        ts_chunk = cur_mem.leaf_create(arg)
                    ts_tag = tag
                local = ts_chunk[off]
                if tag == wts_tag:
                    written = wts_chunk[off]
                else:
                    chunk = wts_leaf_get(tag)
                    if chunk is None:
                        written = 0
                    else:
                        written = chunk[off]
                        wts_chunk = chunk
                        src_chunk = wsrc_leaf_get(tag)
                        wts_tag = tag
                if local < written:
                    if top is not None:
                        top_drms += 1
                        if top_counters is None:
                            counters = rc_get(top.rtn)
                            if counters is None:
                                counters = [0, 0, 0]
                                read_counters[top.rtn] = counters
                            top_counters = counters
                        if src_chunk[off]:
                            c_thread += 1
                        else:
                            c_kernel += 1
                elif top is not None and local < top.ts:
                    top_drms += 1
                    if top_counters is None:
                        counters = rc_get(top.rtn)
                        if counters is None:
                            counters = [0, 0, 0]
                            read_counters[top.rtn] = counters
                        top_counters = counters
                    c_plain += 1
                    if local != 0:
                        lo, hi, ancestor = 0, len(stack_entries) - 2, -1
                        while lo <= hi:
                            mid = (lo + hi) >> 1
                            if stack_entries[mid].ts <= local:
                                ancestor = mid
                                lo = mid + 1
                            else:
                                hi = mid - 1
                        if ancestor >= 0:
                            stack_entries[ancestor].drms -= 1
                    elif cold_append is not None:
                        # local == 0 implies written == 0 (induced branch
                        # not taken): a cold read for partitioned replay.
                        cold_append(
                            (tid, arg, 1, top.rtn, carried, len(stack_entries))
                        )
                ts_chunk[off] = count
            elif op == OP_WRITE:
                tag = arg >> leaf_bits
                off = arg & leaf_mask
                if tag != ts_tag:
                    ts_chunk = ts_leaf_get(tag)
                    if ts_chunk is None:
                        ts_chunk = cur_mem.leaf_create(arg)
                    ts_tag = tag
                ts_chunk[off] = count
                if thread_input:
                    if tag != wts_tag:
                        wts_chunk = wts_leaf_get(tag)
                        if wts_chunk is None:
                            wts_chunk = wts.leaf_create(arg)
                        src_chunk = wsrc_leaf_get(tag)
                        if src_chunk is None:
                            src_chunk = wsrc.leaf_create(arg)
                        wts_tag = tag
                    wts_chunk[off] = count
                    src_chunk[off] = tid + 1
            elif op == OP_READ_RUN or (
                op == OP_FILL_READ_LOOP and not external_input
            ):
                # (A loop whose fills are invisible is one read run of
                # its buffer: see the module docstring.)
                runs_consumed += 1
                if stamp_count != count:
                    cell[0] = count
                    stamp_leaf = cell * leaf_size
                    stamp_count = count
                a = arg
                end = arg + (
                    cost if op == OP_READ_RUN else cost & _LOOP_N_MASK
                )
                while a < end:
                    tag = a >> leaf_bits
                    off = a & leaf_mask
                    m = leaf_size - off
                    if m > end - a:
                        m = end - a
                    end_off = off + m
                    if tag != ts_tag:
                        ts_chunk = ts_leaf_get(tag)
                        if ts_chunk is None:
                            ts_chunk = cur_mem.leaf_create(a)
                        ts_tag = tag
                    if tag == wts_tag:
                        wchunk = wts_chunk
                        schunk = src_chunk
                    else:
                        wchunk = wts_leaf_get(tag)
                        if wchunk is None:
                            schunk = None
                        else:
                            wts_chunk = wchunk
                            src_chunk = schunk = wsrc_leaf_get(tag)
                            wts_tag = tag
                    if top is not None:
                        top_ts = top.ts
                        old = ts_chunk[off:end_off]
                        minold = maxold = old[0]
                        if old.count(minold) != m:
                            minold = min(old)
                            maxold = max(old)
                        if wchunk is None:
                            minw = maxw = 0
                        else:
                            wslice = wchunk[off:end_off]
                            minw = maxw = wslice[0]
                            if wslice.count(minw) != m:
                                minw = min(wslice)
                                maxw = max(wslice)
                        if minw > maxold:
                            # Every cell foreign-written after its last
                            # local access: N induced first-reads, split
                            # by write source, no ancestors to repay.
                            top_drms += m
                            if top_counters is None:
                                counters = rc_get(top.rtn)
                                if counters is None:
                                    counters = [0, 0, 0]
                                    read_counters[top.rtn] = counters
                                top_counters = counters
                            nz = m - schunk[off:end_off].count(0)
                            c_thread += nz
                            c_kernel += m - nz
                        elif maxw <= minold and minold >= top_ts:
                            # Pure re-read: every cell already accessed
                            # by this activation (or a completed sibling
                            # at/after its timestamp) and not foreign-
                            # written since.
                            pass
                        elif maxw <= minold and minold == maxold:
                            # Uniform segment last touched at one older
                            # timestamp (a previous run) and not foreign-
                            # written since: N plain first-reads repaid
                            # to a single shared ancestor, found with one
                            # binary search for the whole segment.
                            top_drms += m
                            if top_counters is None:
                                counters = rc_get(top.rtn)
                                if counters is None:
                                    counters = [0, 0, 0]
                                    read_counters[top.rtn] = counters
                                top_counters = counters
                            c_plain += m
                            if minold != 0:
                                lo, hi, ancestor = 0, len(stack_entries) - 2, -1
                                while lo <= hi:
                                    mid = (lo + hi) >> 1
                                    if stack_entries[mid].ts <= minold:
                                        ancestor = mid
                                        lo = mid + 1
                                    else:
                                        hi = mid - 1
                                if ancestor >= 0:
                                    stack_entries[ancestor].drms -= m
                            elif cold_append is not None:
                                # minold == 0 forces maxw == 0: the whole
                                # segment is cold reads.
                                cold_append(
                                    (
                                        tid,
                                        a,
                                        m,
                                        top.rtn,
                                        carried,
                                        len(stack_entries),
                                    )
                                )
                        else:
                            # Mixed segment: per-cell classification with
                            # every chunk already in hand.
                            for o in range(off, end_off):
                                local = ts_chunk[o]
                                written = 0 if wchunk is None else wchunk[o]
                                if local < written:
                                    top_drms += 1
                                    if top_counters is None:
                                        counters = rc_get(top.rtn)
                                        if counters is None:
                                            counters = [0, 0, 0]
                                            read_counters[top.rtn] = counters
                                        top_counters = counters
                                    if schunk[o]:
                                        c_thread += 1
                                    else:
                                        c_kernel += 1
                                elif local < top_ts:
                                    top_drms += 1
                                    if top_counters is None:
                                        counters = rc_get(top.rtn)
                                        if counters is None:
                                            counters = [0, 0, 0]
                                            read_counters[top.rtn] = counters
                                        top_counters = counters
                                    c_plain += 1
                                    if local != 0:
                                        lo = 0
                                        hi = len(stack_entries) - 2
                                        ancestor = -1
                                        while lo <= hi:
                                            mid = (lo + hi) >> 1
                                            if stack_entries[mid].ts <= local:
                                                ancestor = mid
                                                lo = mid + 1
                                            else:
                                                hi = mid - 1
                                        if ancestor >= 0:
                                            stack_entries[ancestor].drms -= 1
                                    elif cold_append is not None:
                                        cold_append(
                                            (
                                                tid,
                                                a + o - off,
                                                1,
                                                top.rtn,
                                                carried,
                                                len(stack_entries),
                                            )
                                        )
                    ts_chunk[off:end_off] = (
                        stamp_leaf if m == leaf_size else stamp_leaf[:m]
                    )
                    a += m
            elif op == OP_WRITE_RUN:
                runs_consumed += 1
                if stamp_count != count:
                    cell[0] = count
                    stamp_leaf = cell * leaf_size
                    stamp_count = count
                if thread_input and src_val != tid + 1:
                    cell[0] = tid + 1
                    src_leaf = cell * leaf_size
                    src_val = tid + 1
                a = arg
                end = arg + cost
                while a < end:
                    tag = a >> leaf_bits
                    off = a & leaf_mask
                    m = leaf_size - off
                    if m > end - a:
                        m = end - a
                    end_off = off + m
                    if tag != ts_tag:
                        ts_chunk = ts_leaf_get(tag)
                        if ts_chunk is None:
                            ts_chunk = cur_mem.leaf_create(a)
                        ts_tag = tag
                    stamp = stamp_leaf if m == leaf_size else stamp_leaf[:m]
                    ts_chunk[off:end_off] = stamp
                    if thread_input:
                        if tag != wts_tag:
                            wts_chunk = wts_leaf_get(tag)
                            if wts_chunk is None:
                                wts_chunk = wts.leaf_create(a)
                            src_chunk = wsrc_leaf_get(tag)
                            if src_chunk is None:
                                src_chunk = wsrc.leaf_create(a)
                            wts_tag = tag
                        wts_chunk[off:end_off] = stamp
                        src_chunk[off:end_off] = (
                            src_leaf if m == leaf_size else src_leaf[:m]
                        )
                    a += m
            else:  # OP_FILL_READ_LOOP, fills visible
                runs_consumed += 1
                n = cost & _LOOP_N_MASK  # unpack_loop, inlined
                total = n * (cost >> _LOOP_N_BITS)
                if count + total < limit_v:
                    # Every read of the loop is induced by the fill just
                    # before it (the fill stamps ``count+1...``, above
                    # every per-thread stamp), so the loop is n*k kernel-
                    # induced first-reads; what it leaves behind is the
                    # last pair's fill ramp and read stamp.
                    if top is not None:
                        top_drms += total
                        if top_counters is None:
                            counters = rc_get(top.rtn)
                            if counters is None:
                                counters = [0, 0, 0]
                                read_counters[top.rtn] = counters
                            top_counters = counters
                        c_kernel += total
                    # (The buffer lies in one leaf: the writer and the
                    # decoder guarantee it.)
                    tag = arg >> leaf_bits
                    off = arg & leaf_mask
                    if tag != wts_tag:
                        wts_chunk = wts.leaf_create(arg)
                        src_chunk = wsrc.leaf_create(arg)
                        wts_tag = tag
                    last = count + total - n + 1  # the last fill's ramp
                    end_off = off + n
                    lo = last - ramp_base
                    if 0 <= lo and lo + n <= len(ramp):
                        wts_chunk[off:end_off] = ramp[lo : lo + n]
                    else:
                        wts_chunk[off:end_off] = array(
                            "q",
                            _np.arange(last, last + n, dtype=_np.int64).tobytes(),
                        )
                    src_chunk[off:end_off] = zero_leaf[:n]
                    count += total
                    if tag != ts_tag:
                        ts_chunk = ts_leaf_get(tag)
                        if ts_chunk is None:
                            ts_chunk = cur_mem.leaf_create(arg)
                        ts_tag = tag
                    # count just moved, so stamp at length n: a leaf-wide
                    # template would serve this row only
                    cell[0] = count
                    ts_chunk[off:end_off] = cell * n
                else:
                    # Renumbering lands inside the loop: settle the
                    # pending sums and replay the loop's pairs through
                    # the fill-run and read-run paths, so compaction
                    # happens at the exact cell.
                    if top_drms:
                        top.drms += top_drms
                        top_drms = 0
                    if c_plain or c_thread or c_kernel:
                        top_counters[0] += c_plain
                        top_counters[1] += c_thread
                        top_counters[2] += c_kernel
                        c_plain = c_thread = c_kernel = 0
                    prof.count = count
                    prof.profiles.fold_points(points, activations)
                    points.clear()
                    activations.clear()
                    consume_columnar_drms(
                        prof,
                        unfold_loops(
                            EventBatch(
                                array("b", [op]),
                                array("q", [tid]),
                                array("q", [arg]),
                                array("q", [cost]),
                                names,
                            )
                        ),
                    )
                    count = prof.count
        elif op == OP_SWITCH_THREAD:
            count += 1
            if count >= limit_v:
                prof.count = count
                prof._renumber()
                count = prof.count
        elif op == OP_KERNEL_TO_USER:
            if external_input:
                count += 1
                if count >= limit_v:
                    prof.count = count
                    prof._renumber()
                    count = prof.count
                tag = arg >> leaf_bits
                if tag != wts_tag:
                    wts_chunk = wts.leaf_create(arg)
                    src_chunk = wsrc.leaf_create(arg)
                    wts_tag = tag
                wts_chunk[arg & leaf_mask] = count
                src_chunk[arg & leaf_mask] = 0
        elif op == OP_KFILL_RUN:
            runs_consumed += 1
            if not external_input:
                pass  # fills are invisible without external input
            elif count + cost < limit_v:
                # No renumbering inside the run: cell i of the fill gets
                # count+1+i, exactly as per-cell bumps would stamp it.
                a = arg
                end = arg + cost
                while a < end:
                    tag = a >> leaf_bits
                    off = a & leaf_mask
                    m = leaf_size - off
                    if m > end - a:
                        m = end - a
                    if tag != wts_tag:
                        wts_chunk = wts.leaf_create(a)
                        src_chunk = wsrc.leaf_create(a)
                        wts_tag = tag
                    lo = count + 1 - ramp_base
                    if lo < 0 or lo + m > len(ramp):
                        ramp_base = count + 1
                        ramp = array(
                            "q",
                            _np.arange(
                                ramp_base, ramp_base + ramp_span, dtype=_np.int64
                            ).tobytes(),
                        )
                        lo = 0
                    wts_chunk[off : off + m] = ramp[lo : lo + m]
                    src_chunk[off : off + m] = (
                        zero_leaf if m == leaf_size else zero_leaf[:m]
                    )
                    count += m
                    a += m
            else:
                # Renumbering lands inside the run: bump, renumber and
                # stamp cell by cell, as for a lone kernelToUser, so
                # compaction happens at the exact cell.
                for a in range(arg, arg + cost):
                    count += 1
                    if count >= limit_v:
                        prof.count = count
                        prof._renumber()
                        count = prof.count
                    tag = a >> leaf_bits
                    if tag != wts_tag:
                        wts_chunk = wts.leaf_create(a)
                        src_chunk = wsrc.leaf_create(a)
                        wts_tag = tag
                    wts_chunk[a & leaf_mask] = count
                    src_chunk[a & leaf_mask] = 0
        elif not OP_LOCK_ACQUIRE <= op <= OP_THREAD_EXIT:
            prof.count = count
            prof.profiles.fold_points(points, activations)
            raise TypeError(f"unknown opcode {op}")
    if top_drms:
        top.drms += top_drms
    if c_plain or c_thread or c_kernel:
        top_counters[0] += c_plain
        top_counters[1] += c_thread
        top_counters[2] += c_kernel
    prof.profiles.fold_points(points, activations)
    prof.count = count
    prof.stack_depth_hwm = hwm
    prof.superops_consumed += runs_consumed


def consume_columnar_rms(prof, batch: EventBatch) -> None:
    """Columnar replay of ``batch`` into an ``RmsProfiler``.

    Same contract as :func:`consume_columnar_drms`, minus the global
    write-timestamp machinery: the rms baseline tracks no foreign
    writes, so a read run classifies purely against the thread's own
    access timestamps and a write run only stamps them.
    """
    if not len(batch.ops):
        return
    names = batch.names
    ts_map = prof.ts
    stacks = prof.stacks
    points: Dict[tuple, list] = {}
    points_get = points.get
    new_entry = StackEntry.__new__
    keep = prof.profiles.keep_activations
    activations: list = []
    activations_append = activations.append
    cold = prof.cold_reads
    cold_append = cold.append if cold is not None else None
    carried_map = prof.carried_live
    carried_get = carried_map.get
    carried_rets_append = prof.carried_returns.append
    count = prof.count

    leaf_bits = 0
    leaf_mask = 0
    leaf_size = 0
    states: Dict[int, list] = {}
    cur = None
    cur_state = None
    cur_mem = None
    ts_leaf_get = None
    ts_tag = None
    ts_chunk = None
    stack_entries: list = []
    top = None
    carried = 0
    top_drms = 0
    hwm = prof.stack_depth_hwm
    runs_consumed = 0
    cell = array("q", [0])
    stamp_count = -1
    stamp_leaf = None

    for op, tid, arg, cost in zip(
        batch.ops, batch.threads, batch.args, batch.costs
    ):
        if (
            op <= OP_WRITE
            or op == OP_READ_RUN
            or op == OP_WRITE_RUN
            or op == OP_FILL_READ_LOOP
        ):
            if tid != cur:
                state = states.get(tid)
                if state is None:
                    mem = ts_map.get(tid)
                    if mem is None:
                        mem = ShadowMemory()
                        ts_map[tid] = mem
                    stack = stacks.get(tid)
                    if stack is None:
                        stack = ShadowStack()
                        stacks[tid] = stack
                    entries = stack.entries
                    state = [
                        mem,
                        entries,
                        None,
                        None,
                        entries[-1] if entries else None,
                    ]
                    states[tid] = state
                if top_drms:
                    top.drms += top_drms
                    top_drms = 0
                if cur_state is not None:
                    cur_state[2] = ts_tag
                    cur_state[3] = ts_chunk
                    cur_state[4] = top
                cur_state = state
                cur_mem = state[0]
                ts_leaf_get = cur_mem._leaves.get
                stack_entries = state[1]
                ts_tag = state[2]
                ts_chunk = state[3]
                top = state[4]
                leaf_bits = cur_mem.leaf_bits
                leaf_mask = cur_mem.leaf_mask
                leaf_size = leaf_mask + 1
                carried = carried_get(tid, 0)
                cur = tid
            if op == OP_CALL:
                count += 1
                if top_drms:
                    top.drms += top_drms
                    top_drms = 0
                # StackEntry(names[arg], count, 0, cost), its fields set
                # without a call to the generated __init__ (half the
                # entry's cost)
                top = new_entry(StackEntry)
                top.rtn = names[arg]
                top.ts = count
                top.drms = 0
                top.cost = cost
                stack_entries.append(top)
                if len(stack_entries) > hwm:
                    hwm = len(stack_entries)
            elif op == OP_RETURN:
                if top is None:
                    prof.count = count
                    prof.profiles.fold_points(points, activations)
                    raise ValueError(
                        f"return with empty stack on thread {tid}"
                    )
                done = stack_entries.pop()
                done_drms = done.drms + top_drms
                if len(stack_entries) < carried:
                    # A carried seed popped (see RmsProfiler.on_return):
                    # record the partial, suppress collect/inheritance.
                    carried = len(stack_entries)
                    carried_map[tid] = carried
                    carried_rets_append((tid, done_drms, cost))
                    top = stack_entries[-1] if stack_entries else None
                    top_drms = 0
                else:
                    # ProfileSet.collect, deferred: fold this point
                    # into the call's pending [calls, max, min, total].
                    c = cost - done.cost
                    key = (done.rtn, tid, done_drms)
                    point = points_get(key)
                    if point is None:
                        points[key] = [1, c, c, c]
                    else:
                        point[0] += 1
                        if c > point[1]:
                            point[1] = c
                        elif c < point[2]:
                            point[2] = c
                        point[3] += c
                    if keep:
                        activations_append((done.rtn, tid, done_drms, c))
                    if stack_entries:
                        top = stack_entries[-1]
                        top_drms = done_drms
                    else:
                        top = None
                        top_drms = 0
            elif op == OP_READ:
                tag = arg >> leaf_bits
                off = arg & leaf_mask
                if tag != ts_tag:
                    ts_chunk = ts_leaf_get(tag)
                    if ts_chunk is None:
                        ts_chunk = cur_mem.leaf_create(arg)
                    ts_tag = tag
                local = ts_chunk[off]
                if top is not None and local < top.ts:
                    top_drms += 1
                    if local != 0:
                        lo, hi, ancestor = 0, len(stack_entries) - 2, -1
                        while lo <= hi:
                            mid = (lo + hi) >> 1
                            if stack_entries[mid].ts <= local:
                                ancestor = mid
                                lo = mid + 1
                            else:
                                hi = mid - 1
                        if ancestor >= 0:
                            stack_entries[ancestor].drms -= 1
                    elif cold_append is not None:
                        cold_append(
                            (tid, arg, 1, top.rtn, carried, len(stack_entries))
                        )
                ts_chunk[off] = count
            elif op == OP_WRITE:
                tag = arg >> leaf_bits
                if tag != ts_tag:
                    ts_chunk = ts_leaf_get(tag)
                    if ts_chunk is None:
                        ts_chunk = cur_mem.leaf_create(arg)
                    ts_tag = tag
                ts_chunk[arg & leaf_mask] = count
            elif op == OP_READ_RUN or op == OP_FILL_READ_LOOP:
                # (Fills are invisible to rms, so a loop is one read run
                # of its buffer: see the module docstring.)
                runs_consumed += 1
                if stamp_count != count:
                    cell[0] = count
                    stamp_leaf = cell * leaf_size
                    stamp_count = count
                a = arg
                end = arg + (
                    cost if op == OP_READ_RUN else cost & _LOOP_N_MASK
                )
                while a < end:
                    tag = a >> leaf_bits
                    off = a & leaf_mask
                    m = leaf_size - off
                    if m > end - a:
                        m = end - a
                    end_off = off + m
                    if tag != ts_tag:
                        ts_chunk = ts_leaf_get(tag)
                        if ts_chunk is None:
                            ts_chunk = cur_mem.leaf_create(a)
                        ts_tag = tag
                    if top is not None:
                        top_ts = top.ts
                        old = ts_chunk[off:end_off]
                        minold = maxold = old[0]
                        if old.count(minold) != m:
                            minold = min(old)
                            maxold = max(old)
                        if minold >= top_ts:
                            pass  # pure re-read
                        elif minold == maxold:
                            # Uniform segment (fresh, or last touched by
                            # one older run): N first-reads repaid to a
                            # single shared ancestor via one search.
                            top_drms += m
                            if minold != 0:
                                lo, hi, ancestor = 0, len(stack_entries) - 2, -1
                                while lo <= hi:
                                    mid = (lo + hi) >> 1
                                    if stack_entries[mid].ts <= minold:
                                        ancestor = mid
                                        lo = mid + 1
                                    else:
                                        hi = mid - 1
                                if ancestor >= 0:
                                    stack_entries[ancestor].drms -= m
                            elif cold_append is not None:
                                cold_append(
                                    (
                                        tid,
                                        a,
                                        m,
                                        top.rtn,
                                        carried,
                                        len(stack_entries),
                                    )
                                )
                        else:
                            for o in range(off, end_off):
                                local = ts_chunk[o]
                                if local < top_ts:
                                    top_drms += 1
                                    if local != 0:
                                        lo = 0
                                        hi = len(stack_entries) - 2
                                        ancestor = -1
                                        while lo <= hi:
                                            mid = (lo + hi) >> 1
                                            if stack_entries[mid].ts <= local:
                                                ancestor = mid
                                                lo = mid + 1
                                            else:
                                                hi = mid - 1
                                        if ancestor >= 0:
                                            stack_entries[ancestor].drms -= 1
                                    elif cold_append is not None:
                                        cold_append(
                                            (
                                                tid,
                                                a + o - off,
                                                1,
                                                top.rtn,
                                                carried,
                                                len(stack_entries),
                                            )
                                        )
                    ts_chunk[off:end_off] = (
                        stamp_leaf if m == leaf_size else stamp_leaf[:m]
                    )
                    a += m
            else:  # OP_WRITE_RUN
                runs_consumed += 1
                if stamp_count != count:
                    cell[0] = count
                    stamp_leaf = cell * leaf_size
                    stamp_count = count
                a = arg
                end = arg + cost
                while a < end:
                    tag = a >> leaf_bits
                    off = a & leaf_mask
                    m = leaf_size - off
                    if m > end - a:
                        m = end - a
                    if tag != ts_tag:
                        ts_chunk = ts_leaf_get(tag)
                        if ts_chunk is None:
                            ts_chunk = cur_mem.leaf_create(a)
                        ts_tag = tag
                    ts_chunk[off : off + m] = (
                        stamp_leaf if m == leaf_size else stamp_leaf[:m]
                    )
                    a += m
        elif op == OP_SWITCH_THREAD:
            count += 1
        elif op == OP_KFILL_RUN:
            runs_consumed += 1  # kernel fills are invisible to rms
        elif not OP_CALL <= op <= OP_THREAD_EXIT:
            prof.count = count
            prof.profiles.fold_points(points, activations)
            raise TypeError(f"unknown opcode {op}")
    if top_drms:
        top.drms += top_drms
    prof.profiles.fold_points(points, activations)
    prof.count = count
    prof.stack_depth_hwm = hwm
    prof.superops_consumed += runs_consumed
