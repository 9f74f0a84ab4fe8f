"""Partitioned replay: one trace, many workers, an exact merged profile.

After PR 5 the slowest cell of a sweep is a *single serial replay* of
one large trace.  This module turns that replay into an embarrassingly
parallel job:

1. :func:`repro.core.tracefile.plan_partitions` cuts the v2 trace at
   section boundaries — depth-zero ones for free, mid-activation ones
   with per-thread carry-in summaries — into byte ranges with balanced
   event counts;
2. each partition replays its range through the normal engines
   (columnar by default; each section is decoded and fused once, inline,
   and fed to every profiler kind) in a supervised process pool — a
   worker that times out or dies is retried with backoff and, failing
   that, that partition alone falls back to an inline replay in the
   parent;
3. the per-partition profiler shards **stream back** and fold through
   the exact associative ``merge()`` as they arrive (buffered to index
   order), so the final merge overlaps the slowest worker instead of
   waiting behind a barrier.

Exactness (DESIGN.md §12 for depth-zero cuts, §15 for per-thread
cuts): the state a later partition cannot see is the *prefix* — global
write timestamps, per-thread access timestamps, and (for a
mid-activation cut) the live activations themselves.  Carried
activations are re-seeded as placeholder frames whose partial sums,
seed returns and read attributions ship back in the shard; the merge
reassembles their exact totals from the per-shard partials
(:class:`_CarryState`).  Read classifications are invariant under
prefix-blindness except for the **cold read** (a counted read of a
cell the partition never saw written or accessed), which the kernels
log when ``cold_reads`` is armed; the merge re-runs the serial
decision against the preceding partitions' boundary summaries as a
cross-thread ``(partition, thread, local_count)`` timestamp fix-up —
moving a unit between read-kind slots (drms), refunding the deepest
carried ancestor, or removing a unit the serial replay never counted.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.events import fuse_batch
from repro.core.policy import FULL_POLICY
from repro.core.rms import RmsProfiler
from repro.core.timestamping import DrmsProfiler
from repro.core.tracefile import (
    PartitionPlan,
    TracePartition,
    iter_section_batches,
    plan_partitions,
)
from repro.obs.distributed import (
    FlightRecorder,
    SpanSidecar,
    TraceContext,
    flight_dump,
    sidecar_path,
)
from repro.tools.pool import (
    SharedTrace,
    active_segments,
    attached_view,
    get_pool,
    in_pool_worker,
    pool_stats,
    shm_available,
)
from repro.tools.runner import (
    _MAX_BACKOFF,
    DEFAULT_ENGINE,
    _jitter_rng,
    Degradation,
    check_engine,
)

__all__ = [
    "PartitionShard",
    "PartitionedReplay",
    "replay_partition",
    "replay_partitioned",
    "merge_partition_shards",
    "resolve_partitions",
]

#: test hook: when this environment variable holds a partition index,
#: the pool worker assigned that partition exits hard (``os._exit``),
#: simulating an OOM-killed or crashed worker.  Guarded on actually
#: being inside a pool worker so the parent's inline fallback survives.
_KILL_ENV = "REPRO_PARTITION_TEST_KILL"


def resolve_partitions(partitions: Optional[int]) -> Optional[int]:
    """Normalise a ``--partitions`` value: ``None`` stays off, ``0``
    means auto (one partition per CPU), anything else passes through."""
    if partitions is None:
        return None
    if partitions < 0:
        raise ValueError("partitions must be >= 0")
    if partitions == 0:
        return os.cpu_count() or 1
    return partitions


def _make_profiler(kind: str, counter_limit: Optional[int] = None):
    if kind == "drms":
        return DrmsProfiler(
            policy=FULL_POLICY,
            counter_limit=counter_limit,
            keep_activations=False,
        )
    if kind == "rms":
        return RmsProfiler(keep_activations=False)
    raise ValueError(f"unknown partition kind {kind!r}")


@dataclass
class PartitionShard:
    """One profiler's state after replaying one partition.

    The profiler inside is post-``begin_trace()`` (shadow-free, hence
    cheap to pickle back from a worker); the shadow state it would have
    carried across the cut is condensed into ``last_write`` /
    ``last_access`` (drms only — the rms baseline needs no fix-up), and
    its partition-local cold reads are parked in ``cold_reads`` for
    :func:`merge_partition_shards`.
    """

    kind: str
    index: int
    partitions: int
    events: int
    elapsed: float
    space_cells: int
    profiler: object
    cold_reads: list = field(default_factory=list)
    last_write: dict = field(default_factory=dict)
    last_access: dict = field(default_factory=dict)
    decode_stall_s: float = 0.0
    backpressure_s: float = 0.0
    queue_depth_hwm: int = 0
    #: planner carry the partition was seeded with: ``((thread, ((seq,
    #: routine, call_cost), ...)), ...)`` bottom-to-top per thread.
    carry_in: tuple = ()
    #: resolved carry out of this partition: ``((thread, ((seq,
    #: routine, call_cost, partial, push_ts), ...)), ...)`` — the
    #: planner identities zipped with the worker's live-stack partial
    #: sums and push timestamps.  Shards are self-describing: the merge
    #: needs no plan object, so cached shard sets stay mergeable.
    carry_out: tuple = ()
    #: ``(thread, partial, raw_return_cost)`` per carried activation
    #: that returned inside this partition, in pop order.
    carried_returns: tuple = ()


def replay_partition(
    payload: bytes,
    part: TracePartition,
    kinds: Sequence[str],
    total: int,
    engine: str = DEFAULT_ENGINE,
    counter_limit: Optional[int] = None,
    carry_aware: bool = False,
) -> List[PartitionShard]:
    """Replay one partition's byte range under each profiler kind.

    One pass over the range serves every kind: each section is decoded
    once, fused once into run superops (columnar engine) and handed
    inline to every kind's profiler before the next section is pulled.
    ``scalar`` replays the same sections through the reference
    ``consume`` loop for the equivalence suite.  Each shard reports the
    pass's wall time as ``elapsed`` and its decode + fuse share as
    ``decode_stall_s``.

    A partition with a nonempty ``carry_in`` starts mid-activation:
    the profilers are seeded with placeholder frames for the carried
    activations, and the shard ships back their partial sums, seed
    returns and (for rms too, which otherwise needs no fix-up) the
    cold-read log, so :class:`_CarryState` can reassemble exact totals.
    ``carry_aware`` marks a partition that is itself cut at depth zero
    but belongs to a plan with mid-activation cuts elsewhere — its
    boundary summaries must still ship (for both kinds) because a later
    partition's fix-up may look up prefix accesses from it.
    """
    check_engine(engine)
    carried = bool(carry_aware or part.carry_in or part.carry_out_ids)
    profs = []
    for kind in kinds:
        prof = _make_profiler(kind, counter_limit)
        if kind == "drms" or part.carry_in:
            prof.cold_reads = []
        if part.carry_in:
            prof.seed_partition(part.carry_in)
        profs.append(prof)
    now = time.perf_counter
    decode_s = 0.0
    start = now()
    sections = iter_section_batches(payload, part.start, part.end)
    while True:
        mark = now()
        section = next(sections, None)
        if section is None:
            break
        if engine == "scalar":
            section = list(section.iter_events())
        else:
            section = fuse_batch(section)
        decode_s += now() - mark
        for prof in profs:
            if engine == "scalar":
                for event in section:
                    prof.consume(event)
            else:
                prof.consume_columnar(section)
    elapsed = now() - start
    shards: List[PartitionShard] = []
    for kind, prof in zip(kinds, profs):
        space = prof.space_cells()
        if kind == "drms" or carried:
            last_write, last_access = prof.boundary_summary()
            cold = prof.cold_reads if prof.cold_reads is not None else []
            prof.cold_reads = None
        else:
            last_write, last_access, cold = {}, {}, []
        if carried:
            live, rets = prof.take_partition_state()
            carry_out = _resolve_carry_out(part, live)
        else:
            rets, carry_out = [], ()
        prof.begin_trace()  # shard contract: shadow-free, mergeable
        shards.append(
            PartitionShard(
                kind=kind,
                index=part.index,
                partitions=total,
                events=part.events,
                elapsed=elapsed,
                space_cells=space,
                profiler=prof,
                cold_reads=cold,
                last_write=last_write,
                last_access=last_access,
                decode_stall_s=decode_s,
                carry_in=tuple(part.carry_in),
                carry_out=carry_out,
                carried_returns=tuple(rets),
            )
        )
    return shards


def _resolve_carry_out(part: TracePartition, live: Dict[int, tuple]) -> tuple:
    """Zip the planner's carry-out identities with the worker's actual
    end-of-partition live stacks (``(partial, push_ts)`` bottom-to-top
    per thread).  Positions align because both describe the same serial
    stack at the same boundary; any mismatch means the plan and the
    trace disagree, which is unrecoverable."""
    out = []
    for thread, ids in part.carry_out_ids:
        entries = live.pop(thread, ())
        if len(entries) != len(ids):
            raise ValueError(
                f"partition {part.index}: thread {thread} carried out "
                f"{len(entries)} live activations, plan expected {len(ids)}"
            )
        out.append(
            (
                thread,
                tuple(
                    (seq, rtn, call_cost, partial, ts)
                    for (seq, rtn, call_cost), (partial, ts) in zip(
                        ids, entries
                    )
                ),
            )
        )
    if live:
        extra = sorted(live)
        raise ValueError(
            f"partition {part.index}: threads {extra} ended with live "
            f"activations the plan did not carry out"
        )
    return tuple(out)


def _subrange_payload(
    payload: bytes, part: TracePartition, body_start: int
) -> Tuple[bytes, TracePartition]:
    """Slice one partition's share of the trace into a standalone
    payload: the v2 header (magic + intern table + declared count)
    followed by just this partition's sections, with the partition
    descriptor rebased onto the new body.

    The pool ships each worker ``header + its sections`` instead of
    pickling the whole trace per task — per-worker transfer stays
    ``O(trace/partitions)``, so submission cost no longer scales with
    ``trace x workers``.  Ranged iteration does not enforce the
    declared-event total, so the unchanged header count is harmless.
    """
    sub = payload[:body_start] + payload[part.start : part.end]
    rebased = TracePartition(
        part.index,
        body_start,
        body_start + (part.end - part.start),
        part.sections,
        part.events,
        carry_in=part.carry_in,
        carry_out_ids=part.carry_out_ids,
    )
    return sub, rebased


def _open_partition_trace(
    trace: Optional[dict], process: str
) -> Tuple[object, Optional[SpanSidecar]]:
    """Build a (tracer, sidecar) pair for one partition process.

    Returns ``(NULL_TRACER, None)`` unless the trace context names a
    spans directory; otherwise the sidecar carries the job's trace
    context so the merger picks up every event in this file.
    """
    from repro.obs import NULL_TRACER, SpanTracer

    ctx = TraceContext.from_dict(trace)
    if ctx is None or not ctx.spans_dir:
        return NULL_TRACER, None
    tracer = SpanTracer(process_name=process)
    name = f"{ctx.job}__{process}" if ctx.job else process
    sidecar = SpanSidecar(
        sidecar_path(ctx.spans_dir, name),
        process=process,
        trace=ctx,
        anchor_epoch_us=tracer.anchor_epoch_us,
        worker=ctx.worker,
    )
    tracer.sink = sidecar
    FlightRecorder().attach(tracer)
    return tracer, sidecar


def _emit_shard_counters(tracer, shards: List[PartitionShard]) -> None:
    """Counter-track samples (Perfetto "C" events) of each shard's
    inline decode + fuse time (the stall and queue-depth tracks keep
    their names; with no reader thread they read 0)."""
    if not getattr(tracer, "enabled", False):
        return
    for shard in shards:
        track = f"p{shard.index}"
        tracer.counter(
            "partition.decode_stall_us",
            int(shard.decode_stall_s * 1e6),
            track=track,
        )
        tracer.counter(
            "partition.backpressure_us",
            int(shard.backpressure_s * 1e6),
            track=track,
        )
        tracer.counter(
            "partition.queue_depth_hwm", shard.queue_depth_hwm, track=track
        )


def _check_test_kill(kill: Optional[str], index: int) -> None:
    """Honour the crash-injection hook inside a pool worker.

    The kill spec is captured parent-side at submit time and shipped as
    a task argument — a persistent warm pool may have forked *before*
    the test set the environment variable, so workers cannot rely on
    inheriting it.  The direct environment read stays as a fallback for
    code paths that call the worker entry point themselves.
    """
    spec = kill if kill is not None else os.environ.get(_KILL_ENV)
    if spec is not None and multiprocessing.parent_process() is not None:
        try:
            target = int(spec)
        except ValueError:
            target = -1
        if target == index:
            os._exit(13)


def _partition_worker(
    payload,
    part: TracePartition,
    kinds: Sequence[str],
    total: int,
    engine: str,
    counter_limit: Optional[int],
    trace: Optional[dict] = None,
    carry_aware: bool = False,
    kill: Optional[str] = None,
) -> List[PartitionShard]:
    _check_test_kill(kill, part.index)
    worker_label = ""
    ctx = TraceContext.from_dict(trace)
    if ctx is not None:
        worker_label = ctx.worker or "pool"
    tracer, sidecar = _open_partition_trace(
        trace, f"{worker_label or 'pool'}.part{part.index}"
    )
    try:
        with tracer.span(
            "partition-replay",
            track=f"p{part.index}",
            partition=part.index,
            events=part.events,
            engine=engine,
            mode="pool",
        ):
            shards = replay_partition(
                payload,
                part,
                kinds,
                total,
                engine=engine,
                counter_limit=counter_limit,
                carry_aware=carry_aware,
            )
        _emit_shard_counters(tracer, shards)
        return shards
    finally:
        if sidecar is not None:
            sidecar.close()


def _partition_worker_shm(
    segment: str,
    size: int,
    part: TracePartition,
    kinds: Sequence[str],
    total: int,
    engine: str,
    counter_limit: Optional[int],
    trace: Optional[dict] = None,
    carry_aware: bool = False,
    kill: Optional[str] = None,
) -> List[PartitionShard]:
    """Pool entry point for shared-memory residency: attach to the
    trace segment (cached per worker across tasks) and decode this
    partition's byte range through a zero-copy memoryview — the task
    pickles only offsets, never payload bytes."""
    _check_test_kill(kill, part.index)
    view = attached_view(segment, size)
    try:
        return _partition_worker(
            view,
            part,
            kinds,
            total,
            engine,
            counter_limit,
            trace,
            carry_aware,
            kill,
        )
    finally:
        view.release()


class _CarryState:
    """Strict-prefix fold of one profiler kind's shards: cold-read
    fix-ups, carried-activation ledgers, and the final reassembly.

    The state is fed shards **in index order** (:meth:`fold_shard`) —
    each shard's cold reads are corrected against the prefix summaries
    *before* its own summaries fold in, so every decision replays the
    serial one.  Timestamps from different partitions compare as
    ``(partition, thread, local_count)`` tuples — valid because serial
    counts are monotone across partitions and each partition preserves
    its own event order (renumbering is order-preserving within a
    partition).

    Cold-read fix-ups, in serial-priority order (DESIGN.md §15; the
    priority mirrors ``DrmsProfiler.on_read``):

    1. **induced** (drms only): a prefix write postdates the thread's
       last prefix access — the unit moves from the plain slot to the
       kernel/thread slot of the same routine; drms value unchanged,
       and the serial induced branch never refunds, so this case is
       exclusive;
    2. **removal**: the reading activation is a carried seed the
       thread had already accessed the cell under (prefix access at or
       after the seed's push) — serially the read was never counted:
       the unit leaves both the seed's ledger and (drms) the plain
       slot;
    3. **seed refund**: the read stands, but the serial replay refunds
       the deepest live ancestor whose push precedes the prefix access
       — all such ancestors are carried seeds (in-partition frames
       postdate any prefix stamp), so the refund lands in a ledger.

    Carried-activation reassembly (:meth:`assemble`): each carried
    activation's exact drms is the sum of its per-partition partials
    (carry-out entries plus its seed return) plus ledger corrections
    plus its carried children's totals — folded top-of-stack downward,
    exactly the suppressed serial pop-inheritance.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.drms = kind == "drms"
        self.next_index = 0
        #: addr -> (partition, stamp, src) from drms write memories
        self.last_write: Dict[int, Tuple[int, int, int]] = {}
        #: (thread, addr) -> (partition, stamp)
        self.last_access: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: (thread, seq) -> (partition, stamp) of the real push
        self.push_ts: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: (thread, seq) -> summed partials + fix-up corrections
        self.ledger: Dict[Tuple[int, int], int] = {}
        #: (thread, seq) -> raw return cost (stamped at the seed pop)
        self.ret_cost: Dict[Tuple[int, int], int] = {}
        #: (thread, seq) -> (routine, call_cost, stack_position)
        self.meta: Dict[Tuple[int, int], Tuple[str, int, int]] = {}
        #: (thread, seq) -> parent (thread, seq) or None at position 0
        self.parent: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
        self.fixups = 0

    def fold_shard(self, shard: PartitionShard) -> None:
        if shard.index != self.next_index:
            raise ValueError(
                f"carry fold for {self.kind!r} expected partition "
                f"{self.next_index}, got {shard.index}"
            )
        self.next_index += 1
        self._fix_cold_reads(shard)
        self._fold_returns(shard)
        self._fold_carry_out(shard)
        p = shard.index
        for addr, (stamp, src) in shard.last_write.items():
            self.last_write[addr] = (p, stamp, src)
        for thread, mem in shard.last_access.items():
            for addr, stamp in mem.items():
                self.last_access[(thread, addr)] = (p, stamp)

    def _fix_cold_reads(self, shard: PartitionShard) -> None:
        drms = self.drms
        counters = shard.profiler.read_counters if drms else None
        carry_map = dict(shard.carry_in)
        lw, la, push, ledger = (
            self.last_write,
            self.last_access,
            self.push_ts,
            self.ledger,
        )
        for thread, base, run, rtn, carried, stack_len in shard.cold_reads:
            top_is_seed = carried > 0 and stack_len == carried
            live_seeds = carry_map.get(thread, ())[:carried] if carried else ()
            top_key = (thread, live_seeds[-1][0]) if top_is_seed else None
            for addr in range(base, base + run):
                s = la.get((thread, addr))
                if drms:
                    w = lw.get(addr)
                    if w is not None and (s is None or s < (w[0], w[1])):
                        # Serially induced: counted either way, never
                        # refunded — the slot move is the whole fix-up.
                        row = counters[rtn]
                        row[0] -= 1
                        row[1 if w[2] else 2] += 1
                        self.fixups += 1
                        continue
                if s is None or not carried:
                    continue
                if top_is_seed and s >= push[top_key]:
                    # Serially never counted: the thread had already
                    # accessed the cell while the seed top was live.
                    ledger[top_key] = ledger.get(top_key, 0) - 1
                    if drms:
                        counters[rtn][0] -= 1
                    self.fixups += 1
                    continue
                cands = live_seeds[:-1] if top_is_seed else live_seeds
                for sid, _rtn, _cost in reversed(cands):
                    key = (thread, sid)
                    if push[key] <= s:
                        ledger[key] = ledger.get(key, 0) - 1
                        self.fixups += 1
                        break

    def _fold_returns(self, shard: PartitionShard) -> None:
        """Seed pops surface here: the j-th pop for a thread is the
        j-th-from-the-top entry of that thread's carry-in (stack
        discipline), carrying the final partial and raw return cost."""
        carry_map = dict(shard.carry_in)
        pops: Dict[int, int] = {}
        for thread, partial, raw_cost in shard.carried_returns:
            acts = carry_map[thread]
            j = pops.get(thread, 0)
            pops[thread] = j + 1
            seq = acts[len(acts) - 1 - j][0]
            key = (thread, seq)
            self.ledger[key] = self.ledger.get(key, 0) + partial
            self.ret_cost[key] = raw_cost

    def _fold_carry_out(self, shard: PartitionShard) -> None:
        """Accumulate live-stack partials; the first appearance of an
        activation is its real push (later appearances are re-seeded
        placeholders whose small stamps must not win)."""
        p = shard.index
        for thread, acts in shard.carry_out:
            for pos, (seq, rtn, call_cost, partial, ts) in enumerate(acts):
                key = (thread, seq)
                self.ledger[key] = self.ledger.get(key, 0) + partial
                if key not in self.push_ts:
                    self.push_ts[key] = (p, ts)
                    self.meta[key] = (rtn, call_cost, pos)
                    self.parent[key] = (
                        (thread, acts[pos - 1][0]) if pos else None
                    )

    def assemble(self) -> List[Tuple[str, int, int, int]]:
        """Resolve every carried activation to a ``(routine, thread,
        drms, net_cost)`` collect row, folding each child's total into
        its parent's — top of stack first, so totals are complete
        before they propagate down."""
        acc: Dict[Tuple[int, int], int] = {key: 0 for key in self.meta}
        rows: List[Tuple[str, int, int, int]] = []
        by_depth = sorted(
            self.meta.items(), key=lambda kv: kv[1][2], reverse=True
        )
        for key, (rtn, call_cost, _pos) in by_depth:
            if key not in self.ret_cost:
                raise ValueError(
                    f"carried activation {key} never returned: "
                    f"incomplete shard set"
                )
            total = self.ledger.get(key, 0) + acc[key]
            par = self.parent[key]
            if par is not None:
                acc[par] += total
            rows.append((rtn, key[0], total, self.ret_cost[key] - call_cost))
        return rows


def merge_partition_shards(
    shard_rows: Sequence[Sequence[PartitionShard]],
) -> Dict[str, object]:
    """Fold per-partition shards into one profiler per kind.

    ``shard_rows`` holds one row per partition (any order; shards sort
    by index).  Each kind folds left-to-right through a
    :class:`_CarryState` (cold-read fix-ups against the strict prefix,
    carried-activation ledgers) and the exact ``merge()``, then the
    carried activations collect into the merged profile.  The first
    shard's profiler is mutated and returned.  Shards are
    self-describing, so cached rows merge without the original plan.
    """
    by_kind: Dict[str, List[PartitionShard]] = {}
    for row in shard_rows:
        for shard in row:
            by_kind.setdefault(shard.kind, []).append(shard)
    merged: Dict[str, object] = {}
    for kind, shards in by_kind.items():
        shards.sort(key=lambda s: s.index)
        indices = [s.index for s in shards]
        if indices != list(range(shards[-1].index + 1)):
            raise ValueError(
                f"cannot merge an incomplete shard set for {kind!r}: "
                f"have partitions {indices}"
            )
        state = _CarryState(kind)
        base: Optional[object] = None
        for shard in shards:
            state.fold_shard(shard)
            if base is None:
                base = shard.profiler
            else:
                base.merge(shard.profiler)
        for rtn, thread, total, cost in state.assemble():
            base.profiles.collect(rtn, thread, total, cost)
        merged[kind] = base
    return merged


class _ShardFolder:
    """Streaming left-fold of shard rows in partition-index order.

    Rows may arrive in any order (workers race); arrivals ahead of the
    fold frontier buffer until the gap fills, then fold through
    :class:`_CarryState` and the exact ``merge()``.  This is what lets
    the final merge overlap the slowest worker: by the time the last
    shard lands, every other shard is already folded.
    """

    def __init__(self) -> None:
        self.states: Dict[str, _CarryState] = {}
        self.bases: Dict[str, object] = {}
        self.buffer: Dict[int, List[PartitionShard]] = {}
        self.next_index = 0
        self.fold_time = 0.0

    def add(self, index: int, row: List[PartitionShard]) -> None:
        self.buffer[index] = row
        while self.next_index in self.buffer:
            start = time.perf_counter()
            for shard in self.buffer.pop(self.next_index):
                state = self.states.get(shard.kind)
                if state is None:
                    state = self.states[shard.kind] = _CarryState(shard.kind)
                state.fold_shard(shard)
                base = self.bases.get(shard.kind)
                if base is None:
                    self.bases[shard.kind] = shard.profiler
                else:
                    base.merge(shard.profiler)
            self.next_index += 1
            self.fold_time += time.perf_counter() - start

    @property
    def fixups(self) -> int:
        return sum(state.fixups for state in self.states.values())

    def finish(self) -> Dict[str, object]:
        if self.buffer:
            raise ValueError(
                f"cannot merge an incomplete shard set: partition "
                f"{self.next_index} never arrived"
            )
        start = time.perf_counter()
        for kind, state in self.states.items():
            base = self.bases[kind]
            for rtn, thread, total, cost in state.assemble():
                base.profiles.collect(rtn, thread, total, cost)
        self.fold_time += time.perf_counter() - start
        return dict(self.bases)


@dataclass
class PartitionedReplay:
    """Everything one partitioned replay produced."""

    plan: PartitionPlan
    #: one row per partition, ascending index; each row holds one shard
    #: per requested kind
    shards: List[List[PartitionShard]]
    #: merged profiler per kind (exact — see module docstring)
    profilers: Dict[str, object]
    degradations: List[Degradation] = field(default_factory=list)
    #: end-to-end bytes-to-merged-profile wall time, parent-side
    elapsed: float = 0.0
    merge_time: float = 0.0
    cold_reads_reclassified: int = 0

    @property
    def max_space_cells(self) -> int:
        """Peak per-worker shadow footprint (max across partitions) —
        the partitioned analogue of a serial replay's space figure; an
        upper bound on any single process's shadow state, not on their
        sum."""
        return max(
            (s.space_cells for row in self.shards for s in row), default=0
        )


def replay_partitioned(
    payload: bytes,
    partitions: Optional[int] = None,
    plan: Optional[PartitionPlan] = None,
    kinds: Sequence[str] = ("drms",),
    engine: str = DEFAULT_ENGINE,
    counter_limit: Optional[int] = None,
    workers: Optional[int] = None,
    timeout: float = 120.0,
    max_retries: int = 2,
    backoff_base: float = 0.25,
    metrics=None,
    tracer=None,
    label: str = "partition",
    only: Optional[Sequence[int]] = None,
    merge: bool = True,
    trace: Optional[dict] = None,
    stream: bool = True,
) -> PartitionedReplay:
    """Partition ``payload``, replay the partitions in a supervised
    process pool, and merge the shards exactly.

    Pass either a precomputed ``plan`` (planning is cheap but callers
    timing the replay plan outside the timed region) or a ``partitions``
    request (``None``/``0`` = one per CPU).  Single-partition plans —
    requested or degraded-to — replay inline, no pool.  Worker failures
    follow the PR 2 supervision discipline: bounded retries with
    exponential backoff and jitter, then an inline serial fallback *for
    that partition only*, every decision recorded as a
    :class:`Degradation` (stage ``partition-replay``).  Never hangs;
    raises only if a partition fails even inline (a genuinely
    unreplayable trace).

    ``only`` restricts replay to the listed partition indices and
    ``merge=False`` skips the merge stage (``.profilers`` comes back
    empty) — together they let the sweep cache replay just its missing
    partition shards and fold them with shards it already has.

    ``stream`` (the default) folds shards through the exact merge *as
    workers return them* — buffered to partition-index order — so the
    merge overlaps the slowest worker; ``stream=False`` keeps the old
    barrier behaviour (collect everything, then merge), which the
    partition benchmark uses as its comparison baseline.  Both produce
    byte-identical profiles.

    ``trace`` is a distributed trace context
    (:meth:`~repro.obs.distributed.TraceContext.to_dict` form, as
    shipped inside a service lease).  When it names a spans directory,
    this process opens a crash-safe span sidecar of its own, every pool
    worker opens one per partition, and decode-stall/backpressure
    counter samples land on per-partition counter tracks — so the
    per-job merged Perfetto view shows one track per worker/partition.
    """
    check_engine(engine)
    if tracer is None:
        from repro.obs import NULL_TRACER

        tracer = NULL_TRACER
    trace_ctx = TraceContext.from_dict(trace)
    own_sidecar: Optional[SpanSidecar] = None
    if (
        trace_ctx is not None
        and trace_ctx.spans_dir
        and not getattr(tracer, "enabled", False)
    ):
        # No tracer was handed down (the service path): open this
        # process's own sidecar so inline replays and pool supervision
        # are visible in the job's merged trace.
        tracer, own_sidecar = _open_partition_trace(
            trace, f"{trace_ctx.worker or label}.partitions"
        )
    if plan is None:
        plan = plan_partitions(
            payload, resolve_partitions(partitions if partitions is not None else 0)
        )
    all_parts = plan.partitions
    parts = (
        all_parts
        if only is None
        else tuple(p for p in all_parts if p.index in set(only))
    )
    total = len(all_parts)
    carry_aware = plan.carried > 0
    degradations: List[Degradation] = []
    results: Dict[int, List[PartitionShard]] = {}
    folder = _ShardFolder() if merge and stream and only is None else None
    start_all = time.perf_counter()

    def record(index: int, row: List[PartitionShard]) -> None:
        results[index] = row
        if folder is not None:
            folder.add(index, row)

    def inline(part: TracePartition) -> None:
        with tracer.span(
            "partition-replay",
            track="partition",
            label=label,
            partition=part.index,
            mode="inline",
        ):
            record(
                part.index,
                replay_partition(
                    payload,
                    part,
                    kinds,
                    total,
                    engine=engine,
                    counter_limit=counter_limit,
                    carry_aware=carry_aware,
                ),
            )

    pool_workers = min(len(parts), workers or os.cpu_count() or 1)
    # On a box that cannot express parallelism at all, worker processes
    # can only lose to their own scheduling contention (measured ~5-7%
    # at 2 workers on one core even with a warm pool over shm), so the
    # engine degrades to replaying each partition inline — the merged
    # profile is identical either way.  An active crash-injection spec
    # or REPRO_PARTITION_FORCE_POOL keeps the pool path for tests that
    # exercise worker supervision and shm residency specifically.  A
    # replay that is itself running in a pool worker (a parallel sweep
    # cell) replays inline too: pools do not nest.
    single_cpu = (
        (os.cpu_count() or 1) < 2
        and os.environ.get(_KILL_ENV) is None
        and not os.environ.get("REPRO_PARTITION_FORCE_POOL")
    )
    if len(parts) <= 1 or pool_workers <= 1 or single_cpu or in_pool_worker():
        for part in parts:
            inline(part)
    else:
        pending: Dict[int, TracePartition] = {p.index: p for p in parts}
        attempts: Dict[int, int] = {p.index: 0 for p in parts}
        by_index: Dict[int, TracePartition] = {p.index: p for p in parts}
        # Partitions tile the body from its first byte, so the first
        # planned partition's start is the header/body split.
        body_start = all_parts[0].start
        round_no = 0
        # Trace residency: the payload goes into one shared-memory
        # segment for the whole replay (all partitions, all retry
        # rounds); tasks ship only byte offsets and workers decode
        # their ranges through zero-copy attached views.  Platforms
        # without working shm fall back to pickled subrange payloads.
        shared: Optional[SharedTrace] = None
        if shm_available():
            try:
                shared = SharedTrace(payload)
            except Exception:
                shared = None
        # Crash-injection spec is captured here, parent-side: the warm
        # pool's workers may have forked before the test set the
        # variable, so it travels as a task argument.
        kill_spec = os.environ.get(_KILL_ENV)
        pool = get_pool()
        try:
            with tracer.span(
                "partition-pool",
                track="partition",
                label=label,
                partitions=total,
                workers=pool_workers,
                residency="shm" if shared is not None else "pickle",
            ):
                while pending and round_no <= max_retries:
                    round_no += 1
                    if round_no > 1:
                        delay = backoff_base * 2.0 ** (round_no - 2)
                        delay = min(
                            delay + _jitter_rng.uniform(0, backoff_base),
                            _MAX_BACKOFF,
                        )
                        time.sleep(delay)
                    # The parent replays the last pending partition
                    # itself while the pool handles the rest: one fewer
                    # dispatch round-trip and shard pickle, and on a
                    # single-CPU box the 2-way topology collapses to
                    # parent + one worker — the shape that breaks even
                    # with serial.  Skipped on retry rounds (those are
                    # re-dispatches of failures) and under an active
                    # crash-injection spec (the kill hook must land in a
                    # worker process to mean anything).
                    inline_index: Optional[int] = None
                    if round_no == 1 and kill_spec is None and len(pending) > 1:
                        inline_index = max(pending)
                    try:
                        want = len(pending) - (1 if inline_index is not None else 0)
                        pool.ensure(min(pool_workers, max(1, want)))
                        futures = {}
                        for index, part in pending.items():
                            if index == inline_index:
                                continue
                            if shared is not None:
                                futures[index] = pool.submit(
                                    _partition_worker_shm,
                                    shared.name,
                                    shared.size,
                                    part,
                                    kinds,
                                    total,
                                    engine,
                                    counter_limit,
                                    trace,
                                    carry_aware,
                                    kill_spec,
                                )
                            else:
                                sub, rebased = _subrange_payload(
                                    payload, part, body_start
                                )
                                futures[index] = pool.submit(
                                    _partition_worker,
                                    sub,
                                    rebased,
                                    kinds,
                                    total,
                                    engine,
                                    counter_limit,
                                    trace,
                                    carry_aware,
                                    kill_spec,
                                )
                    except Exception as exc:  # no fork/spawn available
                        for index in pending:
                            degradations.append(
                                Degradation(
                                    "partition-replay",
                                    f"{label}:p{index}",
                                    attempts[index] + 1,
                                    f"pool unavailable: "
                                    f"{type(exc).__name__}: {exc}",
                                    "serial-fallback",
                                )
                            )
                        break
                    if inline_index is not None:
                        # Workers are already crunching their ranges;
                        # the parent does its own share before turning
                        # to collection.
                        try:
                            inline(by_index[inline_index])
                            del pending[inline_index]
                        except Exception as exc:
                            attempts[inline_index] += 1
                            degradations.append(
                                Degradation(
                                    "partition-replay",
                                    f"{label}:p{inline_index}",
                                    attempts[inline_index],
                                    f"{type(exc).__name__}: {exc}",
                                    "retried",
                                )
                            )
                    # Collect in completion order against one shared
                    # round deadline: finished shards stream into the
                    # fold immediately instead of queueing behind an
                    # earlier-submitted straggler.
                    fut_index = {f: i for i, f in futures.items()}
                    not_done = set(futures.values())
                    deadline = time.monotonic() + timeout
                    while not_done:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        done, not_done = futures_wait(
                            not_done,
                            timeout=remaining,
                            return_when=FIRST_COMPLETED,
                        )
                        for future in done:
                            index = fut_index[future]
                            try:
                                record(index, future.result())
                                del pending[index]
                            except Exception as exc:
                                # BrokenProcessPool and deterministic
                                # failures alike: retry in a healed
                                # pool, then fall back.
                                attempts[index] += 1
                                exhausted = attempts[index] > max_retries
                                if exhausted:
                                    del pending[index]
                                degradations.append(
                                    Degradation(
                                        "partition-replay",
                                        f"{label}:p{index}",
                                        attempts[index],
                                        f"{type(exc).__name__}: {exc}",
                                        "serial-fallback"
                                        if exhausted
                                        else "retried",
                                    )
                                )
                    stuck = bool(not_done)
                    for future in not_done:
                        index = fut_index[future]
                        attempts[index] += 1
                        exhausted = attempts[index] > max_retries
                        if exhausted:
                            del pending[index]
                        degradations.append(
                            Degradation(
                                "partition-replay",
                                f"{label}:p{index}",
                                attempts[index],
                                f"partition replay exceeded {timeout:g}s "
                                f"timeout",
                                "serial-fallback" if exhausted else "retried",
                            )
                        )
                    if stuck:
                        # A wedged worker cannot be left warm: kill the
                        # pool; the next round (or caller) respawns it.
                        pool.terminate()
                    # A healthy pool stays warm for the next round,
                    # tool, cell, or sweep — that is the whole point.
        finally:
            # Unlink on every path out — success, degradation, or an
            # exception — so no /dev/shm segment outlives the replay.
            if shared is not None:
                shared.unlink()
        for index in sorted(set(p.index for p in parts) - set(results)):
            inline(by_index[index])

    if degradations and getattr(tracer, "enabled", False):
        flight = getattr(tracer, "flight", None)
        if flight is not None:
            for deg in degradations:
                flight.note("degradation", **deg.as_dict())
        flight_dump(
            tracer,
            f"partition-degradation: {label}",
            degradations=len(degradations),
            trace_id=trace_ctx.trace_id if trace_ctx else "",
            job=trace_ctx.job if trace_ctx else "",
        )

    rows = [results[i] for i in sorted(results)]
    if own_sidecar is not None:
        # Counter samples for inline-replayed shards (pool workers emit
        # their own); then the whole-replay summary below.
        _emit_shard_counters(
            tracer, [s for i in sorted(results) for s in results[i]]
        )
    reclassified = 0
    merge_time = 0.0
    profilers: Dict[str, object] = {}
    if merge:
        with tracer.span("partition-merge", track="partition", label=label):
            if folder is None:
                # Barrier mode (or an explicit ``only`` subset, which
                # must raise on incompleteness just like a standalone
                # merge): fold everything now, in index order.
                folder_ = _ShardFolder()
                for index in sorted(results):
                    folder_.add(index, results[index])
            else:
                folder_ = folder
            profilers = folder_.finish()
            reclassified = folder_.fixups
            merge_time = folder_.fold_time
            for kind in kinds:
                if kind not in profilers:
                    # Empty trace (zero partitions): an empty profile,
                    # same as a serial replay of zero events.
                    empty = _make_profiler(kind, counter_limit)
                    empty.begin_trace()
                    profilers[kind] = empty
    elapsed = time.perf_counter() - start_all

    if metrics is not None and getattr(metrics, "enabled", False):
        labels = {"label": label}
        metrics.gauge("partition.count", labels).set(total)
        if plan.total_events:
            # A plan with no countable events has no meaningful balance
            # figure: leave the gauge unset rather than publishing the
            # 0.0 the property degrades to.
            metrics.gauge("partition.imbalance", labels).set(
                round(plan.imbalance, 6)
            )
        metrics.gauge("partition.carried", labels).set(plan.carried)
        pstats = pool_stats()
        metrics.gauge("pool.workers", labels).set(pstats["workers"])
        metrics.gauge("pool.tasks", labels).set(pstats["tasks"])
        metrics.gauge("pool.tasks_reused", labels).set(pstats["tasks_reused"])
        # Sampled after the unlink above: a nonzero reading here IS a
        # leak, which is exactly what the gauge exists to catch.
        metrics.gauge("shm.segments_active", labels).set(active_segments())
        if merge:
            metrics.histogram("partition.merge_us", labels).observe(
                max(1, int(merge_time * 1e6))
            )
            metrics.counter("partition.cold_reads_reclassified", labels).inc(
                reclassified
            )
        for row in rows:
            for shard in row:
                slabels = {
                    "label": label,
                    "kind": shard.kind,
                    "partition": str(shard.index),
                }
                metrics.gauge("partition.replay_us", slabels).set(
                    max(1, int(shard.elapsed * 1e6))
                )
                metrics.gauge("partition.events", slabels).set(shard.events)
                metrics.histogram(
                    "partition.decode_stall_us", {"label": label}
                ).observe(int(shard.decode_stall_s * 1e6))
                metrics.histogram(
                    "partition.backpressure_us", {"label": label}
                ).observe(int(shard.backpressure_s * 1e6))
    if own_sidecar is not None:
        own_sidecar.close()
    return PartitionedReplay(
        plan=plan,
        shards=rows,
        profilers=profilers,
        degradations=degradations,
        elapsed=elapsed,
        merge_time=merge_time,
        cold_reads_reclassified=reclassified,
    )
