"""Partitioned replay: one trace, many workers, an exact merged profile.

After PR 5 the slowest cell of a sweep is a *single serial replay* of
one large trace.  This module turns that replay into an embarrassingly
parallel job:

1. :func:`repro.core.tracefile.plan_partitions` cuts the v2 trace at
   section boundaries — depth-zero ones for free, mid-activation ones
   with per-thread carry-in summaries — into byte ranges with balanced
   event counts;
2. each partition replays its range through the normal engines
   (columnar by default; the decoder yields each read-ahead group of
   consecutive sections as one batch of stored rows — run superops
   included — decoded once, inline, and fed to every profiler kind)
   in a supervised process pool, the parent replaying one share itself
   — a worker that times out or dies is retried with backoff and,
   failing that, that partition alone falls back to an inline replay
   in the parent;
3. once every partition is in, the per-partition profiler shards fold
   once, in partition-index order, through the exact associative
   ``merge()`` (:func:`merge_partition_shards`).

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

import os
import time
# unused here since the pool supervisor took over the waiting; kept so
# perfbench's layer hook on ``partition.futures_wait`` still resolves
from concurrent.futures import wait as futures_wait  # noqa: F401
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

# unused here since the writer stores fused rows; kept so perfbench's
# layer hook on ``partition.fuse_batch`` still resolves
from repro.core.events import fuse_batch  # noqa: F401
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
from repro.tools.pool import KILL_ENV as _KILL_ENV
from repro.tools.pool import (
    Degradation,
    active_segments,
    in_pool_worker,
    pool_stats,
    supervise,
    usable_cpus,
)
from repro.tools.runner import DEFAULT_ENGINE, check_engine

__all__ = [
    "PartitionShard",
    "PartitionedReplay",
    "replay_partition",
    "replay_partitioned",
    "merge_partition_shards",
    "resolve_partitions",
]

def resolve_partitions(partitions: Optional[int]) -> Optional[int]:
    """Normalise a ``--partitions`` value: ``None`` stays off, ``0``
    means auto (one partition per usable CPU), anything else passes
    through."""
    if partitions is None:
        return None
    if partitions < 0:
        raise ValueError("partitions must be >= 0")
    if partitions == 0:
        return usable_cpus()
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
    #: wall time the replay spent pulling batches rather than in the
    #: kernels: section decode, the group join and its row check
    decode_stall_s: float = 0.0
    #: 0 since decode runs inline, with no reader queue; kept because
    #: perfbench reads ``backpressure_s``
    backpressure_s: float = 0.0
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

    One pass over the range serves every kind: the range's sections
    are decoded once, a read-ahead group of consecutive sections per
    batch (:func:`~repro.core.tracefile.iter_section_batches`), and
    each batch's stored rows (fused by the writer) are handed inline,
    unchanged, to every kind's columnar kernel — one kernel call per
    kind per batch — before the next batch is pulled.  ``scalar``
    replays the same batches, expanded into events, through the
    reference ``consume`` loop for the equivalence suite.  Each shard
    reports the pass's wall time as ``elapsed`` and its decode share
    (decode, group join and row check) as ``decode_stall_s``.

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
    batches = iter_section_batches(payload, part.start, part.end)
    while True:
        mark = now()
        batch = next(batches, None)
        if batch is None:
            break
        if engine == "scalar":
            batch = list(batch.iter_events())
        decode_s += now() - mark
        for prof in profs:
            if engine == "scalar":
                for event in batch:
                    prof.consume(event)
            else:
                prof.consume_columnar(batch)
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
    payload: the trace header (magic + intern table + declared count)
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
    """One counter-track sample (a Perfetto "C" event) of one
    partition's inline decode time.  Every shard of a partition carries
    the one shared decode pass's time, so the first stands for all."""
    if getattr(tracer, "enabled", False) and shards:
        tracer.counter(
            "partition.decode_stall_us",
            int(shards[0].decode_stall_s * 1e6),
            track=f"p{shards[0].index}",
        )


def _partition_worker(
    payload,
    part: TracePartition,
    kinds: Sequence[str],
    total: int,
    engine: str,
    counter_limit: Optional[int],
    trace: Optional[dict] = None,
    carry_aware: bool = False,
) -> List[PartitionShard]:
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
    return _fold_shards(shard_rows)[0]


def _fold_shards(
    shard_rows: Sequence[Sequence[PartitionShard]],
) -> Tuple[Dict[str, object], int]:
    """The one shard fold behind :func:`merge_partition_shards`; also
    returns how many cold reads the fix-ups reclassified."""
    by_kind: Dict[str, List[PartitionShard]] = {}
    for row in shard_rows:
        for shard in row:
            by_kind.setdefault(shard.kind, []).append(shard)
    merged: Dict[str, object] = {}
    fixups = 0
    for kind, shards in by_kind.items():
        shards.sort(key=lambda s: s.index)
        indices = [s.index for s in shards]
        if indices != list(range(shards[0].partitions)):
            raise ValueError(
                f"cannot merge an incomplete shard set for {kind!r}: "
                f"have partitions {indices} of {shards[0].partitions}"
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
        fixups += state.fixups
    return merged, fixups


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
) -> PartitionedReplay:
    """Partition ``payload``, replay the partitions in a supervised
    process pool, and merge the shards exactly.

    Pass either a precomputed ``plan`` (planning is cheap but callers
    timing the replay plan outside the timed region) or a ``partitions``
    request (``None``/``0`` = one per CPU).  Single-partition plans —
    requested or degraded-to — replay inline, no pool.  The pool round
    runs under :func:`repro.tools.pool.supervise` with the parent as
    its last slot: ``workers - 1`` partitions go to pool workers while
    the parent replays one itself (span mode ``parent``).  A dead or
    wedged worker is retried with jittered backoff, then *that
    partition only* falls back to an inline replay (span mode
    ``inline``), every decision recorded as a :class:`Degradation`
    (stage ``partition-replay``).  Never hangs; raises only if a
    partition fails even inline (a genuinely unreplayable trace).

    ``only`` restricts replay to the listed partition indices and
    ``merge=False`` skips the merge stage (``.profilers`` comes back
    empty) — together they let the sweep cache replay just its missing
    partition shards and fold them with shards it already has.

    The merge folds the collected shards once, in partition-index
    order (:func:`merge_partition_shards`); ``.merge_time`` is that
    fold's wall time.

    ``trace`` is a distributed trace context
    (:meth:`~repro.obs.distributed.TraceContext.to_dict` form, as
    shipped inside a service lease).  When it names a spans directory,
    this process opens a crash-safe span sidecar of its own, every pool
    worker opens one per partition, and each partition's decode-stall
    counter sample lands once, on its own counter track, written by
    the process that replayed it — so the per-job merged Perfetto view
    shows one track per worker/partition.
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
    start_all = time.perf_counter()

    def inline(
        part: TracePartition, mode: str = "inline"
    ) -> List[PartitionShard]:
        with tracer.span(
            "partition-replay",
            track="partition",
            label=label,
            partition=part.index,
            mode=mode,
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
        if own_sidecar is not None:
            # pool workers write the samples of the partitions they
            # replayed; this process writes those it replayed itself
            _emit_shard_counters(tracer, shards)
        return shards

    cpus = usable_cpus()
    pool_workers = min(len(parts), workers or cpus)
    kill_active = os.environ.get(_KILL_ENV) is not None
    # On a box that cannot express parallelism at all, worker processes
    # can only lose to their own scheduling contention (measured ~5-7%
    # at 2 workers on one core even with a warm pool), so the engine
    # degrades to replaying each partition inline — the merged profile
    # is identical either way.  An active crash-injection spec or
    # REPRO_PARTITION_FORCE_POOL keeps the pool path for tests that
    # exercise worker supervision and pooled replay specifically.  A
    # replay that is itself running in a pool worker (a parallel sweep
    # cell) replays inline too: pools do not nest.
    single_cpu = (
        cpus < 2
        and not kill_active
        and not os.environ.get("REPRO_PARTITION_FORCE_POOL")
    )
    unfinished: Sequence[TracePartition] = parts
    if not (
        len(parts) <= 1 or pool_workers <= 1 or single_cpu or in_pool_worker()
    ):
        # Each task ships its own byte range pickled: the trace header
        # plus this partition's sections (``_subrange_payload``), so a
        # task carries O(trace/partitions) bytes and no worker needs
        # anything but its pipe.  Partitions tile the body from its
        # first byte, so the first planned partition's start is the
        # header/body split.
        body_start = all_parts[0].start
        args = (kinds, total, engine, counter_limit, trace, carry_aware)
        by_index = {part.index: part for part in parts}
        tasks = {
            index: (
                _partition_worker,
                (*_subrange_payload(payload, part, body_start), *args),
            )
            for index, part in by_index.items()
        }
        with tracer.span(
            "partition-pool",
            track="partition",
            label=label,
            partitions=total,
            workers=pool_workers,
        ):
            left, _attempts, degradations = supervise(
                tasks,
                stage="partition-replay",
                workers=pool_workers,
                timeout=timeout,
                max_retries=max_retries,
                backoff_base=backoff_base,
                on_result=results.__setitem__,
                unit=lambda index: f"{label}:p{index}",
                inline=lambda index: inline(by_index[index], "parent"),
            )
        unfinished = [p for p in parts if p.index in left]
    for part in unfinished:
        results[part.index] = inline(part)

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
    reclassified = 0
    merge_time = 0.0
    profilers: Dict[str, object] = {}
    if merge:
        with tracer.span("partition-merge", track="partition", label=label):
            merge_start = time.perf_counter()
            profilers, reclassified = _fold_shards(rows)
            merge_time = time.perf_counter() - merge_start
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
        # No replay creates a segment: a nonzero reading here IS a
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
            # every shard of a partition carries the one shared decode
            # pass's time: observe it once per partition, not per kind
            metrics.histogram(
                "partition.decode_stall_us", {"label": label}
            ).observe(int(row[0].decode_stall_s * 1e6))
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
