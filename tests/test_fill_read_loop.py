"""The fill-read loop superop (``fillReadLoop``) is exact everywhere.

* **the fold** — ``fuse_segments`` folds k >= 2 back-to-back
  fill-run/read-run pairs on one thread's buffer into one loop row,
  at most ``_LOOP_MAX_WEIGHT`` events per row, never across an
  execution boundary, idempotently, exactly as the row-at-a-time
  reference loop kept here does; ``iter_events``, ``expand_runs`` and
  ``event_count`` give back the recording;
* **the kernels** — on stream-read traces (k from 1 to 70, n from 1 to
  64 at offsets inside a leaf, foreign writes, ``userToKernel`` rows and
  thread switches between stretches, reads outside any activation) the
  columnar drms and rms kernels over the stored rows, and over
  hand-built loop rows the writer never emits (n = 1), equal the scalar
  loop and the naive oracle, ``metrics_snapshot`` and ``count``
  included, for ``counter_limit`` in {None, 7, 64} and every input
  policy;
* **partitioned replay** — at 1-4 partitions, with section and
  execution boundaries inside a stretch, depth-zero and carried cuts
  alike, the merged profiles equal the serial replay.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DrmsProfiler, NaiveDrmsProfiler, RmsProfiler
from repro.core.events import (
    _LOOP_MAX_WEIGHT,
    OP_CALL,
    OP_FILL_READ_LOOP,
    OP_KERNEL_TO_USER,
    OP_KFILL_RUN,
    OP_READ,
    OP_READ_RUN,
    OP_RETURN,
    SUPEROP_NAMES,
    Call,
    EventBatch,
    KernelToUser,
    Read,
    Return,
    SwitchThread,
    TraceEncoder,
    UserToKernel,
    Write,
    count_superops,
    encode_events,
    expand_runs,
    fuse_batch,
    fuse_segments,
    pack_loop,
    unfold_loops,
    unpack_loop,
)
from repro.tools.partition import replay_partitioned
from tests.test_batch_pipeline import ALL_POLICIES, activation_sizes
from tests.test_columnar_kernel import _pending
from tests.test_fuse_batch import reference_fuse
from tests.test_partition_replay import (
    profile_state,
    read_counts,
    serial_profilers,
)
from tests.test_partition_thread_cuts import monolithic

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


def _lanes(batch):
    return (batch.ops, batch.threads, batch.args, batch.costs)


def assert_replays_exactly(rows, events, policy, counter_limit):
    scalar = DrmsProfiler(policy=policy, counter_limit=counter_limit)
    scalar.run(events)
    kernel = DrmsProfiler(policy=policy, counter_limit=counter_limit)
    kernel.consume_columnar(rows)
    assert kernel.metrics_snapshot() == scalar.metrics_snapshot()
    assert kernel.count == scalar.count
    assert _pending(kernel) == _pending(scalar)
    assert profile_state(kernel.profiles) == profile_state(scalar.profiles)
    oracle = NaiveDrmsProfiler(policy=policy)
    oracle.run(events)
    assert activation_sizes(kernel.profiles) == activation_sizes(
        oracle.profiles
    )
    assert read_counts(kernel) == read_counts(oracle)

    rms_scalar, rms_kernel = RmsProfiler(), RmsProfiler()
    rms_scalar.run(events)
    rms_kernel.consume_columnar(rows)
    assert rms_kernel.metrics_snapshot() == rms_scalar.metrics_snapshot()
    assert rms_kernel.count == rms_scalar.count
    assert _pending(rms_kernel) == _pending(rms_scalar)


# -- the fold -----------------------------------------------------------------


@given(stream_read())
@settings(max_examples=80, deadline=None)
def test_stored_rows_give_back_the_recording(items):
    events = events_of(items)
    batch = encode_events(events)
    rows, _ = fuse_segments(batch)
    assert list(rows.iter_events()) == events
    assert rows.event_count() == len(events)
    assert _lanes(expand_runs(rows)) == _lanes(batch)
    assert _lanes(EventBatch.from_bytes(batch.to_bytes())) == _lanes(rows)
    loops = [
        unpack_loop(c)
        for op, c in zip(rows.ops, rows.costs)
        if op == OP_FILL_READ_LOOP
    ]
    for n, k in loops:
        assert 2 <= n <= 64 and k >= 2 and 2 * n * k <= _LOOP_MAX_WEIGHT
    superops, covered = count_superops(rows)
    weights = [
        len(list(_row(rows, i).iter_events()))
        for i, op in enumerate(rows.ops)
        if op in SUPEROP_NAMES
    ]
    assert (superops, covered) == (len(weights), sum(weights))


def reference_fold(batch: EventBatch) -> EventBatch:
    """The fold one row at a time: from each row, count the
    back-to-back fill-run/read-run pairs on its buffer, then emit a loop
    row per chunk of at most ``_LOOP_MAX_WEIGHT`` events (a lone pair
    stays two run rows)."""
    rows = list(zip(batch.ops, batch.threads, batch.args, batch.costs))

    def pair_at(j, key):
        return (
            j + 1 < len(rows)
            and rows[j][0] == OP_KFILL_RUN
            and rows[j + 1][0] == OP_READ_RUN
            and rows[j][1:] == rows[j + 1][1:] == key
            and key[2] > 0
            and key[1] >> 6 == (key[1] + key[2] - 1) >> 6
        )

    out, i = [], 0
    while i < len(rows):
        key = rows[i][1:]
        k = 0
        while pair_at(i + 2 * k, key):
            k += 1
        if k < 2:
            out.append(rows[i])
            i += 1
            continue
        thread, base, n = key
        while k:
            take = min(k, _LOOP_MAX_WEIGHT // (2 * n))
            if take >= 2:
                out.append((OP_FILL_READ_LOOP, thread, base, pack_loop(n, take)))
            else:
                out.extend(rows[i : i + 2])
            i += 2 * take
            k -= take
    ops, threads, args, costs = zip(*out) if out else ((), (), (), ())
    return EventBatch(
        array("b", ops), array("q", threads), array("q", args),
        array("q", costs), names=batch.names,
    )


@given(stream_read(cells=64 * 70), st.data())
@settings(max_examples=60, deadline=None)
def test_vectorised_fold_equals_reference_loop(items, data):
    events = events_of(items)
    inner = pair_starts(events)
    cuts = sorted(
        set(data.draw(st.lists(st.sampled_from(inner), max_size=3)))
        if inner
        else ()
    )
    batch = encode_events(events)
    rows, _ = fuse_segments(batch, cuts)
    expected = EventBatch(names=batch.names)
    for lo, hi in zip([0] + cuts, cuts + [len(batch)]):
        segment = EventBatch(
            batch.ops[lo:hi], batch.threads[lo:hi], batch.args[lo:hi],
            batch.costs[lo:hi], names=batch.names,
        )
        for lane, part in zip(
            _lanes(expected), _lanes(reference_fold(reference_fuse(segment)))
        ):
            lane.extend(part)
    assert _lanes(rows) == _lanes(expected)


@given(stream_read(cells=64 * 70))
@settings(max_examples=50, deadline=None)
def test_fold_is_idempotent(items):
    rows = fuse_batch(encode_events(events_of(items)))
    assert _lanes(fuse_batch(rows)) == _lanes(rows)


def _row(batch, i):
    return EventBatch(
        batch.ops[i : i + 1], batch.threads[i : i + 1],
        batch.args[i : i + 1], batch.costs[i : i + 1], names=batch.names,
    )


def _stretch(n, k, base=0x40, thread=1):
    events = [Call(thread, "scan")]
    for _ in range(k):
        events += [KernelToUser(thread, base + i) for i in range(n)]
        events += [Read(thread, base + i) for i in range(n)]
    return events + [Return(thread)]


@pytest.mark.parametrize(
    "n,k,shape",
    [
        (2, 2, [("loop", 2, 2)]),
        (32, 63, [("loop", 32, 63)]),
        # 2 * 32 * 64 events is the cap exactly; the rest folds anew
        (32, 100, [("loop", 32, 64), ("loop", 32, 36)]),
        # one pair left over after the cap stays two run rows
        (64, 33, [("loop", 64, 32), (OP_KFILL_RUN, 64), (OP_READ_RUN, 64)]),
        # a lone pair does not fold
        (8, 1, [(OP_KFILL_RUN, 8), (OP_READ_RUN, 8)]),
        # single-cell pairs are plain rows, not runs: nothing folds
        (1, 5, [(OP_KERNEL_TO_USER, 1), (OP_READ, 1)] * 5),
    ],
)
def test_fold_shapes(n, k, shape):
    events = _stretch(n, k)
    rows, _ = fuse_segments(encode_events(events))
    assert rows.ops[0] == OP_CALL and rows.ops[-1] == OP_RETURN
    got = []
    for op, cost in zip(rows.ops[1:-1], rows.costs[1:-1]):
        if op == OP_FILL_READ_LOOP:
            got.append(("loop", *unpack_loop(cost)))
        else:
            got.append((op, cost or 1))
    assert got == shape
    assert rows.event_count() == len(events)


def test_no_loop_crosses_an_execution_boundary():
    events = _stretch(16, 10)
    batch = encode_events(events)
    cut = 1 + 4 * 32  # the first event of the fifth pair
    rows, row_cuts = fuse_segments(batch, [cut])
    assert [
        unpack_loop(c)
        for op, c in zip(rows.ops, rows.costs)
        if op == OP_FILL_READ_LOOP
    ] == [(16, 4), (16, 6)]
    assert row_cuts == [2]
    assert list(rows.iter_events()) == events


def test_fold_skips_foreign_threads_and_other_buffers():
    base = [KernelToUser(1, 0x40 + i) for i in range(4)]
    read = [Read(1, 0x40 + i) for i in range(4)]
    other_thread = [Read(2, 0x40 + i) for i in range(4)]
    shifted = [Read(1, 0x41 + i) for i in range(4)]
    for events in (
        base + other_thread + base + other_thread,
        base + shifted + base + shifted,
        base + read + base[:3] + read[:3],
    ):
        rows, _ = fuse_segments(encode_events(events))
        assert OP_FILL_READ_LOOP not in rows.ops


# -- the kernels --------------------------------------------------------------


@given(
    stream_read(),
    st.sampled_from(ALL_POLICIES),
    st.sampled_from([None, 7, 64]),
)
@settings(max_examples=80, deadline=None)
def test_stored_loop_rows_replay_exactly(items, policy, counter_limit):
    events = events_of(items)
    rows = EventBatch.from_bytes(encode_events(events).to_bytes())
    assert_replays_exactly(rows, events, policy, counter_limit)


@given(
    stream_read(),
    st.sampled_from(ALL_POLICIES),
    st.sampled_from([None, 7, 64]),
)
@settings(max_examples=80, deadline=None)
def test_hand_built_loop_rows_replay_exactly(items, policy, counter_limit):
    events = events_of(items)
    rows = rows_of(items)
    assert list(rows.iter_events()) == events
    assert rows.event_count() == len(events)
    assert _lanes(expand_runs(rows)) == _lanes(encode_events(events))
    assert list(unfold_loops(rows).iter_events()) == events
    assert_replays_exactly(rows, events, policy, counter_limit)


def test_loop_renumbers_at_the_exact_cell():
    """A loop whose counter run crosses the limit replays pair by pair,
    so compaction happens at the same cell as in the scalar loop."""
    events = _stretch(32, 6)
    rows, _ = fuse_segments(encode_events(events))
    assert list(rows.ops).count(OP_FILL_READ_LOOP) == 1
    for limit in (None, 10, 33, 64, 190, 195, 400):
        kernel = DrmsProfiler(counter_limit=limit)
        scalar = DrmsProfiler(counter_limit=limit)
        kernel.consume_columnar(rows)
        scalar.run(events)
        assert kernel.metrics_snapshot() == scalar.metrics_snapshot(), limit
        assert kernel.count == scalar.count, limit
        assert tuple(kernel.read_counters["scan"]) == (0, 0, 6 * 32)


# -- partitioned replay -------------------------------------------------------


@given(
    stream_read(),
    st.integers(1, 4),
    st.booleans(),
    st.integers(2, 12),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_partitioned_loop_replay_equals_serial(
    items, n_parts, carried, section_rows, data
):
    events = events_of(items)
    if carried:
        # one outer activation: every cut is a mid-activation carry
        events = monolithic(events)
    inner = pair_starts(events)
    bounds = sorted(
        set(data.draw(st.lists(st.sampled_from(inner), max_size=3)))
        if inner
        else ()
    )
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=section_rows, boundaries=bounds)
    rep = replay_partitioned(
        payload, partitions=n_parts, kinds=("drms", "rms"), workers=1
    )
    assert not rep.degradations
    serial_drms, serial_rms = serial_profilers(batch)
    merged_drms, merged_rms = rep.profilers["drms"], rep.profilers["rms"]
    assert merged_drms.metrics_snapshot() == serial_drms.metrics_snapshot()
    assert merged_rms.metrics_snapshot() == serial_rms.metrics_snapshot()
    assert profile_state(merged_drms.profiles) == profile_state(
        serial_drms.profiles
    )
    assert profile_state(merged_rms.profiles) == profile_state(
        serial_rms.profiles
    )
    assert read_counts(merged_drms) == read_counts(serial_drms)
