"""The fill-read loop superop (``fillReadLoop``): the fold and the
renumbering point.

* **the fold** — ``fuse_segments`` folds k >= 2 back-to-back
  fill-run/read-run pairs on one thread's buffer into one loop row,
  at most ``_LOOP_MAX_WEIGHT`` events per row, never across an
  execution boundary, idempotently, exactly as the row-at-a-time
  reference loop kept here does; ``iter_events``, ``expand_runs`` and
  ``event_count`` give back the recording;
* **the kernels** — a loop whose counter run crosses the limit
  renumbers at the same cell as the scalar loop.  That the kernels
  equal the scalar loop and the naive oracle over stored and hand-built
  loop rows (n = 1 included), unpartitioned and partitioned, is
  ``test_exactness.py``'s ``loops`` cells.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DrmsProfiler
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
    count_superops,
    encode_events,
    expand_runs,
    fuse_batch,
    fuse_segments,
    pack_loop,
    unpack_loop,
)
from tests.strategies import events_of, pair_starts, reference_fuse, stream_read


def _lanes(batch):
    return (batch.ops, batch.threads, batch.args, batch.costs)


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
