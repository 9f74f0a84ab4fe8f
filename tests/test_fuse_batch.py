"""The vectorised ``fuse_batch`` returns exactly the rows of the
row-at-a-time fusion loop it replaced.

The loop is kept in ``tests/strategies.py`` as the reference
(:func:`reference_fuse`): it is the readable statement of the fusion rule, one row and one tail state at
a time.  The property covers the cases where a pairwise, wrapping int64
formulation could drift from it: already-fused rows mixed with plain
ones, reads, writes and kernel fills side by side, runs crossing a
leaf, every ``leaf_bits`` from 1 to 8, negative addresses, and
``INT64_MAX`` followed by ``INT64_MIN`` (``+1`` wraps in numpy, so only
the leaf check keeps those apart).
"""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import (
    OP_CALL,
    OP_KERNEL_TO_USER,
    OP_KFILL_RUN,
    OP_READ,
    OP_READ_RUN,
    OP_RETURN,
    OP_SWITCH_THREAD,
    OP_WRITE,
    OP_WRITE_RUN,
    EventBatch,
    fuse_batch,
)
from tests.strategies import reference_fuse

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)


def make_batch(rows) -> EventBatch:
    ops, threads, args, costs = zip(*rows) if rows else ((), (), (), ())
    return EventBatch(
        array("b", ops),
        array("q", threads),
        array("q", args),
        array("q", costs),
        names=["r"],
    )


def columns(batch: EventBatch):
    return (
        list(batch.ops),
        list(batch.threads),
        list(batch.args),
        list(batch.costs),
    )


PLAIN_KINDS = {"read": OP_READ, "write": OP_WRITE, "k2u": OP_KERNEL_TO_USER}
RUN_KINDS = {
    "read_run": OP_READ_RUN,
    "write_run": OP_WRITE_RUN,
    "kfill_run": OP_KFILL_RUN,
}

_BASES = st.sampled_from(
    [0, 60, 63, -1, -70, 1 << 40, INT64_MAX - 3, INT64_MAX, INT64_MIN]
)


@st.composite
def rows_strategy(draw):
    """Rows that mostly walk addresses by +1 (so runs form and cross
    leaves), with jumps, thread changes, input runs and other opcodes;
    reads, writes and kernel fills mix, so runs of one kind meet the
    others' rows and runs."""
    rows = []
    addr = draw(_BASES)
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(
            st.sampled_from(
                ["read"] * 4
                + ["write"] * 2
                + ["k2u"] * 2
                + ["read_run", "write_run", "kfill_run"]
                + ["call", "other", "jump", "wrap"]
            )
        )
        if kind == "jump":
            addr = draw(_BASES)
            continue
        if kind == "wrap":
            rows.append((OP_READ, 1, INT64_MAX, 0))
            rows.append((OP_READ, 1, INT64_MIN, 0))
            continue
        thread = draw(st.sampled_from([1, 1, 1, 2]))
        step = draw(st.sampled_from([1, 1, 1, 1, 0, 2, -1]))
        addr = min(INT64_MAX, max(INT64_MIN, addr + step))
        if kind in PLAIN_KINDS:
            op = PLAIN_KINDS[kind]
            rows.append((op, thread, addr, draw(st.sampled_from([0, 0, 5]))))
        elif kind in RUN_KINDS:
            op = RUN_KINDS[kind]
            length = draw(st.integers(1, 8))
            rows.append((op, thread, addr, length))
            addr = min(INT64_MAX, addr + length - 1)
        elif kind == "call":
            rows.append((OP_CALL, thread, 0, 7))
        else:
            rows.append(
                (draw(st.sampled_from([OP_RETURN, OP_SWITCH_THREAD])), 0, 0, 0)
            )
    return rows


@given(rows_strategy(), st.integers(1, 8))
@settings(max_examples=400, deadline=None)
def test_vectorised_fuse_equals_reference_loop(rows, leaf_bits):
    batch = make_batch(rows)
    before = columns(batch)
    fused = fuse_batch(batch, leaf_bits)
    assert columns(fused) == columns(reference_fuse(batch, leaf_bits))
    assert fused.names is batch.names
    assert columns(batch) == before  # the input is untouched


def test_empty_and_one_row_batches():
    for rows in ([], [(OP_READ, 1, 5, 0)], [(OP_WRITE_RUN, 2, -3, 4)]):
        batch = make_batch(rows)
        fused = fuse_batch(batch)
        assert columns(fused) == columns(reference_fuse(batch))
        assert fused is not batch


def test_int64_max_then_min_stay_apart():
    batch = make_batch([(OP_READ, 1, INT64_MAX, 0), (OP_READ, 1, INT64_MIN, 0)])
    assert columns(fuse_batch(batch)) == columns(batch)


def test_runs_extend_and_stop_at_the_leaf():
    rows = [(OP_READ_RUN, 1, 60, 2)] + [(OP_READ, 1, a, 0) for a in (62, 63, 64)]
    fused = fuse_batch(make_batch(rows))
    assert columns(fused) == (
        [OP_READ_RUN, OP_READ],
        [1, 1],
        [60, 64],
        [4, 0],
    )
