"""The vectorised ``fuse_batch`` returns exactly the rows of the
row-at-a-time fusion loop it replaced.

The loop is kept here as the reference (:func:`reference_fuse`): it is
the readable statement of the fusion rule, one row and one tail state at
a time.  The property covers the cases where a pairwise, wrapping int64
formulation could drift from it: already-fused rows mixed with plain
ones, runs crossing a leaf, every ``leaf_bits`` from 1 to 8, negative
addresses, and ``INT64_MAX`` followed by ``INT64_MIN`` (``+1`` wraps in
numpy, so only the leaf check keeps those apart).
"""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import (
    OP_CALL,
    OP_READ,
    OP_READ_RUN,
    OP_RETURN,
    OP_SWITCH_THREAD,
    OP_WRITE,
    OP_WRITE_RUN,
    EventBatch,
    fuse_batch,
)

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)


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
        if op == OP_READ or op == OP_WRITE:
            thread = threads[i]
            addr = args[i]
            run_op = OP_READ_RUN if op == OP_READ else OP_WRITE_RUN
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
        elif op == OP_READ_RUN or op == OP_WRITE_RUN:
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


_BASES = st.sampled_from(
    [0, 60, 63, -1, -70, 1 << 40, INT64_MAX - 3, INT64_MAX, INT64_MIN]
)


@st.composite
def rows_strategy(draw):
    """Rows that mostly walk addresses by +1 (so runs form and cross
    leaves), with jumps, thread changes, input runs and other opcodes."""
    rows = []
    addr = draw(_BASES)
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(
            st.sampled_from(
                ["read"] * 4
                + ["write"] * 2
                + ["read_run", "write_run", "call", "other", "jump", "wrap"]
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
        if kind in ("read", "write"):
            op = OP_READ if kind == "read" else OP_WRITE
            rows.append((op, thread, addr, draw(st.sampled_from([0, 0, 5]))))
        elif kind in ("read_run", "write_run"):
            op = OP_READ_RUN if kind == "read_run" else OP_WRITE_RUN
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
