"""The columnar kernels fold performance points once per kernel call.

A return in ``consume_columnar_drms`` / ``consume_columnar_rms`` does
not call ``ProfileSet.collect``: it gathers its point in a per-call
dict, and one ``ProfileSet.fold_points`` folds them all.  Pinned here:

* on random call, return and read streams, fused into run rows and fed
  whole or in slices, the kernel's profile set equals the one that
  per-activation ``collect`` calls build (the scalar loop): profiles,
  points, the order of both dicts and ``activations``, with
  ``keep_activations`` on and off;
* a loop row that renumbers (``counter_limit`` inside the loop) has the
  rows before it folded when it replays pair by pair through a nested
  kernel call, and the result still equals the scalar loop;
* a kernel that raises mid-batch has already folded the points of the
  rows before the failing one;
* the entries a call row pushes, built without ``StackEntry.__init__``,
  equal the scalar loop's field for field, in field order.
"""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel
from repro.core import FULL_POLICY, DrmsProfiler, RmsProfiler
from repro.core.events import (
    OP_CALL,
    OP_FILL_READ_LOOP,
    OP_READ_RUN,
    Call,
    EventBatch,
    Read,
    Return,
    Write,
    encode_events,
    fuse_segments,
)
from repro.core.shadow_stack import StackEntry
from repro.core.tracing import with_switches
from tests.strategies import ALL_POLICIES, events_of, rows_of

KINDS = ["drms", "rms"]


def make(kind, keep, policy=FULL_POLICY, counter_limit=None):
    if kind == "drms":
        return DrmsProfiler(
            policy=policy, counter_limit=counter_limit, keep_activations=keep
        )
    return RmsProfiler(keep_activations=keep)


def ordered_state(profiles):
    """Profiles and their points as ordered lists, so dict insertion
    order is compared too, plus the activation records."""
    return (
        [
            (key, p.routine, p.calls, p.total_input, list(p.points.items()))
            for key, p in profiles
        ],
        list(profiles.activations),
    )


def sliced(rows, cuts):
    """``rows`` as consecutive batches cut before each index of ``cuts``."""
    bounds = [0] + sorted(set(cuts)) + [len(rows)]
    return [
        EventBatch(
            rows.ops[i:j], rows.threads[i:j], rows.args[i:j],
            rows.costs[i:j], rows.names,
        )
        for i, j in zip(bounds, bounds[1:])
    ]


@st.composite
def call_return_read_stream(draw):
    """Calls, returns, read runs and single reads and writes on up to
    three threads.  Few routines and few run lengths, so points repeat
    (same routine, thread and size, other costs) and several
    activations fold into one point within a kernel call."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_threads = draw(st.integers(1, 3))
    depth = {t: 0 for t in range(1, n_threads + 1)}
    cost = {t: 0 for t in range(1, n_threads + 1)}
    events = []
    for _ in range(draw(st.integers(0, 80))):
        t = rng.randint(1, n_threads)
        cost[t] += rng.randint(0, 9)
        op = rng.choice(
            ["call", "call", "return", "return", "run", "read", "write"]
        )
        if op == "call":
            events.append(Call(t, f"r{rng.randint(0, 3)}", cost[t]))
            depth[t] += 1
        elif op == "return" and depth[t]:
            events.append(Return(t, cost[t]))
            depth[t] -= 1
        elif op == "run":
            base = rng.choice([0x40, 0x50, 0x7C, 0x100])
            n = rng.choice([1, 2, 4, 8, 16])
            events.extend(Read(t, base + i) for i in range(n))
        elif op == "read":
            events.append(Read(t, rng.choice([0x40, 0x41, 0x7F, 0x100])))
        elif op == "write":
            events.append(Write(t, rng.choice([0x40, 0x44, 0x101])))
    for t, d in depth.items():
        events.extend(Return(t, cost[t] + 1) for _ in range(d))
    return with_switches(events)


@settings(max_examples=150, deadline=None)
@given(
    events=call_return_read_stream(),
    kind=st.sampled_from(KINDS),
    policy=st.sampled_from(ALL_POLICIES),
    keep=st.booleans(),
    cuts=st.lists(st.integers(0, 400), max_size=4),
)
def test_kernel_fold_equals_per_activation_collect(
    events, kind, policy, keep, cuts
):
    rows, _ = fuse_segments(encode_events(events))
    scalar = make(kind, keep, policy)
    scalar.run(events)
    for batches in ([rows], sliced(rows, [c for c in cuts if c < len(rows)])):
        columnar = make(kind, keep, policy)
        for batch in batches:
            columnar.consume_columnar(batch)
        assert ordered_state(columnar.profiles) == ordered_state(
            scalar.profiles
        )
        assert columnar.metrics_snapshot() == scalar.metrics_snapshot()


def test_points_fold_before_a_renumbering_loop_row_recurses(monkeypatch):
    """With ``count + n*k`` past the counter limit a loop row replays
    through a nested kernel call; the points of the returns before it
    are in the profile set by then, and nothing is folded twice."""
    items = [
        Call(1, "outer", 0),
        Call(1, "inner", 1),
        (1, 0x40, 8, 1),
        Return(1, 5),
        Call(1, "inner", 6),
        (1, 0x48, 8, 1),
        Return(1, 9),
        (1, 0x80, 8, 12),  # a loop row: 96 kernel-induced reads
        Return(1, 20),
    ]
    rows = rows_of(items)
    assert OP_FILL_READ_LOOP in rows.ops
    seen = []
    nested = kernel.consume_columnar_drms

    def spy(prof, batch):
        seen.append([key for key, _p in prof.profiles])
        nested(prof, batch)

    monkeypatch.setattr(kernel, "consume_columnar_drms", spy)
    for limit in (40, 64, 100):
        seen.clear()
        columnar = make("drms", True, counter_limit=limit)
        scalar = make("drms", True, counter_limit=limit)
        columnar.consume_columnar(rows)
        scalar.run(with_switches(events_of(items)))
        assert seen == [[("inner", 1)]], limit
        assert columnar.renumber_passes > 0, limit
        assert ordered_state(columnar.profiles) == ordered_state(
            scalar.profiles
        )
        assert columnar.metrics_snapshot() == scalar.metrics_snapshot()


def _raising_rows():
    events = [
        Call(1, "f", 0),
        *(Read(1, 0x40 + i) for i in range(8)),
        Return(1, 4),
        Call(1, "g", 5),
        Return(1, 7),
        Call(1, "f", 8),
        *(Read(1, 0x40 + i) for i in range(8)),
        Return(1, 9),
        Return(1, 10),  # empty stack
    ]
    rows, _ = fuse_segments(encode_events(events))
    assert OP_READ_RUN in rows.ops
    return events, rows


@pytest.mark.parametrize("kind", KINDS)
def test_a_raising_kernel_has_folded_the_rows_before(kind):
    events, rows = _raising_rows()
    scalar = make(kind, True)
    with pytest.raises(ValueError, match="empty stack"):
        scalar.run(events)
    columnar = make(kind, True)
    with pytest.raises(ValueError, match="empty stack"):
        columnar.consume_columnar(rows)
    assert [a[0] for a in columnar.profiles.activations] == ["f", "g", "f"]
    assert ordered_state(columnar.profiles) == ordered_state(scalar.profiles)


@pytest.mark.parametrize("kind", KINDS)
def test_an_unknown_opcode_raises_after_folding(kind):
    _events, rows = _raising_rows()
    n = len(rows) - 1  # up to the bad return
    bad = EventBatch(
        rows.ops[:n] + array("b", [99]),
        rows.threads[:n] + array("q", [1]),
        rows.args[:n] + array("q", [0]),
        rows.costs[:n] + array("q", [0]),
        rows.names,
    )
    columnar = make(kind, True)
    with pytest.raises(TypeError, match="unknown opcode"):
        columnar.consume_columnar(bad)
    assert [a[0] for a in columnar.profiles.activations] == ["f", "g", "f"]
    assert columnar.profiles.get("f", 1).calls == 2


@pytest.mark.parametrize("kind", KINDS)
def test_call_rows_push_the_scalar_loops_entries(kind):
    events = with_switches(
        [
            Call(1, "f", 3),
            Read(1, 0x40),
            Call(2, "g", 4),
            Call(1, "h", 7),
            Call(2, "f", 9),
            Return(2, 12),
        ]
    )
    rows = encode_events(events)
    assert OP_CALL in rows.ops
    columnar, scalar = make(kind, True), make(kind, True)
    columnar.consume_columnar(rows)
    scalar.run(events)

    def entries(prof):
        return {
            t: [(type(e), list(vars(e).items())) for e in stack.entries]
            for t, stack in prof.stacks.items()
        }

    assert entries(columnar) == entries(scalar)
    assert {type(e) for s in columnar.stacks.values() for e in s.entries} == {
        StackEntry
    }
