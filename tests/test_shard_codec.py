"""Shard sidecars are stored as data: the shard codec and its store path.

``TraceStore.put_shard`` writes the envelope of
:mod:`repro.sweep.shard_codec` (CRC, ``SHARD_VERSION``, kind, zlib JSON
of a tagged tree whose objects come from a fixed class list), and
``get_shard`` decodes it without ``pickle``.  Pinned here:

* round trips through a ``TraceStore`` keep every field — equal
  ``metrics_snapshot()``, profile state and read counters, and a
  re-encoding equal byte for byte — for profilers replayed from random
  traces and for the partition shards of carried plans at
  ``counter_limit`` None and 7; decoded shards merge exactly as the
  originals do;
* no written file opens with the pickle PROTO byte, and reading one
  works with ``pickle.load``/``pickle.loads`` patched to raise;
* a truncated file, garbage after the magic and an unknown class name
  are *corrupt*, an intact envelope of ``SHARD_VERSION + 1`` is
  *stale*, for ``get_shard``, the store audit and ``repro doctor
  --store`` alike;
* encoding refuses a type outside the tree and a non-empty shadow
  memory.

Shards pickled before the codec keep loading: see the retired-field
and pre-leaf-index tests in ``test_partition_replay.py`` and the
pickled-version tests in ``test_sweep_store.py``.
"""

import json
import os
import pickle
import struct
import zlib

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import FULL_POLICY, DrmsProfiler, RmsProfiler, profiles
from repro.core.events import encode_events
from repro.core.shadow import ShadowMemory
from repro.core.tracefile import plan_partitions
from repro.sweep import SHARD_VERSION, TraceKey, TraceStore
from repro.sweep.shard_codec import (
    SHARD_MAGIC,
    encode_shard,
)
from repro.tools.partition import merge_partition_shards, replay_partitioned
from tests.strategies import (
    ALL_POLICIES,
    monolithic,
    multi_run_trace,
    profile_state,
    random_trace,
    read_counts,
)

KEY = TraceKey("codec", 1, 2)


def envelope(tree, kind="drms", version=SHARD_VERSION):
    """A hand-built envelope around the JSON ``tree``, laid out as the
    codec's module docstring specifies."""
    kind_bytes = kind.encode("utf-8")
    rest = (
        struct.pack("<HB", version, len(kind_bytes))
        + kind_bytes
        + zlib.compress(json.dumps(tree).encode("utf-8"))
    )
    return SHARD_MAGIC + struct.pack("<I", zlib.crc32(rest)) + rest


def replayed(events, policy=FULL_POLICY, counter_limit=None, keep=False):
    drms = DrmsProfiler(
        policy=policy, counter_limit=counter_limit, keep_activations=keep
    )
    rms = RmsProfiler(keep_activations=keep)
    for event in events:
        drms.consume(event)
        rms.consume(event)
    drms.begin_trace()
    rms.begin_trace()
    return drms, rms


def state(profiler):
    return (
        profiler.metrics_snapshot(),
        profile_state(profiler.profiles),
        read_counts(profiler) if isinstance(profiler, DrmsProfiler) else None,
        list(profiler.profiles.activations),
    )


def write(store, kind, data):
    path = store.shard_path(KEY, kind)
    with open(path, "wb") as handle:
        handle.write(data)
    return path


@pytest.fixture
def store(tmp_path):
    """A store holding one trace and its drms shard: it audits clean."""
    store = TraceStore(str(tmp_path))
    store.put(KEY, encode_events(_trace()))
    drms, _rms = replayed(_trace())
    store.put_shard(KEY, "drms", drms)
    assert store.audit().clean
    return store


def _trace():
    from repro.core.events import Call, Read, Return, Write

    return [Call(1, "f"), Write(1, 0x10), Read(1, 0x10), Return(1)]


# -- round trips --------------------------------------------------------------


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    trace=random_trace(),
    policy=st.sampled_from(ALL_POLICIES),
    counter_limit=st.sampled_from([None, 7]),
    keep=st.booleans(),
)
def test_profilers_round_trip_through_the_store(
    tmp_path_factory, trace, policy, counter_limit, keep
):
    store = TraceStore(str(tmp_path_factory.mktemp("store")))
    for kind, original in zip(
        ("drms", "rms"), replayed(trace, policy, counter_limit, keep)
    ):
        store.put_shard(KEY, kind, original)
        with open(store.shard_path(KEY, kind), "rb") as handle:
            data = handle.read()
        assert data[0] != 0x80
        loaded = store.get_shard(KEY, kind)
        assert type(loaded) is type(original)
        assert state(loaded) == state(original)
        assert encode_shard(kind, SHARD_VERSION, loaded) == data
    assert store.sidecar_stats() == {"sidecar_corrupt": 0, "sidecar_stale": 0}


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(runs=st.lists(random_trace(max_ops=60), min_size=1, max_size=4))
def test_decoded_shards_merge_as_the_originals_do(tmp_path_factory, runs):
    store = TraceStore(str(tmp_path_factory.mktemp("store")))
    originals = [replayed(run) for run in runs]
    for i, pair in enumerate(originals):
        for kind, shard in zip(("drms", "rms"), pair):
            store.put_shard(KEY, f"{kind}.r{i}", shard)
    decoded = [
        [store.get_shard(KEY, f"{kind}.r{i}") for kind in ("drms", "rms")]
        for i in range(len(runs))
    ]
    for merged in (originals, decoded):
        for later in merged[1:]:
            merged[0][0].merge(later[0])
            merged[0][1].merge(later[1])
    assert state(decoded[0][0]) == state(originals[0][0])
    assert state(decoded[0][1]) == state(originals[0][1])


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    trace=multi_run_trace(),
    section_events=st.integers(2, 16),
    partitions=st.integers(2, 4),
    counter_limit=st.sampled_from([None, 7]),
)
def test_carried_partition_shards_round_trip_and_merge(
    tmp_path_factory, trace, section_events, partitions, counter_limit
):
    events, _bounds = trace
    payload = encode_events(monolithic(events)).to_bytes(
        section_events=section_events
    )
    plan = plan_partitions(payload, partitions)
    assume(len(plan.partitions) > 1 and plan.carried > 0)
    rep = replay_partitioned(
        payload,
        plan=plan,
        kinds=("drms", "rms"),
        workers=1,
        counter_limit=counter_limit,
        merge=False,
    )
    store = TraceStore(str(tmp_path_factory.mktemp("store")))
    n = len(rep.shards)
    for row in rep.shards:
        for shard in row:
            kind = f"{shard.kind}.p{shard.index}of{n}"
            store.put_shard(KEY, kind, shard)
            loaded = store.get_shard(KEY, kind)
            assert vars(loaded).keys() == vars(shard).keys()
            assert encode_shard(kind, SHARD_VERSION, loaded) == encode_shard(
                kind, SHARD_VERSION, shard
            )
    decoded = [
        [store.get_shard(KEY, f"{kind}.p{i}of{n}") for kind in ("drms", "rms")]
        for i in range(n)
    ]
    want = merge_partition_shards(rep.shards)
    got = merge_partition_shards(decoded)
    for kind in ("drms", "rms"):
        assert state(got[kind]) == state(want[kind])


def test_reading_a_shard_never_unpickles(store, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a stored shard was unpickled")

    monkeypatch.setattr(pickle, "load", refuse)
    monkeypatch.setattr(pickle, "loads", refuse)
    assert store.get_shard(KEY, "drms") is not None
    assert store.audit().clean
    assert store.sidecar_stats() == {"sidecar_corrupt": 0, "sidecar_stale": 0}


def test_written_shards_open_with_the_magic_not_a_pickle_proto(store):
    with open(store.shard_path(KEY, "drms"), "rb") as handle:
        data = handle.read()
    assert data.startswith(SHARD_MAGIC)
    assert data[0] != 0x80


# -- damage: get_shard, audit and doctor agree ---------------------------------


def _damaged(store):
    data = open(store.shard_path(KEY, "drms"), "rb").read()
    return {
        "truncated": data[: len(data) - 5],
        "garbage after the magic": SHARD_MAGIC + b"\x00garbage" * 4,
        "unknown class": envelope({"#": "Popen", "args": ["true"]}),
        "untagged object": envelope([{"calls": 1}]),
        "odd dict": envelope({"D": [1]}),
        "two tags": envelope({"T": [], "D": []}),
    }


@pytest.mark.parametrize(
    "case",
    [
        "truncated",
        "garbage after the magic",
        "unknown class",
        "untagged object",
        "odd dict",
        "two tags",
    ],
)
def test_damaged_envelopes_are_corrupt(store, capsys, case):
    write(store, "drms", _damaged(store)[case])
    assert store.get_shard(KEY, "drms") is None
    assert store.sidecar_stats() == {"sidecar_corrupt": 1, "sidecar_stale": 0}
    audit = store.audit()
    assert audit.corrupt_shards == [store.shard_path(KEY, "drms")]
    assert audit.stale_shards == []
    assert main(["doctor", "--store", store.root]) == 1
    assert "corrupt shard" in capsys.readouterr().out


def test_next_version_envelope_is_stale(store, capsys):
    drms, _rms = replayed(_trace())
    write(store, "drms", encode_shard("drms", SHARD_VERSION + 1, drms))
    assert store.get_shard(KEY, "drms") is None
    assert store.sidecar_stats() == {"sidecar_corrupt": 0, "sidecar_stale": 1}
    audit = store.audit()
    assert audit.stale_shards == [store.shard_path(KEY, "drms")]
    assert audit.corrupt_shards == []
    assert main(["doctor", "--store", store.root]) == 1
    assert "stale shard" in capsys.readouterr().out


def test_kind_mismatch_inside_the_envelope_is_corrupt(store):
    drms, _rms = replayed(_trace())
    write(store, "rms", encode_shard("drms", SHARD_VERSION, drms))
    assert store.get_shard(KEY, "rms") is None
    assert store.sidecar_stats()["sidecar_corrupt"] == 1


def test_a_clean_codec_store_passes_the_doctor(tmp_path, capsys):
    from repro.workloads.patterns import producer_consumer

    machine = producer_consumer(15)
    machine.instrument = True
    machine.set_batch_sink()
    machine.run()
    batch = machine.encoded_trace
    store = TraceStore(str(tmp_path))
    store.put(KEY, batch)
    store.put_meta(KEY, {"events": len(batch)})
    for kind, shard in zip(("drms", "rms"), replayed(batch.iter_events())):
        store.put_shard(KEY, kind, shard)
    assert main(["doctor", "--store", store.root]) == 0
    assert "shards:    2 (0 corrupt, 0 stale)" in capsys.readouterr().out


def test_compact_meta(tmp_path):
    store = TraceStore(str(tmp_path))
    store.put_meta(KEY, {"events": 3, "replays": {"nulgrind": 1.5}})
    with open(store.meta_path(KEY)) as handle:
        assert handle.read() == '{"events":3,"replays":{"nulgrind":1.5}}'


# -- what encoding refuses ----------------------------------------------------


def test_encoding_refuses_a_type_outside_the_allow_list(tmp_path):
    drms, _rms = replayed(_trace())
    drms.metrics = object()
    store = TraceStore(str(tmp_path))
    with pytest.raises(TypeError, match="cannot hold"):
        store.put_shard(KEY, "drms", drms)
    with pytest.raises(TypeError):
        encode_shard("drms", SHARD_VERSION, {1, 2})

    class PointStats(profiles.PointStats):
        """Named like an allow-listed class, but not that class."""

    with pytest.raises(TypeError, match="cannot hold"):
        encode_shard("drms", SHARD_VERSION, [PointStats()])
    assert not any(
        name.endswith(".shard.pkl")
        for _dir, _sub, files in os.walk(store.root)
        for name in files
    )


def test_encoding_refuses_a_non_empty_shadow_memory():
    memory = ShadowMemory()
    memory[5] = 1
    with pytest.raises(ValueError, match="empty shadow"):
        encode_shard("drms", SHARD_VERSION, {"wts": memory})
    assert encode_shard("drms", SHARD_VERSION, {"wts": ShadowMemory()})


def test_shadow_geometry_round_trips_and_is_bounded(tmp_path):
    store = TraceStore(str(tmp_path))
    memory = ShadowMemory(default=3, top_bits=4, mid_bits=5, leaf_bits=7)
    store.put_shard(KEY, "mem", [memory])
    (loaded,) = store.get_shard(KEY, "mem")
    assert (loaded.default, loaded._top_bits, loaded._mid_bits) == (3, 4, 5)
    assert loaded.leaf_bits == 7 and loaded.chunks_allocated == 0
    write(store, "mem", envelope({"M": [0, 14, 10, 60]}, kind="mem"))
    assert store.get_shard(KEY, "mem") is None
    assert store.sidecar_stats()["sidecar_corrupt"] == 1
    with pytest.raises(ValueError):
        encode_shard("mem", SHARD_VERSION, ShadowMemory(leaf_bits=17))


def test_tree_keeps_tuples_lists_and_non_string_keys(tmp_path):
    store = TraceStore(str(tmp_path))
    value = {
        (1, "a"): [1, 2.5, None, True, "s"],
        7: (),
        "k": {(): []},
        -3: float("inf"),
    }
    store.put_shard(KEY, "tree", value)
    loaded = store.get_shard(KEY, "tree")
    assert loaded == value
    assert list(loaded) == list(value)
    assert type(loaded[7]) is tuple and type(loaded[(1, "a")]) is list
    assert type(loaded[(1, "a")][3]) is bool
