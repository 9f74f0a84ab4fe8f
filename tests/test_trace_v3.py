"""Zero-copy parallel replay (PR 10 tentpole).

Three load-bearing properties (pooled exactness on every trace shape
is ``test_exactness.py``'s ``pooled`` cells):

* **wire equivalence** — the fused v4 sections the writer stores and
  the retired one-row-per-event v3/v2 layouts (still readable) are
  interchangeable: the same events round-trip through all three, byte
  scans agree, and a torn tail at *every* byte offset salvages a clean
  section prefix, never raises, and replays (at ``counter_limit=64``)
  identically to the same prefix of the original trace.
* **pooled exactness** — partitioned replay with real pool workers
  produces profiles byte-identical to the serial replay and the naive
  oracle for both profiler kinds at 1-8 partitions, fill-heavy traces
  included, and leaves zero live segments behind.
* **crash cleanup** — a worker SIGKILLed mid-replay degrades cleanly
  and leaves ``/dev/shm`` exactly as it was found (as does a whole
  process SIGKILLed while owning a shared-memory segment): no leaked
  segments, no orphan files.
"""

import functools
import os
import signal
import struct
import subprocess
import sys
import textwrap
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FULL_POLICY, DrmsProfiler, NaiveDrmsProfiler
from repro.core.codec import SECTION_HEADER_V3, encode_section_payload
from repro.core.events import EventBatch, encode_events, scan_batch_bytes
from repro.core.tracefile import TRACE_FORMAT_VERSION, trace_section_stats
from repro.tools.partition import _KILL_ENV, replay_partitioned
from repro.tools.pool import (
    active_segments,
    reap_stale_segments,
    shm_available,
)
from tests.strategies import (
    concat_runs,
    multi_run_trace,
    profile_state,
    read_counts,
    serial_profilers,
)

_SHM_DIR = "/dev/shm"


def shm_listing():
    """Current repro-owned entries in /dev/shm (empty set where the
    platform keeps shm elsewhere)."""
    try:
        return {
            name
            for name in os.listdir(_SHM_DIR)
            if name.startswith("repro-shm")
        }
    except OSError:
        return set()


# -- v3 <-> v2 wire equivalence ----------------------------------------------


def legacy_bytes(batch, version, section_events, boundaries=(), compress=True):
    """A test-local writer of the retired one-row-per-event layouts:
    v2 (fixed 25-byte rows) and v3 (the columnar codec, with no
    logical-event field in the section header).  Readers still accept
    both; nothing in the program writes them any more."""
    names = [struct.pack("<I", len(batch.names))]
    for name in batch.names:
        raw = name.encode("utf-8")
        names += [struct.pack("<I", len(raw)), raw]
    names_payload = b"".join(names)
    n = len(batch)
    parts = [
        b"RPRB\x02" if version == 2 else b"RPRB\x03",
        struct.pack("<I", len(names_payload)),
        names_payload,
        struct.pack("<I", zlib.crc32(names_payload)),
        struct.pack("<Q", n),
    ]
    cuts = sorted({b for b in boundaries if 0 < b < n}) + [n]
    lo = 0
    for hi in cuts:
        for start in range(lo, hi, section_events):
            stop = min(start + section_events, hi)
            ops_b = batch.ops[start:stop].tobytes()
            if version == 2:
                payload = ops_b + b"".join(
                    lane[start:stop].tobytes()
                    for lane in (batch.threads, batch.args, batch.costs)
                )
                parts.append(struct.pack("<Q", stop - start))
            else:
                flags, payload = encode_section_payload(
                    ops_b,
                    batch.threads[start:stop],
                    batch.args[start:stop],
                    batch.costs[start:stop],
                    compress=compress,
                )
                parts.append(
                    SECTION_HEADER_V3.pack(
                        stop - start, flags, ops_b.count(0), ops_b.count(1),
                        len(payload),
                    )
                )
            parts += [payload, struct.pack("<I", zlib.crc32(payload))]
        lo = hi
    return b"".join(parts)


@given(multi_run_trace(), st.integers(4, 64), st.booleans())
@settings(max_examples=40, deadline=None)
def test_v3_v2_round_trip(trace, section_events, compress):
    """The written v4 trace and the retired v3/v2 layouts of the same
    events read back as one stream; v3 and v2 hold one row per event."""
    events, bounds = trace
    batch = encode_events(events)
    v4 = batch.to_bytes(
        section_events=section_events, boundaries=bounds, compress=compress
    )
    v3 = legacy_bytes(batch, 3, section_events, bounds, compress)
    v2 = legacy_bytes(batch, 2, section_events, bounds)
    from_v4 = EventBatch.from_bytes(v4)
    from_v3 = EventBatch.from_bytes(v3)
    from_v2 = EventBatch.from_bytes(v2)
    assert list(from_v4.iter_events()) == list(batch.iter_events())
    assert list(from_v3.iter_events()) == list(from_v4.iter_events())
    assert list(from_v2.iter_events()) == list(from_v4.iter_events())
    assert from_v3.ops == from_v2.ops == batch.ops
    assert from_v4.names == from_v3.names == batch.names
    scan4, scan3, scan2 = (scan_batch_bytes(d) for d in (v4, v3, v2))
    assert scan4.intact and scan3.intact and scan2.intact
    assert scan4.version == TRACE_FORMAT_VERSION == 4
    assert (scan3.version, scan2.version) == (3, 2)
    assert (
        scan4.events_loaded
        == scan3.events_loaded
        == scan2.events_loaded
        == len(batch)
    )
    # re-encoding what any version decodes to is one fixed point
    assert from_v4.to_bytes(
        section_events=section_events, compress=compress
    ) == from_v3.to_bytes(section_events=section_events, compress=compress)


@given(multi_run_trace())
@settings(max_examples=10, deadline=None)
def test_v3_torn_tail_at_every_byte_offset(trace):
    """Truncation anywhere in a v3 file is survivable: the scan never
    raises, salvages a whole-section prefix of the original events, and
    that prefix replays (counter_limit=64) exactly like the same prefix
    of the untruncated trace."""
    events, bounds = trace
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=8, boundaries=bounds)
    original = list(batch.iter_events())
    # section event counts give the set of legal salvage points
    stats = trace_section_stats(payload)
    prefix_counts = {0}
    running = 0
    for stat in stats:
        running += stat.events
        prefix_counts.add(running)
    replayed = {}

    def snapshot(count):
        if count not in replayed:
            prof = DrmsProfiler(
                policy=FULL_POLICY, counter_limit=64, keep_activations=False
            )
            prof.run(original[:count])
            # no begin_trace(): a torn prefix may end mid-activation
            replayed[count] = prof.metrics_snapshot()
        return replayed[count]

    for cut in range(len(payload) + 1):
        scan = scan_batch_bytes(payload[:cut])
        loaded = scan.events_loaded
        assert loaded in prefix_counts, (cut, loaded)
        assert loaded <= len(original)
        if cut >= len(payload):
            assert scan.intact and loaded == len(original)
        got = list(scan.batch.iter_events())
        assert got == original[:loaded], f"cut at byte {cut}"
        prof = DrmsProfiler(
            policy=FULL_POLICY, counter_limit=64, keep_activations=False
        )
        prof.consume_columnar(scan.batch)
        assert prof.metrics_snapshot() == snapshot(loaded)


# -- pooled exactness ---------------------------------------------------------


@pytest.fixture
def force_pool(monkeypatch):
    """Pool workers even on a 1-CPU box (where the engine would
    otherwise inline), so the pooled replay is actually exercised."""
    monkeypatch.setenv("REPRO_PARTITION_FORCE_POOL", "1")


@pytest.mark.parametrize("n_parts", [1, 2, 3, 5, 8])
def test_partitioned_over_shm_equals_serial_and_oracle(
    force_pool, n_parts
):
    # deterministic multi-run trace built from the shared workload
    from repro.core.tracing import with_switches
    from repro.workloads.registry import get_workload

    machine = get_workload("producer_consumer").build(threads=3, scale=2)
    machine.run()
    run = with_switches(machine.trace)
    events, bounds = concat_runs([run] * 6)
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=64, boundaries=bounds)

    before = shm_listing()
    rep = replay_partitioned(
        payload,
        partitions=n_parts,
        kinds=("drms", "rms"),
        workers=2,
        timeout=120.0,
    )
    assert not rep.degradations
    serial_drms, serial_rms = serial_profilers(batch)
    assert (
        rep.profilers["drms"].metrics_snapshot()
        == serial_drms.metrics_snapshot()
    )
    assert (
        rep.profilers["rms"].metrics_snapshot()
        == serial_rms.metrics_snapshot()
    )
    assert profile_state(rep.profilers["drms"].profiles) == profile_state(
        serial_drms.profiles
    )
    assert read_counts(rep.profilers["drms"]) == read_counts(serial_drms)
    oracle = NaiveDrmsProfiler(policy=FULL_POLICY)
    oracle.run(events)
    assert profile_state(rep.profilers["drms"].profiles) == profile_state(
        oracle.profiles
    )
    assert read_counts(rep.profilers["drms"]) == read_counts(oracle)
    # cleanup: no segment left mapped or on disk
    assert active_segments() == 0
    assert shm_listing() == before


@functools.lru_cache(maxsize=1)
def _mysql_select_x4():
    """Figure 4's ``mysql_select`` run ×4 with run boundaries — about
    half its events are kernel fills — plus its serial scalar profiles
    and the oracle's."""
    from repro.core.tracing import with_switches
    from repro.workloads.registry import get_workload

    machine = get_workload("mysql_select").build(threads=4, scale=1)
    machine.run()
    run = with_switches(machine.trace)
    events, bounds = concat_runs([run] * 4)
    batch = encode_events(events)
    payload = batch.to_bytes(boundaries=bounds)
    serial_drms, serial_rms = serial_profilers(batch)
    oracle = NaiveDrmsProfiler(policy=FULL_POLICY)
    oracle.run(events)
    return payload, serial_drms, serial_rms, oracle


@pytest.mark.parametrize("engine", ["scalar", "columnar"])
@pytest.mark.parametrize("n_parts", [2, 3, 4])
def test_fill_heavy_trace_partitioned_equals_serial_and_oracle(
    force_pool, n_parts, engine
):
    payload, serial_drms, serial_rms, oracle = _mysql_select_x4()
    before = shm_listing()
    rep = replay_partitioned(
        payload,
        partitions=n_parts,
        kinds=("drms", "rms"),
        engine=engine,
        workers=2,
        timeout=120.0,
    )
    assert not rep.degradations
    assert len(rep.plan.partitions) == n_parts
    drms, rms = rep.profilers["drms"], rep.profilers["rms"]
    assert drms.metrics_snapshot() == serial_drms.metrics_snapshot()
    assert rms.metrics_snapshot() == serial_rms.metrics_snapshot()
    assert profile_state(drms.profiles) == profile_state(serial_drms.profiles)
    assert profile_state(drms.profiles) == profile_state(oracle.profiles)
    assert read_counts(drms) == read_counts(oracle)
    assert read_counts(oracle)["mysql_select"][2] > 0  # kernel-induced reads
    assert active_segments() == 0
    assert shm_listing() == before


# -- crash cleanup ------------------------------------------------------------


def test_sigkill_mid_replay_leaves_no_segments_or_orphans(monkeypatch):
    """A worker SIGKILLed mid-partition degrades per the supervision
    discipline, the merged profile stays exact, and no segment is left
    live or on disk afterwards, on the degradation path too."""
    from repro.core.tracing import with_switches
    from repro.workloads.registry import get_workload

    machine = get_workload("producer_consumer").build(threads=2, scale=2)
    machine.run()
    run = with_switches(machine.trace)
    events, bounds = concat_runs([run] * 4)
    batch = encode_events(events)
    payload = batch.to_bytes(section_events=64, boundaries=bounds)

    before = shm_listing()
    monkeypatch.setenv(_KILL_ENV, "1")  # SIGKILL-equivalent in partition 1
    rep = replay_partitioned(
        payload,
        partitions=3,
        kinds=("drms",),
        workers=2,
        timeout=60.0,
        max_retries=1,
        backoff_base=0.01,
    )
    serial_drms, _ = serial_profilers(batch)
    assert (
        rep.profilers["drms"].metrics_snapshot()
        == serial_drms.metrics_snapshot()
    )
    assert rep.degradations  # the kill was real
    assert active_segments() == 0
    assert shm_listing() == before


@pytest.mark.skipif(not shm_available(), reason="no working shared memory")
def test_reaper_collects_segments_of_sigkilled_process():
    """The cross-run backstop: a process SIGKILLed while *owning* a
    segment (atexit never runs) leaves a pid-stamped file that the next
    repro process reaps."""
    src = textwrap.dedent(
        """
        import os, sys, time
        sys.path.insert(0, %r)
        from repro.tools.pool import SharedTrace
        seg = SharedTrace(b"x" * 4096)
        print(seg.name, flush=True)
        time.sleep(60)
        """
    ) % os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", src],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        name = proc.stdout.readline().strip()
        assert name.startswith("repro-shm-")
        assert name in shm_listing()
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        # the file survived the kill (atexit never ran) ...
        assert name in shm_listing()
        # ... and the reaper, seeing its owner pid dead, unlinks it
        reaped = reap_stale_segments()
        assert name in reaped
        assert name not in shm_listing()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)


@pytest.mark.skipif(not shm_available(), reason="no working shared memory")
def test_pool_warmed_before_first_segment_leaves_tracker_quiet():
    """Workers forked before the first segment exists share the
    creator's resource tracker, so exit leaves no tracker warnings
    about segments the creator already unlinked."""
    src = textwrap.dedent(
        """
        import os, sys
        sys.path.insert(0, %r)
        from repro.core.events import Call, Read, Return, SwitchThread
        from repro.core.events import encode_events
        from repro.tools.partition import replay_partitioned
        from repro.tools.pool import get_pool

        events, bounds = [], []
        for k in range(4):
            if events:
                bounds.append(len(events))
                events.append(SwitchThread())
            events += [Call(1, "run%%d" %% k)]
            events += [Read(1, 0x100 * k + i) for i in range(12)]
            events += [Return(1)]
        payload = encode_events(events).to_bytes(
            section_events=4, boundaries=bounds
        )
        pool = get_pool().ensure(2)
        for future in [pool.submit(os.getpid) for _ in range(2)]:
            future.result()
        rep = replay_partitioned(
            payload, partitions=4, kinds=("drms",), workers=2
        )
        assert not rep.degradations
        print("replayed", len(rep.plan.partitions))
        """
    ) % os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, REPRO_PARTITION_FORCE_POOL="1")
    proc = subprocess.run(
        [sys.executable, "-c", src],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "replayed 4" in proc.stdout
    assert "resource_tracker" not in proc.stderr
