"""Crash-safe binary trace format: CRC sections, strict/lenient
loading, longest-valid-prefix recovery, rejection of the retired v1
layout, error hygiene on garbage streams, and the ``repro doctor``
CLI."""

import io
import struct

import pytest

from repro.cli import main
from repro.core.events import (
    Call,
    EventBatch,
    Read,
    Return,
    SwitchThread,
    TraceIntegrityError,
    Write,
    decode_batch,
    encode_events,
    scan_batch_bytes,
)
from repro.core.tracefile import (
    TRACE_FORMAT_VERSION,
    TraceFormatError,
    load_batch,
    load_trace_binary,
    save_trace_binary,
    scan_trace,
)


def sample_events(n=100):
    events = [Call(1, "rtn", 0)]
    for i in range(n):
        events.append(Read(1, 100 + i) if i % 2 else Write(1, 200 + i))
        if i % 10 == 9:
            events.append(SwitchThread())
    events.append(Return(1, n))
    return events


def v2_bytes(events, section_events=16):
    return encode_events(events).to_bytes(section_events=section_events)


def v1_bytes(events):
    """Serialise in the retired v1 layout (no checksums, no sections),
    which every reader now rejects as an unknown magic."""
    batch = encode_events(events)
    parts = [b"RPRB\x01", struct.pack("<I", len(batch.names))]
    for name in batch.names:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    parts.append(struct.pack("<Q", len(batch.ops)))
    for arr in (batch.ops, batch.threads, batch.args, batch.costs):
        parts.append(arr.tobytes())
    return b"".join(parts)


class TestV2Roundtrip:
    def test_roundtrip(self):
        events = sample_events()
        assert decode_batch(EventBatch.from_bytes(v2_bytes(events))) == events

    def test_roundtrip_single_section(self):
        events = sample_events(5)
        data = encode_events(events).to_bytes()
        assert decode_batch(EventBatch.from_bytes(data)) == events

    def test_empty_batch(self):
        assert len(EventBatch.from_bytes(EventBatch().to_bytes())) == 0

    def test_scan_reports_intact(self):
        events = sample_events()
        data = v2_bytes(events)
        scan = scan_batch_bytes(data)
        assert scan.intact
        assert scan.version == TRACE_FORMAT_VERSION
        assert scan.error is None
        assert scan.declared_events == scan.events_loaded == len(
            encode_events(events)
        )
        assert scan.valid_bytes == len(data)

    def test_section_events_validation(self):
        with pytest.raises(ValueError):
            EventBatch().to_bytes(section_events=0)


class TestCorruptionRecovery:
    def test_truncation_strict_raises_with_offset(self):
        data = v2_bytes(sample_events())
        with pytest.raises(TraceIntegrityError) as info:
            EventBatch.from_bytes(data[:-40])
        assert info.value.offset > 0
        assert "at byte" in str(info.value)

    def test_truncation_lenient_salvages_prefix(self):
        events = sample_events()
        data = v2_bytes(events)
        salvaged = EventBatch.from_bytes(data[:-40], lenient=True)
        assert 0 < len(salvaged) < len(encode_events(events))
        assert decode_batch(salvaged) == events[: len(salvaged)]

    def test_bitflip_stops_at_corrupt_section(self):
        events = sample_events()
        data = bytearray(v2_bytes(events))
        data[len(data) // 2] ^= 0xFF
        scan = scan_batch_bytes(bytes(data))
        assert not scan.intact
        assert "CRC mismatch" in str(scan.error)
        assert 0 < scan.events_loaded < scan.declared_events
        # the salvaged prefix decodes to a prefix of the original
        assert decode_batch(scan.batch) == events[: len(scan.batch)]

    def test_corrupt_name_table_detected(self):
        data = bytearray(v2_bytes(sample_events()))
        data[9] ^= 0x01  # inside the names payload
        scan = scan_batch_bytes(bytes(data))
        assert not scan.intact
        assert "name table" in str(scan.error)
        assert len(scan.batch) == 0  # nothing decodable without names

    def test_every_truncation_point_is_handled(self):
        """No truncation length may leak a raw struct.error/IndexError."""
        data = v2_bytes(sample_events(30), section_events=8)
        for cut in range(len(data)):
            scan = scan_batch_bytes(data[:cut])
            assert scan.error is not None
            decode_batch(scan.batch)  # salvage always decodes

    def test_trailing_garbage_flagged(self):
        scan = scan_batch_bytes(v2_bytes(sample_events()) + b"tail")
        assert not scan.intact
        assert "trailing" in str(scan.error)


class TestSectionAccounting:
    def test_intact_scan_lists_every_section(self):
        events = sample_events(30)
        scan = scan_batch_bytes(v2_bytes(events, section_events=8))
        assert scan.sections_valid == len(scan.section_events)
        assert sum(scan.section_events) == scan.events_loaded
        assert all(0 < n <= 8 for n in scan.section_events)
        assert scan.error_section is None

    def test_corrupt_scan_names_the_damaged_section(self):
        data = bytearray(v2_bytes(sample_events(), section_events=16))
        data[len(data) // 2] ^= 0xFF
        scan = scan_batch_bytes(bytes(data))
        assert not scan.intact
        assert scan.error_section == scan.sections_valid
        assert len(scan.section_events) == scan.sections_valid
        assert sum(scan.section_events) == scan.events_loaded


class TestErrorHygiene:
    """Satellite: loaders raise TraceFormatError with offset context,
    never raw struct.error / IndexError."""

    def test_garbage_stream(self):
        for junk in (b"", b"x", b"garbage garbage", b"RPRB\xff rest"):
            with pytest.raises(TraceFormatError):
                load_batch(io.BytesIO(junk))

    def test_truncated_v1_stream(self):
        data = v1_bytes(sample_events())
        for cut in range(0, len(data), 7):
            try:
                load_trace_binary(io.BytesIO(data[:cut]))
            except TraceFormatError as exc:
                assert exc.offset >= 0
            # no other exception type may escape

    def test_v1_scan_verdict(self):
        """v1 is retired: its magic is unknown to the one section
        parser, so the scan rejects it before any section."""
        scan = scan_batch_bytes(v1_bytes(sample_events()))
        assert not scan.intact and scan.version == 0
        assert "bad magic" in str(scan.error)
        assert scan.section_events == [] and scan.error_section is None

    def test_lenient_load_of_garbage_is_empty(self):
        assert len(load_batch(io.BytesIO(b"junk"), strict=False)) == 0

    def test_scan_trace_wrapper(self):
        events = sample_events()
        stream = io.BytesIO()
        save_trace_binary(events, stream)
        stream.seek(0)
        assert scan_trace(stream).intact


class TestDoctorCli:
    def trace_file(self, tmp_path, data):
        path = tmp_path / "trace.bin"
        path.write_bytes(data)
        return str(path)

    def test_doctor_intact(self, tmp_path, capsys):
        path = self.trace_file(tmp_path, v2_bytes(sample_events()))
        assert main(["doctor", "--trace", path]) == 0
        out = capsys.readouterr().out
        assert "intact" in out and f"v{TRACE_FORMAT_VERSION}" in out

    def test_doctor_intact_lists_sections(self, tmp_path, capsys):
        path = self.trace_file(
            tmp_path, v2_bytes(sample_events(30), section_events=8)
        )
        assert main(["doctor", "--trace", path]) == 0
        out = capsys.readouterr().out
        assert "section   0:" in out
        assert "salvaged" in out

    def test_doctor_corrupt_exit_code_and_recovery(self, tmp_path, capsys):
        events = sample_events()
        data = v2_bytes(events)
        path = self.trace_file(tmp_path, data[: len(data) * 2 // 3])
        out_path = str(tmp_path / "recovered.bin")
        assert main(["doctor", "--trace", path, "--recover", out_path]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "in section" in out  # names the damaged section index
        with open(out_path, "rb") as handle:
            recovered = load_trace_binary(handle)
        assert recovered == events[: len(recovered)]
        assert main(["doctor", "--trace", out_path]) == 0

    def test_doctor_missing_file(self, tmp_path, capsys):
        assert main(["doctor", "--trace", str(tmp_path / "nope.bin")]) == 2

    def test_doctor_prints_carried_partition_plan(self, tmp_path, capsys):
        """A single-run multi-section trace now splits mid-activation
        (PR 9 per-thread cuts) and the plan prints its carries."""
        path = self.trace_file(
            tmp_path, v2_bytes(sample_events(60), section_events=8)
        )
        assert main(["doctor", "--trace", path, "--partitions", "4"]) == 0
        out = capsys.readouterr().out
        assert "partition plan (4-way requested)" in out
        assert "splittable: yes — 4 partition(s)" in out
        assert "mid-activation carry(ies) across cuts" in out
        assert "carry-in [T1x1]" in out
        assert "partition 0: bytes [" in out

    def test_doctor_prints_unsplittable_partition_plan(
        self, tmp_path, capsys
    ):
        """A single-section trace shows *why* it cannot be partitioned."""
        path = self.trace_file(
            tmp_path, v2_bytes(sample_events(60), section_events=128)
        )
        assert main(["doctor", "--trace", path, "--partitions", "4"]) == 0
        out = capsys.readouterr().out
        assert "partition plan (4-way requested)" in out
        assert "splittable: no" in out
        assert "single section" in out
        assert "partition 0: bytes [" in out

    def test_doctor_prints_splittable_partition_plan(self, tmp_path, capsys):
        runs = []
        for k in range(3):
            runs.extend(
                [Call(1, f"run{k}")]
                + [Read(1, 0x100 * k + i) for i in range(10)]
                + [Return(1)]
            )
        batch = encode_events(runs)
        data = batch.to_bytes(section_events=4, boundaries=[12, 24])
        path = self.trace_file(tmp_path, data)
        assert main(["doctor", "--trace", path, "--partitions", "3"]) == 0
        out = capsys.readouterr().out
        assert "splittable: yes — 3 partition(s)" in out
        assert "2 safe depth-zero boundaries" in out
        assert "partition 2: bytes [" in out
        assert "12 event(s)" in out

    def test_doctor_degrades_plan_for_corrupt_trace(self, tmp_path, capsys):
        """A torn trace still plans: a single partition over the valid
        prefix, with the damage named in the reason (PR 9 satellite)."""
        data = v2_bytes(sample_events())
        path = self.trace_file(tmp_path, data[: len(data) * 2 // 3])
        assert main(["doctor", "--trace", path]) == 1
        out = capsys.readouterr().out
        assert "partition plan" in out
        assert "splittable: no — truncated section" in out
        assert "valid prefix" in out

    def test_trace_binary_save_then_doctor(self, tmp_path, capsys):
        path = str(tmp_path / "pc.bin")
        assert (
            main(
                [
                    "trace",
                    "producer_consumer",
                    "--save",
                    path,
                    "--binary",
                ]
            )
            == 0
        )
        assert main(["doctor", "--trace", path]) == 0

    def test_trace_binary_requires_save(self, capsys):
        assert main(["trace", "producer_consumer", "--binary"]) == 2


class TestDoctorStoreCli:
    """``repro doctor --store``: audit a whole trace store (PR 7)."""

    def seeded_store(self, tmp_path):
        from repro.sweep import TraceKey, TraceStore

        root = str(tmp_path / "store")
        store = TraceStore(root)
        key = TraceKey("pc", 1, 4)
        store.put(key, encode_events(sample_events()))
        store.put_meta(key, {"events": 100})
        return root, store, key

    def test_clean_store_exit_zero(self, tmp_path, capsys):
        root, _store, _key = self.seeded_store(tmp_path)
        assert main(["doctor", "--store", root]) == 0
        out = capsys.readouterr().out
        assert "status:    clean" in out
        assert "traces:    1 (0 corrupt)" in out

    def test_dirty_store_flags_then_recovers(self, tmp_path, capsys):
        root, store, key = self.seeded_store(tmp_path)
        with open(store.meta_path(key), "w") as handle:
            handle.write("{torn")
        assert main(["doctor", "--store", root]) == 1
        out = capsys.readouterr().out
        assert "NEEDS RECOVERY" in out
        assert "corrupt meta" in out
        assert main(["doctor", "--store", root, "--recover"]) == 0
        assert main(["doctor", "--store", root]) == 0

    def test_recover_quarantines(self, tmp_path, capsys):
        import os

        root, store, key = self.seeded_store(tmp_path)
        with open(store.meta_path(key), "w") as handle:
            handle.write("{torn")
        assert main(["doctor", "--store", root, "--recover"]) == 0
        out = capsys.readouterr().out
        assert "quarantined 1 file(s)" in out
        assert "clean after recovery" in out
        assert os.path.isdir(os.path.join(root, "quarantine"))
        assert main(["doctor", "--store", root]) == 0

    def test_trace_and_store_are_mutually_exclusive(self, tmp_path, capsys):
        assert main(["doctor"]) == 2
        assert (
            main(
                ["doctor", "--trace", "x", "--store", str(tmp_path)]
            )
            == 2
        )
        assert "exactly one" in capsys.readouterr().err

    def test_bare_recover_rejected_in_trace_mode(self, tmp_path, capsys):
        path = tmp_path / "trace.bin"
        path.write_bytes(v2_bytes(sample_events()))
        assert main(["doctor", "--trace", str(path), "--recover"]) == 2
        assert "OUT path" in capsys.readouterr().err
