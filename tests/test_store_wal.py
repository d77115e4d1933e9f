"""Unit tests for the write-ahead log, its backends, and snapshots."""

import hashlib
import struct
import zlib

import pytest

from repro.common.errors import CorruptRecordError, StoreError
from repro.faults.crash import CrashPlan, CrashPoint, SimulatedCrashError
from repro.store import (
    FileSnapshotStore,
    MemoryLogBackend,
    MemorySnapshotStore,
    WriteAheadLog,
    decode_snapshot,
    encode_frame,
    encode_snapshot,
    scan_frames,
)
from repro.store.wal import (
    DEFLATE_FROM,
    HEADER_SIZE,
    MAGIC,
    FileLogBackend,
    encode_envelope,
)


def make_log(**kwargs):
    return WriteAheadLog(MemoryLogBackend(), **kwargs)


def stored_as_is(payload: bytes) -> bytes:
    """A frame holding ``payload`` itself — all a log held before frames
    were deflated."""
    return struct.pack(">2sII", MAGIC, len(payload), zlib.crc32(payload)) + payload


class TestFraming:
    def test_append_then_scan_round_trips(self):
        log = make_log()
        log.append("token.mint", {"account": "a", "amount": 1.5})
        log.append("token.mint", {"account": "b", "amount": 2.0})
        records = log.records()
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["type"] == "token.mint"
        assert records[1]["data"] == {"account": "b", "amount": 2.0}

    def test_seq_is_monotonic_and_returned(self):
        log = make_log()
        assert log.append("a", {}) == 0
        assert log.append("b", {}) == 1
        assert log.next_seq == 2

    def test_scan_empty_log_is_clean(self):
        result = scan_frames(b"")
        assert result.clean
        assert result.records == []
        assert result.good_length == 0

    def test_torn_header_detected(self):
        frame = encode_frame(encode_envelope(0, "t", {}))
        result = scan_frames(frame + frame[:4])
        assert not result.clean
        assert result.tail_error.reason == "torn header"
        assert result.good_length == len(frame)
        assert len(result.records) == 1

    def test_torn_payload_detected(self):
        frame = encode_frame(encode_envelope(0, "t", {}))
        result = scan_frames(frame[:-3])
        assert result.tail_error.reason == "torn payload"
        assert result.records == []

    def test_crc_mismatch_detected(self):
        frame = bytearray(encode_frame(encode_envelope(0, "t", {})))
        frame[-1] ^= 0xFF
        result = scan_frames(bytes(frame))
        assert result.tail_error.reason == "crc mismatch"

    def test_bad_magic_detected(self):
        frame = bytearray(encode_frame(encode_envelope(0, "t", {})))
        frame[0] ^= 0xFF
        result = scan_frames(bytes(frame))
        assert result.tail_error.reason == "bad magic"

    def test_no_resynchronization_past_first_damage(self):
        good = encode_frame(encode_envelope(0, "t", {}))
        later = encode_frame(encode_envelope(1, "t", {}))
        corrupted = bytearray(good)
        corrupted[-1] ^= 0xFF
        # a fully valid frame AFTER the damage must NOT be trusted
        result = scan_frames(bytes(corrupted) + later)
        assert result.records == []
        assert result.good_length == 0

    def test_strict_scan_raises(self):
        log = make_log()
        log.append("t", {})
        log.backend.append(b"\x00\x01")
        with pytest.raises(CorruptRecordError):
            log.scan(strict=True)


class TestStreamingReplay:
    """``replay``/``truncate_tail``/reopen read frames off the backend's
    own bytes; ``scan`` (which keeps its full result) is the reference."""

    DAMAGE = {
        "clean": lambda raw: raw,
        "torn header": lambda raw: raw + raw[:4],
        "torn payload": lambda raw: raw[:-3],
        "crc mismatch": lambda raw: raw[:-1] + bytes([raw[-1] ^ 0xFF]),
        "bad magic mid-log": lambda raw: (
            raw[: len(raw) // 2] + b"\x00" + raw[len(raw) // 2 + 1 :]
        ),
        "bad envelope": lambda raw: raw + encode_frame(b"[1, 2]"),
        "garbage only": lambda raw: b"garbage",
        "empty": lambda raw: b"",
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_streaming_passes_equal_scan(self, damage):
        log = make_log()
        for i in range(6):
            log.append("t", {"i": i, "pad": "x" * (7 * i)})
        backend = MemoryLogBackend(self.DAMAGE[damage](log.backend.read()))
        reopened = WriteAheadLog(backend)
        scan = reopened.scan()
        assert scan.clean == (damage in ("clean", "empty"))
        assert list(reopened.replay()) == scan.records
        assert list(reopened.replay(after_seq=2)) == [
            r for r in scan.records if r["seq"] > 2
        ]
        assert reopened.records() == scan.records
        expected_next = scan.records[-1]["seq"] + 1 if scan.records else 0
        assert reopened.next_seq == expected_next
        size_before = backend.size()
        assert reopened.truncate_tail() == size_before - scan.good_length
        assert backend.size() == scan.good_length
        assert reopened.next_seq == expected_next
        assert reopened.append("t", {}) == expected_next

    def test_replay_and_truncate_never_copy_the_whole_log(self, monkeypatch):
        log = make_log()
        for i in range(3):
            log.append("t", {"i": i})
        log.backend.append(b"\xd7\xca\x00")

        def no_copy():
            raise AssertionError("whole-log copy requested")

        monkeypatch.setattr(log.backend, "read", no_copy)
        assert [r["seq"] for r in log.replay()] == [0, 1, 2]
        assert log.truncate_tail() == 3
        assert [r["seq"] for r in WriteAheadLog(log.backend).replay(0)] == [1, 2]

    def test_log_cannot_change_under_an_open_replay(self):
        log = make_log()
        for i in range(3):
            log.append("t", {"i": i})
        replay = log.replay()
        assert next(replay)["seq"] == 0
        with pytest.raises(BufferError):
            log.append("t", {"i": 3})
        with pytest.raises(BufferError):
            log.backend.truncate_to(0)
        assert [r["seq"] for r in replay] == [1, 2]
        # exhausted (or closed), the iterator has handed the buffer back
        assert log.append("t", {"i": 3}) == 3
        abandoned = log.replay()
        next(abandoned)
        abandoned.close()
        assert log.append("t", {"i": 4}) == 4

    def test_damaged_scan_result_does_not_pin_the_buffer(self):
        log = make_log()
        log.append("t", {})
        log.backend.append(b"\xd7\xca\x00")
        result = log.scan()  # keeps the CorruptRecordError and its traceback
        assert not result.clean
        assert log.truncate_tail() == 3
        assert log.append("t", {}) == 1

    def test_compact_keeps_frames_verbatim_from_a_view(self):
        log = make_log()
        for i in range(4):
            log.append("t", {"i": i})
        before = log.backend.read()
        frames = log.scan().frames
        assert all(isinstance(frame, bytes) for frame in frames)
        assert b"".join(frames) == before
        log.compact(upto_seq=1)
        assert log.backend.read() == b"".join(frames[2:])


class TestTruncateAndCompact:
    def test_truncate_tail_repairs_and_reports_bytes(self):
        log = make_log()
        log.append("t", {"i": 1})
        log.backend.append(b"\xd7\xca\x00")  # torn header
        fresh = WriteAheadLog(log.backend)
        assert fresh.truncate_tail() == 3
        assert fresh.scan().clean
        assert len(fresh.records()) == 1

    def test_append_refused_while_tail_damaged(self):
        log = make_log()
        log.append("t", {})
        log.backend.append(b"\xff\xff")
        damaged = WriteAheadLog(log.backend)
        with pytest.raises(StoreError):
            damaged.append("t", {})
        damaged.truncate_tail()
        assert damaged.append("t", {}) == 1

    def test_compact_drops_prefix_and_preserves_seq(self):
        log = make_log()
        for i in range(5):
            log.append("t", {"i": i})
        assert log.compact(upto_seq=2) == 3
        records = log.records()
        assert [r["seq"] for r in records] == [3, 4]
        # appends after compaction keep counting from where seq left off
        assert log.append("t", {}) == 5

    def test_records_after_seq_filter(self):
        log = make_log()
        for i in range(4):
            log.append("t", {"i": i})
        assert [r["seq"] for r in log.records(after_seq=1)] == [2, 3]

    def test_oversize_record_rejected(self):
        with pytest.raises(StoreError):
            encode_frame(b"x" * (64 * 1024 * 1024 + 1))


class TestDeflatedFrames:
    """Large payloads are stored as zlib streams; the record read back is
    the record written, whichever way its frame holds it."""

    #: hex, like the ciphertexts, keys and signatures a node journals
    BIG = {"box": bytes(range(256)).hex() * 3}

    def test_large_payload_is_stored_deflated_and_reads_back(self):
        payload = encode_envelope(0, "mempool.admit", self.BIG)
        assert len(payload) >= DEFLATE_FROM
        frame = encode_frame(payload)
        assert len(frame) < HEADER_SIZE + len(payload)
        assert zlib.decompress(frame[HEADER_SIZE:]) == payload
        assert scan_frames(frame).records == [
            {"seq": 0, "type": "mempool.admit", "data": self.BIG}
        ]

    def test_small_or_incompressible_payload_is_stored_as_is(self):
        small = encode_envelope(0, "round.phase", {"phase": "seal"})
        assert len(small) < DEFLATE_FROM
        assert encode_frame(small) == stored_as_is(small)
        noise = b"".join(
            hashlib.sha256(bytes([i])).digest() for i in range(DEFLATE_FROM // 16)
        )
        assert len(zlib.compress(noise, 1)) >= len(noise)
        assert encode_frame(noise) == stored_as_is(noise)

    def test_log_of_frames_stored_as_is_reads_unchanged(self):
        # a log written before frames were deflated, then appended to
        records = [("mempool.admit", self.BIG), ("round.phase", {"phase": "seal"})]
        old = b"".join(
            stored_as_is(encode_envelope(seq, kind, data))
            for seq, (kind, data) in enumerate(records)
        )
        log = WriteAheadLog(MemoryLogBackend(old))
        assert log.scan().clean and log.next_seq == 2
        log.append("mempool.admit", self.BIG)
        assert [(r["type"], r["data"]) for r in log.records()] == records + [
            ("mempool.admit", self.BIG)
        ]
        assert log.backend.size() < len(old) + len(old)

    def test_damaged_stream_under_a_valid_crc_is_a_bad_envelope(self):
        good = encode_frame(encode_envelope(0, "t", {}))
        stream = zlib.compress(encode_envelope(1, "mempool.admit", self.BIG), 1)
        for damaged in (
            stream[:-6],  # cut short
            stream[:2] + bytes(len(stream) - 2),  # not a deflate stream
            stream + b"trailing",
            zlib.compress(b"[1, 2]" * 200, 1),  # inflates, not an envelope
        ):
            result = scan_frames(good + stored_as_is(damaged))
            assert [r["seq"] for r in result.records] == [0]
            assert result.good_length == len(good)
            assert result.tail_error.reason == "bad envelope"

    def test_stream_inflating_past_the_frame_limit_is_refused(self, monkeypatch):
        from repro.store import wal

        payload = encode_envelope(0, "mempool.admit", self.BIG)
        frame = encode_frame(payload)
        assert scan_frames(frame).clean
        stored = len(frame) - HEADER_SIZE
        monkeypatch.setattr(wal, "MAX_RECORD_BYTES", (stored + len(payload)) // 2)
        assert scan_frames(frame).tail_error.reason == "bad envelope"


class TestFileBackend:
    def test_round_trip_and_reopen(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(FileLogBackend(path))
        log.append("t", {"i": 1})
        log.append("t", {"i": 2})
        log.close()
        reopened = WriteAheadLog(FileLogBackend(path))
        assert [r["data"]["i"] for r in reopened.records()] == [1, 2]
        assert reopened.next_seq == 2
        reopened.close()

    def test_truncate_and_compact_on_disk(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(FileLogBackend(path))
        for i in range(3):
            log.append("t", {"i": i})
        log.backend.append(b"garbage-tail")
        log.close()
        recovered = WriteAheadLog(FileLogBackend(path))
        assert recovered.truncate_tail() == len(b"garbage-tail")
        assert recovered.compact(upto_seq=0) == 1
        assert [r["seq"] for r in recovered.records()] == [1, 2]
        recovered.close()


class TestSnapshotStores:
    def test_memory_snapshot_keeps_latest(self):
        store = MemorySnapshotStore(keep=2)
        assert store.latest() is None
        store.save(3, encode_snapshot({"x": 1}, 3))
        store.save(7, encode_snapshot({"x": 2}, 7))
        state, seq = decode_snapshot(store.latest())
        assert (state, seq) == ({"x": 2}, 7)

    def test_file_snapshot_prunes_beyond_keep(self, tmp_path):
        store = FileSnapshotStore(str(tmp_path / "snaps"), keep=2)
        for seq in (1, 2, 3):
            store.save(seq, encode_snapshot({"seq": seq}, seq))
        state, seq = decode_snapshot(store.latest())
        assert seq == 3
        kept = sorted(p.name for p in (tmp_path / "snaps").iterdir())
        assert len(kept) == 2

    def test_corrupt_snapshot_raises_store_error(self):
        with pytest.raises(StoreError):
            decode_snapshot(b"not json at all")


class TestCrashPoints:
    def test_clean_crash_persists_full_frame(self):
        point = CrashPoint(at_append=1, mode="clean")
        log = make_log(crash_point=point)
        log.append("t", {"i": 0})
        with pytest.raises(SimulatedCrashError):
            log.append("t", {"i": 1})
        assert point.fired
        # both records durable: the crash hit after the boundary
        assert [r["seq"] for r in scan_frames(log.backend.read()).records] == [0, 1]

    def test_torn_crash_leaves_torn_tail(self):
        point = CrashPoint(at_append=1, mode="torn", torn_fraction=0.5)
        log = make_log(crash_point=point)
        log.append("t", {"i": 0})
        with pytest.raises(SimulatedCrashError):
            log.append("t", {"i": 1})
        result = scan_frames(log.backend.read())
        assert not result.clean
        assert len(result.records) == 1

    def test_corrupt_crash_fails_crc(self):
        point = CrashPoint(at_append=0, mode="corrupt")
        log = make_log(crash_point=point)
        with pytest.raises(SimulatedCrashError):
            log.append("t", {"i": 0})
        result = scan_frames(log.backend.read())
        assert result.records == []
        assert result.tail_error is not None

    def test_crash_point_fires_exactly_once(self):
        point = CrashPoint(at_append=0, mode="clean")
        log = make_log(crash_point=point)
        with pytest.raises(SimulatedCrashError):
            log.append("t", {})
        recovered = WriteAheadLog(log.backend, crash_point=point)
        recovered.truncate_tail()
        # the same (fired) point never kills the restarted process
        assert recovered.append("t", {}) == 1

    def test_simulated_crash_is_not_a_repro_error(self):
        from repro.common.errors import ReproError

        assert not issubclass(SimulatedCrashError, ReproError)

    def test_crash_plan_enumerates_every_boundary_and_mode(self):
        plan = CrashPlan(append_count=3, modes=("clean", "torn"))
        points = list(plan.points())
        assert len(points) == len(plan) == 6
        assert {(p.at_append, p.mode) for p in points} == {
            (i, m) for i in range(3) for m in ("clean", "torn")
        }
