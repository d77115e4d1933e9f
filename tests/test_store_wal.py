"""Unit tests for the write-ahead log, its backends, and snapshots."""

import json
import struct
import zlib

import pytest

from repro.common.errors import CorruptRecordError, RecoveryError, StoreError
from repro.cryptosim.hashing import canonical_json
from repro.faults.crash import CrashPlan, CrashPoint, SimulatedCrashError
from repro.store import (
    FileSnapshotStore,
    MemoryLogBackend,
    MemorySnapshotStore,
    NodeStore,
    WriteAheadLog,
    decode_snapshot,
    encode_frame,
    encode_snapshot,
    scan_frames,
)
from repro.store.wal import (
    HEADER_SIZE,
    MAGIC,
    WAL_FORMAT,
    FileLogBackend,
    encode_envelope,
)

#: a control record type: its body is canonical JSON
T = "round.phase"


def make_log(**kwargs):
    return WriteAheadLog(MemoryLogBackend(), **kwargs)


def body(**data) -> bytes:
    """A control record's body, as ``NodeStore.log`` writes it."""
    return canonical_json(data)


def frame(seq: int) -> bytes:
    return encode_frame(encode_envelope(seq, T, b"{}"))


def stored_as_is(payload: bytes) -> bytes:
    """A frame of ``payload`` with a valid CRC, whatever it holds."""
    return struct.pack(">2sII", MAGIC, len(payload), zlib.crc32(payload)) + payload


class TestFraming:
    def test_append_then_scan_round_trips(self):
        log = make_log()
        log.append("token.mint", body(account="a", amount=1.5))
        log.append("token.mint", body(account="b", amount=2.0))
        records = log.records()
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["type"] == "token.mint"
        assert json.loads(records[1]["data"]) == {"account": "b", "amount": 2.0}

    def test_seq_is_monotonic_and_returned(self):
        log = make_log()
        assert log.append(T, b"{}") == 0
        assert log.append("token.mint", b"{}") == 1
        assert log.next_seq == 2

    def test_scan_empty_log_is_clean(self):
        result = scan_frames(b"")
        assert result.clean
        assert result.records == []
        assert result.good_length == 0

    def test_torn_header_detected(self):
        whole = frame(0)
        result = scan_frames(whole + whole[:4])
        assert not result.clean
        assert result.tail_error.reason == "torn header"
        assert result.good_length == len(whole)
        assert len(result.records) == 1

    def test_torn_payload_detected(self):
        result = scan_frames(frame(0)[:-3])
        assert result.tail_error.reason == "torn payload"
        assert result.records == []

    def test_crc_mismatch_detected(self):
        damaged = bytearray(frame(0))
        damaged[-1] ^= 0xFF
        result = scan_frames(bytes(damaged))
        assert result.tail_error.reason == "crc mismatch"

    def test_bad_magic_detected(self):
        damaged = bytearray(frame(0))
        damaged[0] ^= 0xFF
        result = scan_frames(bytes(damaged))
        assert result.tail_error.reason == "bad magic"

    def test_no_resynchronization_past_first_damage(self):
        good = frame(0)
        later = frame(1)
        corrupted = bytearray(good)
        corrupted[-1] ^= 0xFF
        # a fully valid frame AFTER the damage must NOT be trusted
        result = scan_frames(bytes(corrupted) + later)
        assert result.records == []
        assert result.good_length == 0

    def test_strict_scan_raises(self):
        log = make_log()
        log.append(T, b"{}")
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
        "bad envelope": lambda raw: raw + encode_frame(bytes([WAL_FORMAT])),
        "garbage only": lambda raw: b"garbage",
        "empty": lambda raw: b"",
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_streaming_passes_equal_scan(self, damage):
        log = make_log()
        for i in range(6):
            log.append(T, body(i=i, pad="x" * (7 * i)))
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
        assert reopened.append(T, b"{}") == expected_next

    def test_replay_and_truncate_never_copy_the_whole_log(self, monkeypatch):
        log = make_log()
        for i in range(3):
            log.append(T, body(i=i))
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
            log.append(T, body(i=i))
        replay = log.replay()
        assert next(replay)["seq"] == 0
        with pytest.raises(BufferError):
            log.append(T, body(i=3))
        with pytest.raises(BufferError):
            log.backend.truncate_to(0)
        assert [r["seq"] for r in replay] == [1, 2]
        # exhausted (or closed), the iterator has handed the buffer back
        assert log.append(T, body(i=3)) == 3
        abandoned = log.replay()
        next(abandoned)
        abandoned.close()
        assert log.append(T, body(i=4)) == 4

    def test_damaged_scan_result_does_not_pin_the_buffer(self):
        log = make_log()
        log.append(T, b"{}")
        log.backend.append(b"\xd7\xca\x00")
        result = log.scan()  # keeps the CorruptRecordError and its traceback
        assert not result.clean
        assert log.truncate_tail() == 3
        assert log.append(T, b"{}") == 1

    def test_compact_keeps_frames_verbatim_from_a_view(self):
        log = make_log()
        for i in range(4):
            log.append(T, body(i=i))
        before = log.backend.read()
        frames = log.scan().frames
        assert all(isinstance(frame, bytes) for frame in frames)
        assert b"".join(frames) == before
        log.compact(upto_seq=1)
        assert log.backend.read() == b"".join(frames[2:])


class TestTruncateAndCompact:
    def test_truncate_tail_repairs_and_reports_bytes(self):
        log = make_log()
        log.append(T, body(i=1))
        log.backend.append(b"\xd7\xca\x00")  # torn header
        fresh = WriteAheadLog(log.backend)
        assert fresh.truncate_tail() == 3
        assert fresh.scan().clean
        assert len(fresh.records()) == 1

    def test_append_refused_while_tail_damaged(self):
        log = make_log()
        log.append(T, b"{}")
        log.backend.append(b"\xff\xff")
        damaged = WriteAheadLog(log.backend)
        with pytest.raises(StoreError):
            damaged.append(T, b"{}")
        damaged.truncate_tail()
        assert damaged.append(T, b"{}") == 1

    def test_compact_drops_prefix_and_preserves_seq(self):
        log = make_log()
        for i in range(5):
            log.append(T, body(i=i))
        assert log.compact(upto_seq=2) == 3
        records = log.records()
        assert [r["seq"] for r in records] == [3, 4]
        # appends after compaction keep counting from where seq left off
        assert log.append(T, b"{}") == 5

    def test_records_after_seq_filter(self):
        log = make_log()
        for i in range(4):
            log.append(T, body(i=i))
        assert [r["seq"] for r in log.records(after_seq=1)] == [2, 3]

    def test_oversize_record_rejected(self):
        with pytest.raises(StoreError):
            encode_frame(b"x" * (64 * 1024 * 1024 + 1))


class TestOneFormat:
    """A frame stores its record's binary envelope as it is; a log in any
    other format is refused whole, by a typed error, and left untouched."""

    #: what a frame of the canonical-JSON log stored
    JSON_ENVELOPE = (
        b'{"data":{"phase":"seal","round":0},"seq":0,"type":"round.phase"}'
    )

    def test_a_frame_stores_the_envelope_as_is(self):
        data = bytes(range(256)) * 8
        log = make_log()
        log.append("mempool.admit", data)
        stored = log.backend.read()[HEADER_SIZE:]
        assert stored == bytes([WAL_FORMAT, 0]) + bytes(8) + data
        assert log.records() == [
            {"seq": 0, "type": "mempool.admit", "data": data}
        ]

    @pytest.mark.parametrize("deflated", [False, True], ids=["json", "deflated"])
    def test_a_log_of_the_json_format_fails_typed(self, deflated):
        payload = self.JSON_ENVELOPE
        if deflated:  # how the JSON log stored payloads of 512 B or more
            payload = zlib.compress(payload * 8, 1)
        old = stored_as_is(payload) + stored_as_is(self.JSON_ENVELOPE)
        with pytest.raises(RecoveryError, match="WAL_FORMAT"):
            WriteAheadLog(MemoryLogBackend(old))
        store = NodeStore.in_memory()
        store.wal.backend.replace(old)
        with pytest.raises(RecoveryError, match="WAL_FORMAT"):
            store.recover()
        assert store.wal.backend.read() == old  # not taken for a torn tail

    def test_an_unknown_format_after_valid_frames_is_not_a_tail(self):
        log = make_log()
        log.append(T, b"{}")
        log.backend.append(stored_as_is(bytes([WAL_FORMAT + 1]) + bytes(9)))
        size = log.backend.size()
        with pytest.raises(RecoveryError, match="WAL_FORMAT"):
            log.truncate_tail()
        assert log.backend.size() == size


class TestFileBackend:
    def test_round_trip_and_reopen(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(FileLogBackend(path))
        log.append(T, body(i=1))
        log.append(T, body(i=2))
        log.close()
        reopened = WriteAheadLog(FileLogBackend(path))
        assert [json.loads(r["data"])["i"] for r in reopened.records()] == [1, 2]
        assert reopened.next_seq == 2
        reopened.close()

    def test_truncate_and_compact_on_disk(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(FileLogBackend(path))
        for i in range(3):
            log.append(T, body(i=i))
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
        log.append(T, body(i=0))
        with pytest.raises(SimulatedCrashError):
            log.append(T, body(i=1))
        assert point.fired
        # both records durable: the crash hit after the boundary
        assert [r["seq"] for r in scan_frames(log.backend.read()).records] == [0, 1]

    def test_torn_crash_leaves_torn_tail(self):
        point = CrashPoint(at_append=1, mode="torn", torn_fraction=0.5)
        log = make_log(crash_point=point)
        log.append(T, body(i=0))
        with pytest.raises(SimulatedCrashError):
            log.append(T, body(i=1))
        result = scan_frames(log.backend.read())
        assert not result.clean
        assert len(result.records) == 1

    def test_corrupt_crash_fails_crc(self):
        point = CrashPoint(at_append=0, mode="corrupt")
        log = make_log(crash_point=point)
        with pytest.raises(SimulatedCrashError):
            log.append(T, body(i=0))
        result = scan_frames(log.backend.read())
        assert result.records == []
        assert result.tail_error is not None

    def test_crash_point_fires_exactly_once(self):
        point = CrashPoint(at_append=0, mode="clean")
        log = make_log(crash_point=point)
        with pytest.raises(SimulatedCrashError):
            log.append(T, b"{}")
        recovered = WriteAheadLog(log.backend, crash_point=point)
        recovered.truncate_tail()
        # the same (fired) point never kills the restarted process
        assert recovered.append(T, b"{}") == 1

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
