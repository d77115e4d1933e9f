"""CRC32-framed append-only write-ahead log.

Every durable state transition in a DeCloud node is journaled here
*before* it takes effect (see ``repro.store.node``).  The log is a flat
byte stream of self-delimiting frames (docs/DURABILITY.md)::

    MAGIC (2B) | stored length (4B BE) | crc32(stored) (4B BE) | stored
    stored = WAL_FORMAT (1B) | record type (1B) | seq (8B BE) | body

The type byte indexes :data:`repro.store.records.RECORD_TYPES`; the body
is what :func:`repro.store.records.encode_data` made of the record.
``seq`` increases by one per record and survives compaction, so recovery
lines the log up against a snapshot's ``last_seq``.  A frame whose CRC
holds but whose format or type byte this code does not know was written
whole, by another version: it is a :class:`RecoveryError` naming the WAL
format, never a torn tail (a frame of the canonical-JSON log, format 1,
stores ``{`` or, deflated, ``x`` first).

A crashed writer can leave a **torn tail**: a final frame whose header
or payload is incomplete, or whose CRC does not match.  :meth:`
WriteAheadLog.scan` finds the longest valid frame prefix and reports the
damage instead of raising; :meth:`WriteAheadLog.truncate_tail` discards
it so the log can be appended to again.  Nothing after the first bad
byte is ever trusted, so a torn tail can only *lose* the records being
written when the process died, never resurrect or invent state.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import CorruptRecordError, RecoveryError, StoreError
from repro.store.records import RECORD_TYPES

MAGIC = b"\xd7\xca"
_HEADER = struct.Struct(">2sII")
HEADER_SIZE = _HEADER.size  # 10 bytes
#: 2: the binary envelope above (1 was a canonical-JSON envelope)
WAL_FORMAT = 2
_ENVELOPE = struct.Struct(">BBQ")
_TYPE_CODES = {kind: code for code, kind in enumerate(RECORD_TYPES)}

#: refuse absurd frame lengths up front so a corrupted length field is
#: diagnosed as corruption instead of a giant allocation
MAX_RECORD_BYTES = 64 * 1024 * 1024


def encode_frame(stored: bytes) -> bytes:
    """Frame ``stored`` with magic, length, and CRC32."""
    if len(stored) > MAX_RECORD_BYTES:
        raise StoreError(
            f"record of {len(stored)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte frame limit"
        )
    return _HEADER.pack(MAGIC, len(stored), zlib.crc32(stored)) + stored


def encode_envelope(seq: int, record_type: str, body: bytes) -> bytes:
    """What a frame stores for one record."""
    code = _TYPE_CODES.get(record_type)
    if code is None:
        raise StoreError(f"unknown WAL record type {record_type!r}")
    return _ENVELOPE.pack(WAL_FORMAT, code, seq) + body


@dataclass
class ScanResult:
    """Longest valid frame prefix of a log, plus what (if anything) broke."""

    records: List[Dict[str, Any]]
    #: byte length of the valid prefix — everything past this is damage
    good_length: int
    #: None for a clean log; otherwise the first framing/CRC failure
    tail_error: Optional[CorruptRecordError] = None
    #: raw frame bytes per record (compaction re-writes these verbatim)
    frames: List[bytes] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.tail_error is None


def _damage(offset: int, reason: str) -> CorruptRecordError:
    return CorruptRecordError(f"{reason} at offset {offset}", offset, reason)


def iter_frames(data) -> Iterator[Tuple[Dict[str, Any], int, int]]:
    """Yield ``(record, start, end)`` for each valid frame of ``data``.

    ``data`` is any bytes-like buffer, held through a ``memoryview``
    until the iterator finishes or is closed (so a ``bytearray`` that is
    appended to or truncated meanwhile raises ``BufferError``); only the
    current frame is copied out.  The first torn or corrupt frame raises
    :class:`CorruptRecordError`, whose ``offset`` is the byte length of
    the valid prefix.  There is no resynchronization: a frame at or
    after the first bad byte could be a half-written record.
    """
    with memoryview(data) as view:
        offset, total = 0, len(view)
        while offset < total:
            if total - offset < HEADER_SIZE:
                raise _damage(offset, "torn header")
            magic, length, crc = _HEADER.unpack_from(view, offset)
            if magic != MAGIC:
                raise _damage(offset, "bad magic")
            if length > MAX_RECORD_BYTES:
                raise _damage(offset, "bad length")
            start = offset + HEADER_SIZE
            end = start + length
            if end > total:
                raise _damage(offset, "torn payload")
            stored = bytes(view[start:end])
            if zlib.crc32(stored) != crc:
                raise _damage(offset, "crc mismatch")
            if length < _ENVELOPE.size:
                raise _damage(offset, "bad envelope")
            version, code, seq = _ENVELOPE.unpack_from(stored)
            if version != WAL_FORMAT or code >= len(RECORD_TYPES):
                raise RecoveryError(
                    f"WAL frame at offset {offset} is no record of WAL_FORMAT "
                    f"{WAL_FORMAT} (format byte {version}, type byte {code}): "
                    "a log this version does not read"
                )
            kind, body = RECORD_TYPES[code], stored[_ENVELOPE.size :]
            yield {"seq": seq, "type": kind, "data": body}, offset, end
            offset = end


def scan_frames(data) -> ScanResult:
    """The longest valid frame prefix of ``data``; the first torn or
    corrupt frame (see :func:`iter_frames`) becomes ``tail_error``."""
    result = ScanResult(records=[], good_length=0)
    try:
        for record, start, end in iter_frames(data):
            result.records.append(record)
            result.frames.append(bytes(data[start:end]))
            result.good_length = end
    except CorruptRecordError as error:
        result.tail_error = error
    return result


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class MemoryLogBackend:
    """Deterministic in-memory byte log (the test/chaos backend)."""

    def __init__(self, data: bytes = b"") -> None:
        self._data = bytearray(data)

    def append(self, data: bytes) -> None:
        self._data.extend(data)

    def read(self) -> bytes:
        return bytes(self._data)

    def view(self) -> bytearray:
        """The log's own buffer, lent for reading: no copy is made, and
        while :func:`iter_frames` holds it an append or a truncate raises
        ``BufferError``."""
        return self._data

    def truncate_to(self, length: int) -> None:
        del self._data[length:]

    def replace(self, data: bytes) -> None:
        self._data = bytearray(data)

    def size(self) -> int:
        return len(self._data)

    def close(self) -> None:
        pass


class FileLogBackend:
    """File-backed log: append + flush per record.  The page cache
    survives a process crash (the crash matrix's failure model);
    ``fsync=True`` survives power loss, at a heavy cost per append."""

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "ab")

    def append(self, data: bytes) -> None:
        self._handle.write(data)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def read(self) -> bytes:
        self._handle.flush()
        with open(self.path, "rb") as handle:
            return handle.read()

    def view(self) -> bytes:
        """Bytes to scan (see :meth:`MemoryLogBackend.view`): one read."""
        return self.read()

    def truncate_to(self, length: int) -> None:
        self._handle.flush()
        os.truncate(self.path, length)
        # reopen so the append position tracks the truncated end
        self._handle.close()
        self._handle = open(self.path, "ab")

    def replace(self, data: bytes) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        self._handle.close()
        os.replace(tmp, self.path)
        self._handle = open(self.path, "ab")

    def size(self) -> int:
        self._handle.flush()
        return os.path.getsize(self.path)

    def close(self) -> None:
        self._handle.close()


# ----------------------------------------------------------------------
# The log
# ----------------------------------------------------------------------
class WriteAheadLog:
    """Append-only record log over a byte backend.  A ``crash_point``
    (:class:`repro.faults.crash.CrashPoint`), asked before each append
    completes, kills the "process" at a record boundary, optionally
    leaving a torn or corrupted final frame."""

    def __init__(
        self,
        backend: Optional[Any] = None,
        crash_point: Optional[Any] = None,
    ) -> None:
        self.backend = backend if backend is not None else MemoryLogBackend()
        self.crash_point = crash_point
        self._next_seq, good_length = self._survey()
        self._tail_damaged = good_length != self.backend.size()
        #: appends performed through *this* handle (crash-matrix sizing)
        self.append_count = 0

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def append(self, record_type: str, body: bytes) -> int:
        """Frame and persist one record body; returns its ``seq``.  A
        :class:`StoreError` while the log carries an unrecovered torn
        tail, which an append would bury where truncation cannot reach."""
        if self._tail_damaged:
            raise StoreError(
                "write-ahead log has an unrecovered torn tail; call "
                "truncate_tail() (or recover the store) before appending"
            )
        seq = self._next_seq
        frame = encode_frame(encode_envelope(seq, record_type, body))
        if self.crash_point is not None:
            injected = self.crash_point.on_append(frame)
            if injected is not None:
                # the simulated process dies mid-write: persist whatever
                # the crash mode says reached the disk, then "kill" it
                self.backend.append(injected)
                self.append_count += 1
                raise self.crash_point.crash_error(record_type, seq)
        self.backend.append(frame)
        self.append_count += 1
        self._next_seq = seq + 1
        return seq

    def _survey(self) -> Tuple[int, int]:
        """One streaming pass over the log: the next ``seq`` and the byte
        length of the valid prefix (anything beyond it is damage)."""
        next_seq = good_length = 0
        try:
            for record, _start, end in iter_frames(self.backend.view()):
                next_seq = record["seq"] + 1
                good_length = end
        except CorruptRecordError:
            pass
        return next_seq, good_length

    def scan(self, strict: bool = False) -> ScanResult:
        """Decode the longest valid prefix; ``strict`` raises on damage."""
        result = scan_frames(self.backend.view())
        if strict and result.tail_error is not None:
            raise result.tail_error
        return result

    def replay(self, after_seq: int = -1) -> Iterator[Dict[str, Any]]:
        """Stream the valid records with ``seq > after_seq`` in order,
        one frame at a time from the backend's bytes (nothing may append
        to or truncate the log while the iterator is open)."""
        try:
            for record, _start, _end in iter_frames(self.backend.view()):
                if record["seq"] > after_seq:
                    yield record
        except CorruptRecordError:
            return  # a torn tail ends the replay, as it ends a scan

    def records(self, after_seq: int = -1) -> List[Dict[str, Any]]:
        """Valid records with ``seq > after_seq`` (tolerates a torn tail)."""
        return list(self.replay(after_seq))

    def truncate_tail(self) -> int:
        """Discard any torn/corrupt tail; returns the bytes dropped."""
        self._next_seq, good_length = self._survey()
        dropped = self.backend.size() - good_length
        if dropped:
            self.backend.truncate_to(good_length)
        self._tail_damaged = False
        return dropped

    def compact(self, upto_seq: int, start: Optional[int] = None) -> int:
        """Drop records with ``seq <= upto_seq`` (they live in a snapshot)
        and return how many, rewriting the kept frames verbatim.
        ``start``, when the caller knows it, is the byte offset of the
        first record kept: then only two records are decoded."""
        if start is not None and self._seq_at(start) == upto_seq + 1:
            head = self._seq_at(0)
            self.backend.replace(bytes(self.backend.view()[start:]))
            return upto_seq + 1 - head
        result = self.scan(strict=True)
        kept = [
            frame
            for record, frame in zip(result.records, result.frames)
            if record["seq"] > upto_seq
        ]
        removed = len(result.frames) - len(kept)
        if removed:
            self.backend.replace(b"".join(kept))
        return removed

    def _seq_at(self, offset: int) -> Optional[int]:
        """The seq of the record framed at byte ``offset``, if any."""
        frames = iter_frames(memoryview(self.backend.view())[offset:])
        try:
            return next(frames)[0]["seq"]
        except (StopIteration, CorruptRecordError):
            return None
        finally:
            frames.close()

    def close(self) -> None:
        self.backend.close()
