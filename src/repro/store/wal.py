"""CRC32-framed append-only write-ahead log.

Every durable state transition in a DeCloud node is journaled here
*before* it takes effect (see ``repro.store.node``).  The log is a flat
byte stream of self-delimiting frames::

    MAGIC (2B) | stored length (4B BE) | crc32(stored) (4B BE) | stored

The payload is one canonical-JSON *envelope* ``{"seq": n, "type": t,
"data": {...}}`` — ``seq`` is a monotonically increasing record number
that survives compaction (snapshots store the last ``seq`` they cover,
so recovery knows which suffix of the log to replay).  What a frame
*stores* is that payload as it is, or — from ``DEFLATE_FROM`` bytes up,
when it comes out shorter — its zlib stream: a node's log is mostly
hex-encoded ciphertexts, keys and signatures, which deflate to a little
over half.  A zlib stream begins with the byte ``0x78`` and no JSON text
does, so a frame says by its first stored byte which of the two it
holds, and a log written before frames were deflated reads unchanged.

A crashed writer can leave a **torn tail**: a final frame whose header
or payload is incomplete, or whose CRC does not match (the write died
mid-sector, or the sector was corrupted afterwards).  :meth:`
WriteAheadLog.scan` finds the longest valid frame prefix and reports the
damage instead of raising; :meth:`WriteAheadLog.truncate_tail` discards
the damage so the log can be appended to again.  Nothing after the first
bad byte is ever trusted — a torn tail can only *lose* the records that
were being written when the process died, never resurrect or invent
state (the fuzz suite drives random corruption through this contract).

Two backends ship: :class:`MemoryLogBackend` (deterministic, for tests
and the crash-matrix differential harness) and :class:`FileLogBackend`
(a real file with flush-on-append and opt-in fsync, for demos).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import CorruptRecordError, StoreError

MAGIC = b"\xd7\xca"
_HEADER = struct.Struct(">2sII")
HEADER_SIZE = _HEADER.size  # 10 bytes

#: refuse absurd frame lengths up front so a corrupted length field is
#: diagnosed as corruption instead of a giant allocation
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: payloads from this size up are stored deflated (a round-phase marker
#: of 80 bytes would only grow; a sealed bid's 1.4 KB shrinks to 0.8)
DEFLATE_FROM = 512
#: first byte of every zlib stream ``zlib.compress`` writes (0x78) —
#: never the first byte of a JSON text
_DEFLATED = b"x"


def encode_frame(payload: bytes) -> bytes:
    """Frame ``payload`` with magic, length, and CRC32."""
    if len(payload) > MAX_RECORD_BYTES:
        raise StoreError(
            f"record of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte frame limit"
        )
    stored = payload
    if len(payload) >= DEFLATE_FROM:
        # level 1: hex has no repeats to search for, only a smaller alphabet
        deflated = zlib.compress(payload, 1)
        if len(deflated) < len(payload):
            stored = deflated
    return _HEADER.pack(MAGIC, len(stored), zlib.crc32(stored)) + stored


def _inflate(stored: bytes) -> bytes:
    """The payload a frame stores (see the module docstring)."""
    if not stored.startswith(_DEFLATED):
        return stored
    inflater = zlib.decompressobj()
    payload = inflater.decompress(stored, MAX_RECORD_BYTES)
    if not inflater.eof or inflater.unconsumed_tail or inflater.unused_data:
        raise ValueError("not one whole zlib stream within the frame limit")
    return payload


def encode_envelope(seq: int, record_type: str, data: Dict[str, Any]) -> bytes:
    """Canonical-JSON envelope bytes for one record."""
    return json.dumps(
        {"seq": seq, "type": record_type, "data": data},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


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


def iter_frames(data) -> Iterator[Tuple[Dict[str, Any], int, int]]:
    """Yield ``(record, start, end)`` for each valid frame of ``data``.

    ``data`` is any bytes-like buffer; nothing but the current frame's
    payload is copied out of it.  It is held through a ``memoryview``
    until the iterator finishes or is closed, so a ``bytearray`` that is
    appended to or truncated meanwhile raises ``BufferError`` instead of
    moving under the scan.  The first torn or corrupt frame raises
    :class:`CorruptRecordError`, whose ``offset`` is the byte length of
    the valid prefix — by design there is no resynchronization: a frame
    at or after the first bad byte could be a half-written record, so
    trusting anything beyond it could resurrect state that was never
    durably committed.
    """
    with memoryview(data) as view:
        offset = 0
        total = len(view)
        while offset < total:
            if total - offset < HEADER_SIZE:
                raise CorruptRecordError(
                    f"torn frame header at offset {offset}",
                    offset=offset,
                    reason="torn header",
                )
            magic, length, crc = _HEADER.unpack_from(view, offset)
            if magic != MAGIC:
                raise CorruptRecordError(
                    f"bad frame magic at offset {offset}",
                    offset=offset,
                    reason="bad magic",
                )
            if length > MAX_RECORD_BYTES:
                raise CorruptRecordError(
                    f"implausible frame length {length} at offset {offset}",
                    offset=offset,
                    reason="bad length",
                )
            start = offset + HEADER_SIZE
            end = start + length
            if end > total:
                raise CorruptRecordError(
                    f"torn frame payload at offset {offset}",
                    offset=offset,
                    reason="torn payload",
                )
            payload = bytes(view[start:end])
            if zlib.crc32(payload) != crc:
                raise CorruptRecordError(
                    f"CRC mismatch at offset {offset}",
                    offset=offset,
                    reason="crc mismatch",
                )
            try:
                envelope = json.loads(_inflate(payload).decode("utf-8"))
                record = {
                    "seq": envelope["seq"],
                    "type": envelope["type"],
                    "data": envelope["data"],
                }
            except (ValueError, KeyError, TypeError, zlib.error):
                raise CorruptRecordError(
                    f"undecodable record envelope at offset {offset}",
                    offset=offset,
                    reason="bad envelope",
                ) from None
            yield record, offset, end
            offset = end


def scan_frames(data) -> ScanResult:
    """Decode the longest valid frame prefix of ``data``.

    Stops at the first torn or corrupt frame (see :func:`iter_frames`)
    and reports it via ``tail_error`` instead of raising.
    """
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

    def sync(self) -> None:  # in-memory: nothing to flush
        pass

    def close(self) -> None:
        pass


class FileLogBackend:
    """File-backed log: append + flush per record, opt-in fsync.

    ``fsync=True`` gives real power-loss durability at a heavy per-append
    cost; the default (``False``) flushes to the OS page cache, which
    survives process crashes (the failure model the crash matrix tests)
    but not kernel panics.
    """

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

    def sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()


# ----------------------------------------------------------------------
# The log
# ----------------------------------------------------------------------
class WriteAheadLog:
    """Append-only record log over a byte backend.

    ``crash_point`` (a :class:`repro.faults.crash.CrashPoint`) lets the
    chaos harness kill the "process" deterministically at any record
    boundary, optionally persisting a torn or corrupted final frame —
    the write path asks the crash point before completing each append.
    """

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

    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        return self._next_seq

    def append(self, record_type: str, data: Dict[str, Any]) -> int:
        """Frame and persist one record; returns its ``seq``.

        Raises :class:`StoreError` if the log still carries an
        unrecovered torn tail — appending after damage would bury it
        mid-log where truncation can no longer repair it.
        """
        if self._tail_damaged:
            raise StoreError(
                "write-ahead log has an unrecovered torn tail; call "
                "truncate_tail() (or recover the store) before appending"
            )
        seq = self._next_seq
        frame = encode_frame(encode_envelope(seq, record_type, data))
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
        """Stream the valid records with ``seq > after_seq`` in order.

        What :meth:`records` returns, decoded one frame at a time from
        the backend's bytes: recovery never holds the whole log twice.
        Nothing may append to or truncate the log while the iterator is
        open; the in-memory backend refuses with ``BufferError``.
        """
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
        """Drop records with ``seq <= upto_seq`` (they live in a snapshot).

        Returns the number of records removed.  Frames are rewritten
        verbatim, so record bytes (and CRCs) are stable across
        compaction.  ``start``, when the caller knows it, is the byte
        offset of the first record kept: then only two records are
        decoded, not the whole log.
        """
        if start is not None and self._seq_at(start) == upto_seq + 1:
            head = self._seq_at(0)
            self.backend.replace(bytes(self.backend.view()[start:]))
            return upto_seq + 1 - head
        result = self.scan(strict=True)
        kept: List[bytes] = []
        removed = 0
        for record, frame in zip(result.records, result.frames):
            if record["seq"] <= upto_seq:
                removed += 1
            else:
                kept.append(frame)
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
