"""Snapshots: materialized node state, keyed by the WAL seq they cover.

A snapshot is a single canonical-JSON document holding everything the
write-ahead log would otherwise have to replay from genesis: the chain
(audit JSON format; a roll's snapshot keeps only its anchor and leaves
the retained blocks in the log segment it names), the pending mempool,
the token ledger with its escrows, the per-block settlement map, and
the round-phase markers.
``last_seq`` names the newest WAL record whose effect the snapshot
already contains — recovery loads the latest snapshot and replays only
records with ``seq > last_seq``, and compaction may drop everything at
or below it.

Backends mirror the WAL's: :class:`MemorySnapshotStore` for
deterministic tests, :class:`FileSnapshotStore` (one
``snapshot_<seq>.json`` per snapshot, written atomically via temp file +
rename, pruned to a bounded history) for demos.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import StoreError

SNAPSHOT_VERSION = 1


def encode_snapshot(state: Dict[str, Any], last_seq: int) -> bytes:
    document = {
        "version": SNAPSHOT_VERSION,
        "last_seq": last_seq,
        "state": state,
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def decode_snapshot(data: bytes) -> Tuple[Dict[str, Any], int]:
    """Returns ``(state, last_seq)``; raises :class:`StoreError` on damage."""
    try:
        document = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StoreError(f"snapshot is not valid JSON: {exc}") from exc
    if document.get("version") != SNAPSHOT_VERSION:
        raise StoreError(
            f"unsupported snapshot version {document.get('version')!r}"
        )
    return document["state"], document["last_seq"]


class MemorySnapshotStore:
    """Deterministic in-memory snapshot history."""

    def __init__(self, keep: int = 2) -> None:
        if keep < 1:
            raise StoreError("snapshot history must keep at least one entry")
        self.keep = keep
        self._snapshots: List[Tuple[int, bytes]] = []

    def save(self, last_seq: int, data: bytes) -> None:
        self._snapshots.append((last_seq, data))
        self._snapshots.sort(key=lambda entry: entry[0])
        del self._snapshots[: -self.keep]

    def latest(self) -> Optional[bytes]:
        return self._snapshots[-1][1] if self._snapshots else None

    def close(self) -> None:
        pass


class FileSnapshotStore:
    """Directory of ``snapshot_<seq>.json`` files, atomically written."""

    _NAME = re.compile(r"^snapshot_(\d{12})\.json$")

    def __init__(self, directory: str, keep: int = 2) -> None:
        if keep < 1:
            raise StoreError("snapshot history must keep at least one entry")
        self.directory = directory
        self.keep = keep
        os.makedirs(directory, exist_ok=True)

    def _entries(self) -> List[Tuple[int, str]]:
        entries: List[Tuple[int, str]] = []
        for name in os.listdir(self.directory):
            match = self._NAME.match(name)
            if match:
                entries.append(
                    (int(match.group(1)), os.path.join(self.directory, name))
                )
        entries.sort()
        return entries

    def save(self, last_seq: int, data: bytes) -> None:
        path = os.path.join(self.directory, f"snapshot_{last_seq:012d}.json")
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        for _seq, stale in self._entries()[: -self.keep]:
            os.remove(stale)

    def latest(self) -> Optional[bytes]:
        entries = self._entries()
        if not entries:
            return None
        with open(entries[-1][1], "rb") as handle:
            return handle.read()

    def close(self) -> None:
        pass
