"""Hashing helpers used across the ledger and protocol layers.

All hashing is SHA-256.  Structured data is serialized with a canonical,
sorted-key JSON encoding before hashing so that hash values do not depend
on dict insertion order or platform.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Iterator


def sha256(data: bytes) -> bytes:
    """Raw SHA-256 digest."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Hex-encoded SHA-256 digest."""
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj: Any) -> bytes:
    """Deterministic JSON bytes: sorted keys, no whitespace, UTF-8.

    ``bytes`` values are not JSON-serializable; callers must hex-encode
    them first (the ledger layer does this in its ``to_payload`` methods).
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def iter_canonical_json_items(items: Iterable[Any]) -> Iterator[bytes]:
    """:func:`canonical_json` of each item, a comma before all but the
    first: the inside of a JSON list too long to hold as one text."""
    for index, item in enumerate(items):
        piece = canonical_json(item)
        yield b"," + piece if index else piece


def hash_obj(obj: Any) -> str:
    """Hex SHA-256 of the canonical JSON encoding of ``obj``."""
    return sha256_hex(canonical_json(obj))


def hash_concat(*parts: bytes) -> bytes:
    """Digest of length-prefixed concatenation (unambiguous framing)."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.digest()
