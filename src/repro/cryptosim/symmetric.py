"""Authenticated symmetric encryption for sealed bids (pure stdlib).

The two-phase bid exposure protocol requires participants to encrypt their
bids with *temporary keys* that are disclosed only after the block preamble
is fixed.  We implement encrypt-then-MAC over a SHA-256 counter-mode
keystream:

* keystream block ``i`` = SHA-256(enc_key || nonce || i)
* tag = HMAC-SHA-256(mac_key, nonce || ciphertext)

Encryption and MAC keys are derived from the temporary key with domain
separation, so a single 32-byte temporary key is all a participant
discloses.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass

from repro.common.errors import DecryptionError

KEY_SIZE = 32
NONCE_SIZE = 16
TAG_SIZE = 32


def generate_key(seed: bytes | None = None) -> bytes:
    """A fresh 32-byte temporary key (deterministic when ``seed`` given)."""
    if seed is None:
        return secrets.token_bytes(KEY_SIZE)
    return hashlib.sha256(b"tempkey" + seed).digest()


def _derive(key: bytes, label: bytes) -> bytes:
    return hmac.digest(key, label, "sha256")


def _keystream(enc_key: bytes, nonce: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(
            enc_key + nonce + counter.to_bytes(8, "big")
        ).digest()
        counter += 1
    return bytes(out[:length])


def _xor(data: bytes, stream: bytes) -> bytes:
    """``bytes(d ^ s for d, s in zip(data, stream))``, as one integer
    XOR (``stream`` is exactly as long as ``data``)."""
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


@dataclass(frozen=True)
class SealedBox:
    """Ciphertext container: nonce, ciphertext, authentication tag."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return self.nonce + self.tag + self.ciphertext

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SealedBox":
        if len(raw) < NONCE_SIZE + TAG_SIZE:
            raise DecryptionError("sealed box too short")
        return cls(
            nonce=raw[:NONCE_SIZE],
            tag=raw[NONCE_SIZE : NONCE_SIZE + TAG_SIZE],
            ciphertext=raw[NONCE_SIZE + TAG_SIZE :],
        )


def encrypt(key: bytes, plaintext: bytes, nonce: bytes | None = None) -> SealedBox:
    """Encrypt-then-MAC ``plaintext`` under the temporary ``key``."""
    if len(key) != KEY_SIZE:
        raise DecryptionError(f"key must be {KEY_SIZE} bytes")
    if nonce is None:
        nonce = secrets.token_bytes(NONCE_SIZE)
    if len(nonce) != NONCE_SIZE:
        raise DecryptionError(f"nonce must be {NONCE_SIZE} bytes")
    enc_key = _derive(key, b"enc")
    mac_key = _derive(key, b"mac")
    ciphertext = _xor(plaintext, _keystream(enc_key, nonce, len(plaintext)))
    tag = hmac.digest(mac_key, nonce + ciphertext, "sha256")
    return SealedBox(nonce=nonce, ciphertext=ciphertext, tag=tag)


def decrypt(key: bytes, box: SealedBox) -> bytes:
    """Verify the tag and recover the plaintext.

    Raises :class:`DecryptionError` on a wrong key or tampered box.
    """
    if len(key) != KEY_SIZE:
        raise DecryptionError(f"key must be {KEY_SIZE} bytes")
    enc_key = _derive(key, b"enc")
    mac_key = _derive(key, b"mac")
    expected = hmac.digest(mac_key, box.nonce + box.ciphertext, "sha256")
    if not hmac.compare_digest(expected, box.tag):
        raise DecryptionError("authentication tag mismatch")
    return _xor(
        box.ciphertext, _keystream(enc_key, box.nonce, len(box.ciphertext))
    )
