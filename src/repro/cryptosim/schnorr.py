"""Schnorr signatures over a fixed prime-order subgroup (pure stdlib).

Participants sign bids and miners sign blocks.  The group is the
quadratic-residue subgroup of a 1024-bit safe prime; parameters are small
relative to production standards but the scheme is a real public-key
signature: verification needs only the public
key, and any bit flip in message or signature fails verification.

Signing is deterministic (RFC-6979 style nonce derivation from the secret
key and message) so the ledger simulation stays reproducible.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from typing import Tuple

from repro.common.errors import SignatureError

# Safe prime P = 2*Q + 1 with Q prime (RFC 2409 Oakley Group 2, 1024-bit);
# G = 4 is a quadratic residue and therefore generates the order-Q subgroup.
# Parameters are verified at import time below.
P = 0xFFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF
Q = (P - 1) // 2
G = 4  # 2^2 is a quadratic residue, hence generates the order-Q subgroup.


def _hash_to_int(*parts: bytes) -> int:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return int.from_bytes(hasher.digest(), "big")


@dataclass(frozen=True)
class KeyPair:
    """A Schnorr key pair: secret exponent and public group element."""

    secret: int
    public: int

    @classmethod
    def generate(cls, seed: bytes | None = None) -> "KeyPair":
        """Generate a key pair; ``seed`` makes generation deterministic."""
        if seed is None:
            secret = secrets.randbelow(Q - 1) + 1
        else:
            secret = _hash_to_int(b"keygen", seed) % (Q - 1) + 1
        return cls(secret=secret, public=pow(G, secret, P))


def sign(secret: int, message: bytes) -> Tuple[int, int]:
    """Produce a Schnorr signature ``(challenge, response)``.

    The nonce is derived deterministically from ``(secret, message)``.
    """
    nonce = _hash_to_int(b"nonce", secret.to_bytes(160, "big"), message) % (Q - 1) + 1
    commitment = pow(G, nonce, P)
    public = pow(G, secret, P)
    challenge = (
        _hash_to_int(
            b"chal",
            commitment.to_bytes(160, "big"),
            public.to_bytes(160, "big"),
            message,
        )
        % Q
    )
    response = (nonce + challenge * secret) % Q
    return challenge, response


def verify(public: int, message: bytes, signature: Tuple[int, int]) -> bool:
    """Check a signature against ``public`` and ``message``.

    A ``public`` outside ``(1, P)`` is rejected outright: 0 and the
    multiples of ``P`` make the recomputed commitment 0 whatever the
    response, and 1 is the key of the known secret 0 — each verifies a
    signature anyone can compute without a secret.
    """
    if not (isinstance(public, int) and 1 < public < P):
        return False
    try:
        challenge, response = signature
    except (TypeError, ValueError):
        return False
    if not (0 <= challenge < Q and 0 <= response < Q):
        return False
    # commitment' = G^response * public^(-challenge) mod P
    commitment = (
        pow(G, response, P) * pow(pow(public, challenge, P), P - 2, P)
    ) % P
    expected = (
        _hash_to_int(
            b"chal",
            commitment.to_bytes(160, "big"),
            public.to_bytes(160, "big"),
            message,
        )
        % Q
    )
    return expected == challenge


def require_valid(public: int, message: bytes, signature: Tuple[int, int]) -> None:
    """Raise :class:`SignatureError` unless the signature verifies."""
    if not verify(public, message, signature):
        raise SignatureError("signature verification failed")


def _self_check() -> None:
    # Group sanity: G must have order Q (so G^Q == 1 and G != 1).
    assert pow(G, Q, P) == 1 and G != 1, "bad Schnorr group parameters"


_self_check()
