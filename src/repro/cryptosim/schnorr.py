"""Schnorr signatures over a fixed prime-order subgroup (pure stdlib).

Participants sign bids and miners sign blocks.  The group is the
quadratic-residue subgroup of a 1024-bit safe prime; parameters are small
relative to production standards but the scheme is a real public-key
signature: verification needs only the public
key, and any bit flip in message or signature fails verification.

Signing is deterministic (RFC-6979 style nonce derivation from the secret
key and message) so the ledger simulation stays reproducible.

Every power of the generator (``G^secret``, ``G^nonce``, ``G^response``)
goes through one fixed-base window table built on first use, and
verification inverts ``public^challenge`` with ``pow(public, -challenge,
P)`` — a challenge-sized exponent plus one extended-gcd inverse.  Both
compute the same group elements as plain ``pow``, so signatures and
verdicts are bit-identical to the textbook formulas
(``tests/property/test_crypto_properties.py`` keeps those as the oracle).
A node that sees the same signature several times per round fronts
:func:`verify` with its own :class:`SignatureCache`.
"""

from __future__ import annotations

import hashlib
import secrets
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Set, Tuple

from repro.common.errors import SignatureError

# Safe prime P = 2*Q + 1 with Q prime (RFC 2409 Oakley Group 2, 1024-bit);
# G = 4 is a quadratic residue and therefore generates the order-Q subgroup.
# Parameters are verified at import time below.
P = 0xFFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF
Q = (P - 1) // 2
G = 4  # 2^2 is a quadratic residue, hence generates the order-Q subgroup.

#: Fixed-base window: ``G^e`` is a product of one table entry per 5-bit
#: digit of ``e``.  205 rows x 32 entries of 128 bytes is about 1 MiB and
#: about 25 ms to build; width 6 costs 1.7x of both for 16 % fewer multiplies.
_WINDOW_BITS = 5
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
_g_table: Optional[List[List[int]]] = None


def _build_g_table() -> List[List[int]]:
    """``table[i][d] = G^(d * 2^(5 i)) mod P`` for every 5-bit digit of
    an exponent below ``Q`` — a pure function of the group constants."""
    table = []
    base = G
    for _ in range(-(-Q.bit_length() // _WINDOW_BITS)):
        row = [1]
        for _ in range(_WINDOW_MASK):
            row.append(row[-1] * base % P)
        table.append(row)
        base = row[-1] * base % P
    return table


def _g_pow(exponent: int) -> int:
    """``pow(G, exponent, P)`` for a non-negative exponent, by table."""
    global _g_table
    table = _g_table
    if table is None:
        table = _g_table = _build_g_table()
    exponent %= Q  # G has order Q
    result = 1
    row = 0
    while exponent:
        digit = exponent & _WINDOW_MASK
        if digit:
            result = result * table[row][digit] % P
        exponent >>= _WINDOW_BITS
        row += 1
    return result


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
        return cls(secret=secret, public=_g_pow(secret))


def sign(secret: int, message: bytes) -> Tuple[int, int]:
    """Produce a Schnorr signature ``(challenge, response)``.

    The nonce is derived deterministically from ``(secret, message)``.
    """
    nonce = _hash_to_int(b"nonce", secret.to_bytes(160, "big"), message) % (Q - 1) + 1
    commitment = _g_pow(nonce)
    public = _g_pow(secret)
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


def _components(public: int, signature: Tuple[int, int]) -> Optional[Tuple[int, int]]:
    """``(challenge, response)`` if key and signature are well formed.

    Keys and signatures arrive off the wire, so anything but in-range
    integers (``bool`` is not one) is answered with ``None``, never an
    exception.  A ``public`` outside ``(1, P)`` is rejected outright: 0
    and the multiples of ``P`` make the recomputed commitment 0 whatever
    the response, and 1 is the key of the known secret 0 — each verifies
    a signature anyone can compute without a secret.
    """
    if type(public) is not int or not 1 < public < P:
        return None
    try:
        challenge, response = signature
    except (TypeError, ValueError):
        return None
    if type(challenge) is not int or type(response) is not int:
        return None
    if not (0 <= challenge < Q and 0 <= response < Q):
        return None
    return challenge, response


def verify(public: int, message: bytes, signature: Tuple[int, int]) -> bool:
    """Check a signature against ``public`` and ``message``.

    Malformed or out-of-range keys and signatures verify as ``False``
    (see :func:`_components`).
    """
    components = _components(public, signature)
    if components is None:
        return False
    challenge, response = components
    # commitment' = G^response * public^(-challenge) mod P
    commitment = _g_pow(response) * pow(public, -challenge, P) % P
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


class SignatureCache:
    """One node's memory of the signatures it has already verified.

    A sealed bid reaches a miner three times per round — at mempool
    admission, in the proposed block, and in the block it commits — and
    :meth:`verify` lets the node pay :func:`verify` for it once.  Only
    *successful* verifications are remembered, under a digest of the
    whole ``(public, message, signature)`` triple: a txid or block hash
    commits to the signed payload alone, so a forged signature or a
    swapped key under an honest payload has another digest and goes
    through :func:`verify` like any first sight.  The cache is bounded,
    evicts oldest-first, and belongs to exactly one node (a miner, or one
    recovery); sharing one between nodes would let one node's check stand
    in for another's.
    """

    #: above ``Mempool``'s default capacity, so every bid of a full block
    #: is still remembered when the block comes back for validation
    MAX_ENTRIES = 1 << 17

    def __init__(self) -> None:
        self._verified: Set[int] = set()
        self._order: Deque[int] = deque()

    def __len__(self) -> int:
        return len(self._verified)

    def verify(self, public: int, message: bytes, signature: Tuple[int, int]) -> bool:
        """:func:`verify`, skipped when this exact triple passed before."""
        components = _components(public, signature)
        if components is None:
            return False
        challenge, response = components
        key = _hash_to_int(
            b"verified",
            public.to_bytes(160, "big"),
            challenge.to_bytes(160, "big"),
            response.to_bytes(160, "big"),
            message,
        )
        if key in self._verified:
            return True
        if not verify(public, message, signature):
            return False
        if len(self._order) >= self.MAX_ENTRIES:
            self._verified.discard(self._order.popleft())
        self._verified.add(key)
        self._order.append(key)
        return True


def _self_check() -> None:
    # Group sanity: G must have order Q (so G^Q == 1 and G != 1).
    assert pow(G, Q, P) == 1 and G != 1, "bad Schnorr group parameters"


_self_check()
