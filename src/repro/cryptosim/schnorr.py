"""Schnorr signatures over a fixed prime-order subgroup (pure stdlib).

Participants sign bids and miners sign blocks.  The group is the
quadratic-residue subgroup of a 1024-bit safe prime; parameters are small
relative to production standards but the scheme is a real public-key
signature: verification needs only the public
key, and any bit flip in message or signature fails verification.

Signing is deterministic (RFC-6979 style nonce derivation from the secret
key and message) so the ledger simulation stays reproducible.

Every exponentiation goes through one Lim-Lee comb of 16 columns: an
exponent block is laid out as rows of 16 bits, a table holds the product
of the row bases for every column pattern, and evaluation is one
squaring plus at most one multiply per table for each of the 16 columns.
``G`` has six tables of 11 rows (176-bit blocks, 2,048 entries each;
exponents run up to ``Q``, 1023 bits), each built the first time an
exponent reaches its block.  Each signer's ``Y^(-1)`` has two tables of
8 rows (256 entries each) covering a 256-bit challenge, a pure function
of the public key, built on first sight and kept in a bounded LRU.
Verification walks the ``G`` tables the response reaches and the
signer's two in a single pass, so ``G^response * Y^(-challenge)``
shares its 16 squarings.  The tables compute the same group elements as
plain ``pow``, so signatures and verdicts are bit-identical to the
textbook formulas (``tests/property/test_crypto_properties.py`` keeps
those as the oracle).
A node that sees the same signature several times per round fronts
:func:`verify` with its own :class:`SignatureCache`; key tables hold no
verdicts and are shared by every node in the process.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.errors import SignatureError

# Safe prime P = 2*Q + 1 with Q prime (RFC 2409 Oakley Group 2, 1024-bit);
# G = 4 is a quadratic residue and therefore generates the order-Q subgroup.
# Parameters are verified at import time below.
P = 0xFFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF
Q = (P - 1) // 2
G = 4  # 2^2 is a quadratic residue, hence generates the order-Q subgroup.

#: Comb geometry: every table reads its exponent block as rows of
#: ``_COLUMNS`` bits and has one entry per column pattern across its rows
#: (``2^rows`` entries); evaluating costs 16 squarings shared by every
#: table in the pass plus at most 16 multiplies per table.
_COLUMNS = 16
#: ``G``: 11 rows, a 176-bit block and 2,048 entries (~340 KiB) a table;
#: six blocks cover an exponent below ``Q``
_G_ROWS = 11
_G_BLOCK_BITS = _G_ROWS * _COLUMNS
_G_BLOCKS = -(-Q.bit_length() // _G_BLOCK_BITS)
#: a signer's ``Y^(-1)``: two tables of 8 rows (2 x 256 entries, ~86 KiB)
#: covering a 256-bit challenge, the first one its low 128 bits
_KEY_ROWS = 8
_KEY_BLOCKS = 2
_CHALLENGE_BITS = _KEY_BLOCKS * _KEY_ROWS * _COLUMNS
#: signers whose ``Y^(-1)`` tables are kept (least recently used goes
#: first): ~22 MiB when full.  Building a key's tables costs about
#: eight repeat verifications (734 modular multiplications against 96),
#: so a flood of never-seen keys pays a bounded factor per bid and never
#: more.
_MAX_KEY_TABLES = 256

_Table = Tuple[int, ...]


def _build_comb(base: int, rows: int, blocks: int) -> Tuple[_Table, ...]:
    """Comb tables of ``base`` for exponents of ``blocks * rows * 16`` bits.

    Row ``r`` of the exponent weighs ``base^(2^(16 r))``; table ``b``
    covers rows ``rows*b .. rows*b + rows-1`` and ``table[d]`` is the
    product of the row bases whose bit is set in ``d`` — a pure function
    of ``base``.
    """
    row_bases = [base]
    for _ in range(blocks * rows - 1):
        row_bases.append(pow(row_bases[-1], 1 << _COLUMNS, P))
    tables = []
    for block in range(blocks):
        table = [1]
        for row_base in row_bases[block * rows : (block + 1) * rows]:
            table += [entry * row_base % P for entry in table]
        tables.append(tuple(table))
    return tuple(tables)


def _comb_pow(tables: Tuple[_Table, ...], exponent: int) -> int:
    """Product over ``b`` of ``base_b ^ (block b of exponent)`` mod ``P``,
    where ``tables[b]`` is a comb table of ``base_b`` with ``2^rows_b``
    entries and block ``b`` is the ``16 * rows_b`` exponent bits above
    the lower tables' — one pass, one squaring per column.  The exponent
    must be no wider than the tables."""
    if not tables:
        return 1  # the empty product: exponent 0 reaches no block
    layout = []
    for table in tables:
        rows = len(table).bit_length() - 1
        layout.append((rows, (1 << rows) - 1, table))
    bits = format(exponent, "b").zfill(
        sum(rows for rows, _, _ in layout) * _COLUMNS
    )
    result = 1
    for column in range(_COLUMNS):
        result = result * result % P
        # bit ``column`` (from the top) of every row, lowest row last
        digits = int(bits[column::_COLUMNS], 2)
        for rows, mask, table in layout:
            digit = digits & mask
            if digit:
                result = result * table[digit] % P
            digits >>= rows
    return result


@functools.lru_cache(maxsize=None)
def _g_block(block: int) -> _Table:
    """``G``'s comb table for exponent bits ``176 block ..``, built the
    first time an exponent reaches that block."""
    return _build_comb(pow(G, 1 << block * _G_BLOCK_BITS, P), _G_ROWS, 1)[0]


def _g_tables(exponent: int) -> Tuple[_Table, ...]:
    """``G``'s tables for the blocks a non-negative exponent reaches."""
    blocks = -(-exponent.bit_length() // _G_BLOCK_BITS)
    return tuple(map(_g_block, range(blocks)))


@functools.lru_cache(maxsize=_MAX_KEY_TABLES)
def _key_table(public: int) -> Tuple[_Table, ...]:
    """The two comb tables of ``public^(-1)`` (the true inverse mod
    ``P``, so keys outside the order-``Q`` subgroup are handled exactly)."""
    return _build_comb(pow(public, -1, P), _KEY_ROWS, _KEY_BLOCKS)


def _g_pow(exponent: int) -> int:
    """``pow(G, exponent, P)`` for a non-negative exponent, by table."""
    exponent %= Q  # G has order Q
    return _comb_pow(_g_tables(exponent), exponent)


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


def sign(
    secret: int, message: bytes, public: Optional[int] = None
) -> Tuple[int, int]:
    """Produce a Schnorr signature ``(challenge, response)``.

    The nonce is derived deterministically from ``(secret, message)``.
    A caller holding the :class:`KeyPair` passes ``public`` (which must
    be ``G^secret``) and saves re-deriving it — half the work.
    """
    nonce = _hash_to_int(b"nonce", secret.to_bytes(160, "big"), message) % (Q - 1) + 1
    commitment = _g_pow(nonce)
    if public is None:
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
    if challenge >> _CHALLENGE_BITS:
        # the challenge is a SHA-256 value (< 2^256 < Q): nothing wider
        # can equal the recomputed one, and the key tables cover 256 bits
        return False
    # commitment' = G^response * public^(-challenge) mod P, the signer's
    # tables riding as two more blocks above the G blocks the response
    # reaches
    g_tables = _g_tables(response)
    commitment = _comb_pow(
        g_tables + _key_table(public),
        response | challenge << (len(g_tables) * _G_BLOCK_BITS),
    )
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
    *successful* verifications are remembered, keyed by the whole
    screened triple itself, ``(public, challenge, response, message)``:
    a hit is exact equality with a triple :func:`verify` accepted, not a
    digest match.  A txid or block hash commits to the signed payload
    alone, so a forged signature or a swapped key under an honest
    payload is another key and goes through :func:`verify` like any
    first sight.  The cache is bounded, evicts oldest-first, and belongs
    to exactly one node (a miner, or one recovery); sharing one between
    nodes would let one node's check stand in for another's.  A node
    drops a bid's entry (:meth:`forget`) when it commits the block that
    carries the bid — the third meeting was the last — so what it holds
    follows its pending pool, not its chain.
    """

    #: above ``Mempool``'s default capacity, so every bid of a full block
    #: is still remembered when the block comes back for validation
    MAX_ENTRIES = 1 << 17

    def __init__(self) -> None:
        #: the verified triples, oldest first; the key's ints and message
        #: are the transaction's own objects, not copies
        self._verified: Dict[Tuple[int, int, int, bytes], None] = {}

    def __len__(self) -> int:
        return len(self._verified)

    @staticmethod
    def _key(
        public: int, message: bytes, signature: Tuple[int, int]
    ) -> Optional[Tuple[int, int, int, bytes]]:
        components = _components(public, signature)
        if components is None:
            return None
        challenge, response = components
        return public, challenge, response, bytes(message)

    def verify(self, public: int, message: bytes, signature: Tuple[int, int]) -> bool:
        """:func:`verify`, skipped when this exact triple passed before."""
        key = self._key(public, message, signature)
        if key is None:
            return False
        if key in self._verified:
            return True
        if not verify(public, message, signature):
            return False
        if len(self._verified) >= self.MAX_ENTRIES:
            del self._verified[next(iter(self._verified))]
        self._verified[key] = None
        return True

    def forget(self, public: int, message: bytes, signature: Tuple[int, int]) -> None:
        """Drop this triple's entry; meeting it again costs a :func:`verify`."""
        self._verified.pop(self._key(public, message, signature), None)


def _self_check() -> None:
    # Group sanity: G must have order Q (so G^Q == 1 and G != 1).
    assert pow(G, Q, P) == 1 and G != 1, "bad Schnorr group parameters"


_self_check()
