"""Ed25519 signatures (RFC 8032) from the system's libsodium.

Participants sign bids and miners sign blocks.  EdDSA is a Schnorr
signature over the twisted Edwards curve edwards25519: a key is 32
bytes, a signature is 64 (the commitment ``R`` and the response ``S``),
verification needs only the public key, and any bit flip in message,
key or signature fails it.  Signing is deterministic (RFC 8032 derives
the nonce from the secret and the message), so the ledger simulation
stays reproducible; seeded keys are ``sha256(b"keygen" + seed)``.

The curve arithmetic is libsodium's (1.0.18 or later), called through
``ctypes``; importing this module without it is an ``ImportError``
naming libsodium.  libsodium takes raw key bytes and keeps no state per
key, so nothing is cached here and no node's work is shared with
another's.  A node that sees the same signature several times per round
fronts :func:`verify` with its own :class:`SignatureCache`.

Keys and signatures arrive off the wire, so :func:`verify` answers
anything malformed with ``False`` and never raises (see
:func:`_components`).
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import secrets
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.errors import SignatureError

KEY_SIZE = 32
SIGNATURE_SIZE = 64

#: the field prime 2^255 - 19 and the order of the base point
_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_Y8 = 2707385501144840649318225287225658788936804267575313519463743609750303402022
#: y-coordinates of the eight points of order 1, 2, 4 and 8 (the sign
#: bit names x): 1 the identity, p-1 order 2, 0 order 4, ±Y8 order 8
_SMALL_ORDER_Y = frozenset({0, 1, _P - 1, _Y8, _P - _Y8})
_Y_MASK = (1 << 255) - 1
#: the 32-byte encodings of those points, either sign bit set
_SMALL_ORDER_ENCODINGS = frozenset(
    (y | sign << 255).to_bytes(KEY_SIZE, "little")
    for y in _SMALL_ORDER_Y
    for sign in (0, 1)
)

#: libsodium 1.0.18's soname, then 1.0.19's and later; tried before
#: ``find_library``, which may run ``ldconfig`` to answer
_SONAMES = ("libsodium.so.23", "libsodium.so.26")
_MISSING = (
    "Ed25519 signatures need libsodium >= 1.0.18 "
    "(libsodium23 on Debian/Ubuntu, `brew install libsodium` on macOS)"
)

_buf, _size = ctypes.c_char_p, ctypes.c_ulonglong
#: every libsodium function used: argument types (each returns an int)
_FUNCTIONS = {
    "sodium_init": [],
    "crypto_sign_ed25519_seed_keypair": [_buf, _buf, _buf],
    "crypto_sign_ed25519_detached": [_buf, ctypes.c_void_p, _buf, _size, _buf],
    "crypto_sign_ed25519_verify_detached": [_buf, _buf, _size, _buf],
}


def _open() -> ctypes.CDLL:
    """libsodium by a known soname, else wherever ``find_library`` finds it."""
    for name in _SONAMES:
        try:
            return ctypes.CDLL(name)
        except OSError:
            pass
    path = ctypes.util.find_library("sodium")
    if path is not None:
        try:
            return ctypes.CDLL(path)
        except OSError:
            pass
    raise ImportError(_MISSING)


def _libsodium() -> ctypes.CDLL:
    """libsodium, initialised, with every function of ``_FUNCTIONS`` typed."""
    lib = _open()
    for name, argtypes in _FUNCTIONS.items():
        try:
            function = getattr(lib, name)
        except AttributeError:
            raise ImportError(f"libsodium has no {name}: {_MISSING}") from None
        function.restype, function.argtypes = ctypes.c_int, argtypes
    if lib.sodium_init() < 0:
        raise ImportError(f"libsodium could not initialise: {_MISSING}")
    return lib


_lib = _libsodium()


def _signing_key(secret: bytes) -> ctypes.Array:
    """libsodium's 64-byte signing key for a 32-byte secret: the secret
    followed by its public key."""
    if type(secret) is not bytes or len(secret) != KEY_SIZE:
        raise SignatureError(f"an Ed25519 secret is {KEY_SIZE} bytes")
    public = ctypes.create_string_buffer(KEY_SIZE)
    expanded = ctypes.create_string_buffer(2 * KEY_SIZE)
    _lib.crypto_sign_ed25519_seed_keypair(public, expanded, secret)
    return expanded


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 key pair: the 32-byte secret and its public key."""

    secret: bytes
    public: bytes

    @classmethod
    def generate(cls, seed: bytes | None = None) -> "KeyPair":
        """Generate a key pair; ``seed`` makes generation deterministic."""
        if seed is None:
            secret = secrets.token_bytes(KEY_SIZE)
        else:
            secret = hashlib.sha256(b"keygen" + seed).digest()
        return cls(secret=secret, public=_signing_key(secret).raw[KEY_SIZE:])


def sign(secret: bytes, message: bytes) -> bytes:
    """The 64-byte Ed25519 signature of ``message`` under ``secret``."""
    signature = ctypes.create_string_buffer(SIGNATURE_SIZE)
    _lib.crypto_sign_ed25519_detached(
        signature, None, message, len(message), _signing_key(secret)
    )
    return signature.raw


def valid_public_key(public: object) -> bool:
    """True for 32 bytes naming a key that can speak for someone.

    A non-canonical ``y`` (``y >= p``) is refused, and so are the eight
    small-order points: a signature under one of those can be computed
    without any secret (with the identity as the key, ``R`` the identity
    and ``S = 0`` verify for every message).
    """
    if type(public) is not bytes or len(public) != KEY_SIZE:
        return False
    y = int.from_bytes(public, "little") & _Y_MASK
    return y < _P and y not in _SMALL_ORDER_Y


def _components(public: object, signature: object) -> bool:
    """True if key and signature are well formed enough to verify.

    Anything but 32 and 64 bytes (``bytearray`` and ``str`` are not) is
    refused, as are the keys :func:`valid_public_key` refuses, a
    commitment ``R`` of small order, and a response ``S >= L`` (the same
    signature plus ``L``), which RFC 8032 rejects.  RFC 8032 accepts a
    small-order ``R`` where the equation holds (a key's owner can build
    one: ``R`` the identity, ``S = H(R || A || M) * a``) and libsodium
    refuses it, so the screen is what makes the verdict the same under
    every Ed25519 library: a consensus rule.  A non-canonical ``R``
    needs no screen: it can never equal the encoding the check computes,
    and RFC 8032 rejects it too.
    """
    return (
        valid_public_key(public)
        and type(signature) is bytes
        and len(signature) == SIGNATURE_SIZE
        and signature[:32] not in _SMALL_ORDER_ENCODINGS
        and int.from_bytes(signature[32:], "little") < _L
    )


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check a signature against ``public`` and ``message``.

    Malformed or out-of-range keys and signatures verify as ``False``
    (see :func:`_components`).
    """
    return _components(public, signature) and (
        _lib.crypto_sign_ed25519_verify_detached(
            signature, message, len(message), public
        ) == 0
    )


def require_valid(public: bytes, message: bytes, signature: bytes) -> None:
    """Raise :class:`SignatureError` unless the signature verifies."""
    if not verify(public, message, signature):
        raise SignatureError("signature verification failed")


class SignatureCache:
    """One node's memory of the signatures it has already verified.

    A sealed bid reaches a miner three times per round — at mempool
    admission, in the proposed block, and in the block it commits — and
    :meth:`verify` lets the node pay :func:`verify` for it once.  Only
    *successful* verifications are remembered, keyed by the whole
    screened triple itself, ``(public, signature, message)``: a hit is
    exact equality with a triple :func:`verify` accepted, not a digest
    match.  A txid or block hash commits to the signed payload alone, so
    a forged signature or a swapped key under an honest payload is
    another key and goes through :func:`verify` like any first sight.
    The cache is bounded, evicts oldest-first, and belongs to exactly
    one node (a miner, or one recovery); sharing one between nodes would
    let one node's check stand in for another's.  A node drops a bid's
    entry (:meth:`forget`) when it commits the block that carries the
    bid — the third meeting was the last — so what it holds follows its
    pending pool, not its chain.
    """

    #: above ``Mempool``'s default capacity, so every bid of a full block
    #: is still remembered when the block comes back for validation
    MAX_ENTRIES = 1 << 17

    def __init__(self) -> None:
        #: the verified triples, oldest first; the key's bytes are the
        #: transaction's own objects, not copies
        self._verified: Dict[Tuple[bytes, bytes, bytes], None] = {}

    def __len__(self) -> int:
        return len(self._verified)

    @staticmethod
    def _key(
        public: bytes, message: bytes, signature: bytes
    ) -> Optional[Tuple[bytes, bytes, bytes]]:
        if not _components(public, signature):
            return None
        return public, signature, bytes(message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
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

    def forget(self, public: bytes, message: bytes, signature: bytes) -> None:
        """Drop this triple's entry; meeting it again costs a :func:`verify`."""
        self._verified.pop(self._key(public, message, signature), None)
