"""Ed25519 signatures (RFC 8032) from the interpreter's own OpenSSL.

Participants sign bids and miners sign blocks.  EdDSA is a Schnorr
signature over the twisted Edwards curve edwards25519: a key is 32
bytes, a signature is 64 (the commitment ``R`` and the response ``S``),
verification needs only the public key, and any bit flip in message,
key or signature fails it.  Signing is deterministic (RFC 8032 derives
the nonce from the secret and the message), so the ledger simulation
stays reproducible; seeded keys are ``sha256(b"keygen" + seed)``.

The curve arithmetic is OpenSSL's libcrypto, called through ``ctypes``.
It is the libcrypto the interpreter has already loaded for ``hashlib``:
its symbols are resolved through the ``_hashlib`` extension's own
handle, so importing this module loads no library and no package (CPython
3.10 and later require OpenSSL 1.1.1 or later, which has every function
bound here; a missing one is an ``ImportError`` naming it).  Each public
key and each secret becomes one ``EVP_PKEY`` in a bounded LRU, a pure
function of the key bytes that holds no verdict, so every node in the
process shares them.  A node that sees the same signature several times
per round fronts :func:`verify` with its own :class:`SignatureCache`.

Keys and signatures arrive off the wire, so :func:`verify` answers
anything malformed with ``False`` and never raises (see
:func:`_components`); a rejected signature leaves nothing in OpenSSL's
error queue for ``hashlib`` or ``ssl`` to trip over.
"""

from __future__ import annotations

import _hashlib
import ctypes
import functools
import hashlib
import secrets
import sys
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

_NID_ED25519 = 1087
#: public keys and secrets whose ``EVP_PKEY`` is kept (least recently
#: used goes first); a key object costs a few microseconds to build, so
#: the bound only caps memory
_MAX_KEYS = 4096

_p, _n, _buf, _int = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p, ctypes.c_int
#: every libcrypto function used: (return type, argument types)
_BINDING = {
    "EVP_PKEY_new_raw_private_key": (_p, [_int, _p, _buf, _n]),
    "EVP_PKEY_new_raw_public_key": (_p, [_int, _p, _buf, _n]),
    "EVP_PKEY_get_raw_public_key": (_int, [_p, _buf, ctypes.POINTER(_n)]),
    "EVP_PKEY_free": (None, [_p]),
    "EVP_MD_CTX_new": (_p, []),
    "EVP_MD_CTX_free": (None, [_p]),
    "EVP_DigestSignInit": (_int, [_p] * 5),
    "EVP_DigestSign": (_int, [_p, _buf, ctypes.POINTER(_n), _buf, _n]),
    "EVP_DigestVerifyInit": (_int, [_p] * 5),
    "EVP_DigestVerify": (_int, [_p, _buf, _n, _buf, _n]),
    "ERR_clear_error": (None, []),
}


def _libcrypto() -> ctypes.CDLL:
    """The libcrypto ``_hashlib`` is linked against, through that
    extension's own handle, with every function of ``_BINDING`` typed."""
    lib = ctypes.CDLL(_hashlib.__file__)
    for name, (restype, argtypes) in _BINDING.items():
        try:
            function = getattr(lib, name)
        except AttributeError:
            raise ImportError(
                f"libcrypto has no {name}: Ed25519 needs OpenSSL 1.1.1 or later"
            ) from None
        function.restype, function.argtypes = restype, argtypes
    return lib


_lib = _libcrypto()


class _Key:
    """One ``EVP_PKEY``, freed with the last reference to it."""

    __slots__ = ("pointer",)

    def __init__(self, pointer: int) -> None:
        self.pointer = pointer

    def __del__(self, _free=_lib.EVP_PKEY_free, _exiting=sys.is_finalizing) -> None:
        if not _exiting():  # at exit OpenSSL may already be torn down
            _free(self.pointer)


def _key(build, raw: bytes) -> Optional[_Key]:
    # OpenSSL refuses any length but 32, so a short buffer is never overread
    pointer = build(_NID_ED25519, None, raw, len(raw))
    if pointer:
        return _Key(pointer)
    _lib.ERR_clear_error()
    return None


@functools.lru_cache(maxsize=_MAX_KEYS)
def _public_key(public: bytes) -> Optional[_Key]:
    return _key(_lib.EVP_PKEY_new_raw_public_key, public)


@functools.lru_cache(maxsize=_MAX_KEYS)
def _private_key(secret: bytes) -> Optional[_Key]:
    return _key(_lib.EVP_PKEY_new_raw_private_key, secret)


def _raw_public(key: Optional[_Key]) -> bytes:
    """The 32 bytes of the public key a key object holds."""
    public = ctypes.create_string_buffer(KEY_SIZE)
    size = _n(KEY_SIZE)
    if key is None or _lib.EVP_PKEY_get_raw_public_key(
        key.pointer, public, ctypes.byref(size)
    ) != 1:
        _lib.ERR_clear_error()
        raise SignatureError("OpenSSL could not derive an Ed25519 public key")
    return public.raw


def _one_shot(init, call, key: _Key, *args) -> bool:
    """One ``EVP_DigestSign``/``EVP_DigestVerify`` call in a fresh
    context; a failure leaves OpenSSL's error queue empty."""
    context = _lib.EVP_MD_CTX_new()
    try:
        done = init(context, None, None, None, key.pointer) == 1 and call(
            context, *args
        ) == 1
    finally:
        _lib.EVP_MD_CTX_free(context)
    if not done:
        _lib.ERR_clear_error()
    return done


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
        return cls(secret=secret, public=_raw_public(_private_key(secret)))


def sign(secret: bytes, message: bytes) -> bytes:
    """The 64-byte Ed25519 signature of ``message`` under ``secret``."""
    key = _private_key(secret)
    signature = ctypes.create_string_buffer(SIGNATURE_SIZE)
    size = _n(SIGNATURE_SIZE)
    if key is None or not _one_shot(
        _lib.EVP_DigestSignInit, _lib.EVP_DigestSign, key,
        signature, ctypes.byref(size), message, len(message),
    ):
        raise SignatureError("OpenSSL could not sign")
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
    refused, as are the keys :func:`valid_public_key` refuses and a
    response ``S >= L`` (the same signature plus ``L``), which RFC 8032
    rejects whatever the OpenSSL release checks.
    """
    return (
        valid_public_key(public)
        and type(signature) is bytes
        and len(signature) == SIGNATURE_SIZE
        and int.from_bytes(signature[32:], "little") < _L
    )


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check a signature against ``public`` and ``message``.

    Malformed or out-of-range keys and signatures verify as ``False``
    (see :func:`_components`).
    """
    if not _components(public, signature):
        return False
    key = _public_key(public)
    return key is not None and _one_shot(
        _lib.EVP_DigestVerifyInit, _lib.EVP_DigestVerify, key,
        signature, SIGNATURE_SIZE, message, len(message),
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
