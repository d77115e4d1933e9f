"""Cryptographic primitives: the interpreter's own, and libsodium's Ed25519.

Everything the two-phase bid exposure protocol needs: SHA-256 hashing
helpers, Ed25519 signatures (libsodium's, through ``ctypes``), a
functional — not production-grade — authenticated stream cipher for
sealed bids, and hash commitments binding temporary keys to the preamble.
"""

from repro.cryptosim.commitments import Commitment, Opening, commit, verify_opening
from repro.cryptosim.hashing import (
    canonical_json,
    hash_concat,
    hash_obj,
    sha256,
    sha256_hex,
)
from repro.cryptosim.schnorr import KeyPair, require_valid, sign, verify
from repro.cryptosim.symmetric import (
    KEY_SIZE,
    SealedBox,
    decrypt,
    encrypt,
    generate_key,
)

__all__ = [
    "Commitment",
    "Opening",
    "commit",
    "verify_opening",
    "canonical_json",
    "hash_concat",
    "hash_obj",
    "sha256",
    "sha256_hex",
    "KeyPair",
    "sign",
    "verify",
    "require_valid",
    "SealedBox",
    "encrypt",
    "decrypt",
    "generate_key",
    "KEY_SIZE",
]
