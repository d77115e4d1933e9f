"""Signed sealed-bid transactions.

A participant wraps its (already encrypted) bid into a
:class:`SealedBidTransaction`: the ciphertext, a commitment to the
temporary key, and an Ed25519 signature binding both to the sender.  The
ledger treats the ciphertext as opaque bytes — the protocol layer defines
what is inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern
from typing import Optional

from repro.common.errors import SignatureError
from repro.cryptosim import hashing, schnorr
from repro.cryptosim.commitments import Commitment
from repro.cryptosim.symmetric import SealedBox


@dataclass(frozen=True)
class SealedBidTransaction:
    """An encrypted bid plus the metadata needed to verify and open it."""

    sender_id: str
    sender_public: bytes
    box: SealedBox
    key_commitment: Commitment
    signature: bytes

    def signing_payload(self) -> bytes:
        """The bytes the sender signed.

        Cached per instance: every field is immutable, so the canonical
        bytes can only change by building a new transaction (e.g. via
        ``dataclasses.replace``), which starts with a fresh cache.  The
        ledger hashes transactions many times per round (txid lookups,
        preamble payloads, chain serialization) — without the cache each
        hash re-serializes the sealed box.
        """
        cached = self.__dict__.get("_payload_cache")
        if cached is None:
            cached = hashing.hash_concat(
                self.sender_id.encode("utf-8"),
                self.box.to_bytes(),
                self.key_commitment.digest,
            )
            object.__setattr__(self, "_payload_cache", cached)
        return cached

    @property
    def canonical_bytes(self) -> bytes:
        """Cached canonical byte encoding (the signed payload)."""
        return self.signing_payload()

    def verify_signature(
        self, cache: Optional[schnorr.SignatureCache] = None
    ) -> bool:
        """Check the signature over the sealed payload.

        A node passes its own ``cache`` so that it verifies the
        transaction once, however often it meets it.
        """
        check = schnorr.verify if cache is None else cache.verify
        return check(self.sender_public, self.signing_payload(), self.signature)

    def require_valid(
        self, cache: Optional[schnorr.SignatureCache] = None
    ) -> None:
        if not self.verify_signature(cache):
            raise SignatureError(
                f"transaction from {self.sender_id} has an invalid signature"
            )

    def txid(self) -> str:
        """Deterministic transaction identifier (hash of the payload)."""
        cached = self.__dict__.get("_txid_cache")
        if cached is None:
            # interned: a block's reveals name the same txid
            cached = intern(hashing.sha256_hex(self.signing_payload()))
            object.__setattr__(self, "_txid_cache", cached)
        return cached

    @classmethod
    def create(
        cls,
        sender_id: str,
        keypair: schnorr.KeyPair,
        box: SealedBox,
        key_commitment: Commitment,
    ) -> "SealedBidTransaction":
        """Build and sign a transaction in one step."""
        unsigned = cls(
            sender_id=sender_id,
            sender_public=keypair.public,
            box=box,
            key_commitment=key_commitment,
            signature=b"",
        )
        signature = schnorr.sign(keypair.secret, unsigned.signing_payload())
        return cls(
            sender_id=sender_id,
            sender_public=keypair.public,
            box=box,
            key_commitment=key_commitment,
            signature=signature,
        )
