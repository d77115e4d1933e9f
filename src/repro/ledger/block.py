"""Blocks: preamble (shared after PoW) and body (shared after reveal).

The two-phase bid exposure protocol splits each block:

* **Preamble** — parent hash, height, the *encrypted* transactions, and a
  proof-of-work over all of that.  Broadcasting the preamble fixes the set
  of participants for the round without revealing any bid.
* **Body** — the disclosed temporary keys and the allocation suggestion
  computed by the winning miner, signed by that miner.

The preamble hash doubles as the block *evidence* that seeds the
verifiable pseudorandomization of trade reduction (paper §IV-F).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import InvalidBlockError
from repro.cryptosim import hashing, schnorr
from repro.ledger import pow as pow_mod
from repro.ledger.transaction import SealedBidTransaction

GENESIS_PARENT = "0" * 64


@dataclass(frozen=True)
class KeyReveal:
    """A participant's disclosed temporary key with its commitment blind.

    Keyed by ``txid`` — a participant posting several sealed bids in one
    round discloses one temporary key per transaction.
    """

    sender_id: str
    txid: str
    temp_key: bytes
    blind: bytes


@dataclass(frozen=True)
class BlockPreamble:
    """First part of a block: fixes the round's sealed bids under PoW."""

    height: int
    parent_hash: str
    transactions: Tuple[SealedBidTransaction, ...]
    timestamp: float
    pow_nonce: int = 0

    def pow_payload(self) -> bytes:
        """Bytes the proof-of-work commits to (everything but the nonce).

        Cached per instance (all fields are immutable); ``with_nonce``
        carries the cache over because the payload excludes the nonce.
        """
        cached = self.__dict__.get("_pow_payload_cache")
        if cached is None:
            cached = hashing.hash_concat(
                self.height.to_bytes(8, "big"),
                self.parent_hash.encode("ascii"),
                repr(self.timestamp).encode("ascii"),
                *[tx.signing_payload() for tx in self.transactions],
            )
            object.__setattr__(self, "_pow_payload_cache", cached)
        return cached

    @property
    def canonical_bytes(self) -> bytes:
        """Cached canonical byte encoding (payload plus nonce bytes)."""
        return self.pow_payload() + self.pow_nonce.to_bytes(8, "big")

    def hash(self) -> str:
        """Preamble hash (includes the PoW nonce)."""
        cached = self.__dict__.get("_hash_cache")
        if cached is None:
            cached = hashing.sha256_hex(self.canonical_bytes)
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    def evidence(self) -> bytes:
        """Block evidence bytes seeding verifiable randomization."""
        return bytes.fromhex(self.hash())

    def check_pow(self, difficulty_bits: int) -> bool:
        return pow_mod.check(self.pow_payload(), self.pow_nonce, difficulty_bits)

    def with_nonce(self, nonce: int) -> "BlockPreamble":
        preamble = BlockPreamble(
            height=self.height,
            parent_hash=self.parent_hash,
            transactions=self.transactions,
            timestamp=self.timestamp,
            pow_nonce=nonce,
        )
        # The PoW payload does not cover the nonce, so the fresh instance
        # may reuse an already-computed payload; its hash cache stays
        # empty and is recomputed with the new nonce on demand.
        cached = self.__dict__.get("_pow_payload_cache")
        if cached is not None:
            object.__setattr__(preamble, "_pow_payload_cache", cached)
        return preamble


@dataclass(frozen=True)
class BlockBody:
    """Second part of a block: reveals and the allocation suggestion.

    ``allocation`` is an opaque JSON-serializable payload produced by the
    auction layer (see ``repro.core.outcome.AuctionOutcome.to_payload``);
    the ledger only hashes and stores it.
    """

    reveals: Tuple[KeyReveal, ...]
    allocation: Dict[str, Any]
    miner_id: str
    miner_public: bytes
    signature: bytes = b""

    def allocation_bytes(self) -> bytes:
        """Cached canonical JSON encoding of the allocation payload.

        ``allocation`` is a plain dict for JSON round-tripping, but the
        body is a frozen value object: the payload is fixed when the body
        is built, and "mutation" means building a new body (via
        ``dataclasses.replace`` or ``signed_by``), which re-canonicalizes.
        Serializing the allocation dominates body hashing for real
        rounds, and each body used to re-serialize it on every hash,
        signature check, and chain export.
        """
        cached = self.__dict__.get("_allocation_cache")
        if cached is None:
            cached = hashing.canonical_json(self.allocation)
            object.__setattr__(self, "_allocation_cache", cached)
        return cached

    def signing_payload(self, preamble_hash: str) -> bytes:
        cached = self.__dict__.get("_signing_cache")
        if cached is not None and cached[0] == preamble_hash:
            return cached[1]
        payload = hashing.hash_concat(
            preamble_hash.encode("ascii"),
            *[
                hashing.hash_concat(
                    reveal.sender_id.encode("utf-8"),
                    reveal.txid.encode("ascii"),
                    reveal.temp_key,
                    reveal.blind,
                )
                for reveal in self.reveals
            ],
            self.allocation_bytes(),
            self.miner_id.encode("utf-8"),
        )
        object.__setattr__(self, "_signing_cache", (preamble_hash, payload))
        return payload

    def signed_by(
        self, keypair: schnorr.KeyPair, preamble_hash: str
    ) -> "BlockBody":
        signature = schnorr.sign(keypair.secret, self.signing_payload(preamble_hash))
        body = BlockBody(
            reveals=self.reveals,
            allocation=self.allocation,
            miner_id=self.miner_id,
            miner_public=self.miner_public,
            signature=signature,
        )
        # Same reveals and allocation: the canonical allocation bytes and
        # the signed payload stay valid for the fresh instance.
        object.__setattr__(body, "_allocation_cache", self.allocation_bytes())
        object.__setattr__(
            body, "_signing_cache", (preamble_hash, self.signing_payload(preamble_hash))
        )
        return body

    def verify_signature(self, preamble_hash: str) -> bool:
        return schnorr.verify(
            self.miner_public,
            self.signing_payload(preamble_hash),
            self.signature,
        )


@dataclass(frozen=True)
class Block:
    """A complete block: preamble plus body."""

    preamble: BlockPreamble
    body: Optional[BlockBody] = field(default=None)

    @property
    def height(self) -> int:
        return self.preamble.height

    def hash(self) -> str:
        """Full block hash: preamble hash chained with the body digest."""
        if self.body is None:
            return self.preamble.hash()
        cached = self.__dict__.get("_hash_cache")
        if cached is None:
            preamble_hash = self.preamble.hash()
            cached = hashing.sha256_hex(
                hashing.hash_concat(
                    preamble_hash.encode("ascii"),
                    self.body.signing_payload(preamble_hash),
                )
            )
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    def require_complete(self) -> BlockBody:
        if self.body is None:
            raise InvalidBlockError(f"block {self.height} has no body")
        return self.body
