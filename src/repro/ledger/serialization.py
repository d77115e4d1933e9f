"""Chain import/export: a JSON audit format for the ledger.

Anyone can audit a DeCloud deployment from its chain: every block
carries the sealed bids, the disclosed keys, and the allocation — enough
to re-derive and re-verify everything.  This module serializes a
:class:`~repro.ledger.chain.Blockchain` to a portable JSON document and
back, preserving hashes bit-for-bit (round-trip is asserted on import).

Hashing here leans on the canonical-bytes caches of the ledger value
objects: ``block.hash()`` reuses the preamble payload, the transactions'
signed payloads, and the body's canonical allocation JSON, each computed
at most once per instance (see ``repro.ledger.block`` /
``repro.ledger.transaction``).  Exporting or verifying a chain therefore
serializes every allocation once instead of once per hash/signature/
audit pass.  The outer ``json.dumps(..., sort_keys=True, indent=1)``
below is the *wire format* and is unchanged.
"""

from __future__ import annotations

import functools
import json
from sys import intern
from typing import Any, Callable, Dict, Iterator

from repro.common.errors import LedgerError, ReproError
from repro.cryptosim import hashing, schnorr
from repro.cryptosim.commitments import Commitment
from repro.cryptosim.symmetric import SealedBox
from repro.ledger.block import (
    GENESIS_PARENT,
    Block,
    BlockBody,
    BlockPreamble,
    KeyReveal,
)
from repro.ledger.chain import Blockchain
from repro.ledger.transaction import SealedBidTransaction

#: 2: Ed25519 keys and signatures as the hex of their raw bytes (1 held
#: the Schnorr group's integers)
FORMAT_VERSION = 2


def tx_to_dict(tx: SealedBidTransaction) -> Dict[str, Any]:
    return {
        "sender_id": tx.sender_id,
        "sender_public": tx.sender_public.hex(),
        "box": tx.box.to_bytes().hex(),
        "key_commitment": tx.key_commitment.digest.hex(),
        "signature": tx.signature.hex(),
    }


def _raw(text: Any, size: int, field: str) -> bytes:
    """The ``size`` bytes a key or signature field spells in hex; a
    field off the wire that is anything else is a :class:`LedgerError`."""
    try:
        raw = bytes.fromhex(text)
    except (TypeError, ValueError):
        raw = b""
    if len(raw) != size:
        raise LedgerError(f"{field} is not {size} bytes of hex: {text!r:.40}")
    return raw


@functools.lru_cache(maxsize=256)
def _shared(raw: bytes) -> bytes:
    return raw


def _public_key(text: Any) -> bytes:
    return _shared(_raw(text, schnorr.KEY_SIZE, "public key"))


def _signature(text: Any) -> bytes:
    return _raw(text, schnorr.SIGNATURE_SIZE, "signature")


def tx_from_dict(data: Dict[str, Any]) -> SealedBidTransaction:
    """A decoded chain names the same few signers block after block:
    their ids and keys (and, below, a reveal's txid, which its
    transaction interns too) are shared, not held once per bid."""
    return SealedBidTransaction(
        sender_id=intern(data["sender_id"]),
        sender_public=_public_key(data["sender_public"]),
        box=SealedBox.from_bytes(bytes.fromhex(data["box"])),
        key_commitment=Commitment(
            digest=bytes.fromhex(data["key_commitment"])
        ),
        signature=_signature(data["signature"]),
    )


def block_to_dict(
    block: Block,
    encode_tx: Callable[[SealedBidTransaction], Dict[str, Any]] = tx_to_dict,
) -> Dict[str, Any]:
    """``encode_tx`` lets a journal write a transaction it already holds
    some other way (see ``repro.store.records``); the audit format and
    every hash use :func:`tx_to_dict`."""
    preamble = block.preamble
    body = block.body
    out: Dict[str, Any] = {
        "preamble": {
            "height": preamble.height,
            "parent_hash": preamble.parent_hash,
            "timestamp": preamble.timestamp,
            "pow_nonce": preamble.pow_nonce,
            "transactions": [encode_tx(tx) for tx in preamble.transactions],
        },
    }
    if body is not None:
        out["body"] = {
            "reveals": [
                {
                    "sender_id": reveal.sender_id,
                    "txid": reveal.txid,
                    "temp_key": reveal.temp_key.hex(),
                    "blind": reveal.blind.hex(),
                }
                for reveal in body.reveals
            ],
            "allocation": body.allocation,
            "miner_id": body.miner_id,
            "miner_public": body.miner_public.hex(),
            "signature": body.signature.hex(),
        }
    return out


def block_from_dict(
    data: Dict[str, Any],
    decode_tx: Callable[[Dict[str, Any]], SealedBidTransaction] = tx_from_dict,
) -> Block:
    pre = data["preamble"]
    preamble = BlockPreamble(
        height=pre["height"],
        parent_hash=pre["parent_hash"],
        transactions=tuple(decode_tx(t) for t in pre["transactions"]),
        timestamp=pre["timestamp"],
        pow_nonce=pre["pow_nonce"],
    )
    body = None
    if "body" in data:
        raw = data["body"]
        body = BlockBody(
            reveals=tuple(
                KeyReveal(
                    sender_id=intern(r["sender_id"]),
                    txid=intern(r["txid"]),
                    temp_key=bytes.fromhex(r["temp_key"]),
                    blind=bytes.fromhex(r["blind"]),
                )
                for r in raw["reveals"]
            ),
            allocation=raw["allocation"],
            miner_id=raw["miner_id"],
            miner_public=_public_key(raw["miner_public"]),
            signature=_signature(raw["signature"]),
        )
    return Block(preamble=preamble, body=body)


def _chain_entry(block: Block) -> Dict[str, Any]:
    return {"hash": block.hash(), **block_to_dict(block)}


def _anchor(chain: Blockchain) -> Dict[str, Any]:
    return {"height": chain.anchor_height, "hash": chain.anchor_hash}


def chain_document(chain: Blockchain, upto: int = -1) -> Dict[str, Any]:
    """The :func:`chain_to_json` document; ``upto`` >= 0 keeps only the
    blocks below that height.  Only a pruned chain has an ``anchor``."""
    blocks = list(chain)
    if upto >= 0:
        blocks = blocks[: max(0, upto - chain.anchor_height)]
    document: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "difficulty_bits": chain.difficulty_bits,
        "blocks": [_chain_entry(block) for block in blocks],
    }
    if chain.anchor_height:
        document["anchor"] = _anchor(chain)
    return document


def chain_to_json(chain: Blockchain) -> str:
    """Serialize the chain (with block hashes for external auditing)."""
    return json.dumps(chain_document(chain), sort_keys=True, indent=1)


def iter_chain_canonical_json(chain: Blockchain) -> Iterator[bytes]:
    """The :func:`chain_to_json` document as canonical JSON, in pieces.

    Concatenated, the pieces equal ``canonical_json(json.loads(
    chain_to_json(chain)))``; no piece is larger than one block, so a
    digest over a long chain never holds the chain's JSON at once.
    """
    if chain.anchor_height:
        anchor = hashing.canonical_json(_anchor(chain))
        yield b'{"anchor":' + anchor + b',"blocks":['
    else:
        yield b'{"blocks":['  # sorts before the two scalar keys
    yield from hashing.iter_canonical_json_items(
        _chain_entry(block) for block in chain
    )
    scalars = hashing.canonical_json(
        {
            "difficulty_bits": chain.difficulty_bits,
            "format_version": FORMAT_VERSION,
        }
    )
    yield b"]," + scalars[1:]


def chain_from_json(document: str, verify: bool = True) -> Blockchain:
    """Rebuild a chain from :func:`chain_to_json` output.

    With ``verify`` (default) every block is revalidated on append —
    linkage, PoW, signatures — and recorded hashes must match exactly.
    This is a decode boundary (snapshot recovery reads through it): a
    malformed document of any shape raises :class:`LedgerError`.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise LedgerError(f"not valid chain JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise LedgerError(f"chain document is a {type(data).__name__}")
    if data.get("format_version") != FORMAT_VERSION:
        raise LedgerError(
            f"unsupported format version {data.get('format_version')!r}"
        )
    try:
        return _decode_chain(data, verify)
    except LedgerError:
        raise
    except (
        ReproError, KeyError, IndexError, TypeError, ValueError,
        AttributeError, OverflowError,
    ) as exc:
        raise LedgerError(
            f"malformed chain document: {type(exc).__name__}: {exc}"
        ) from exc


def _decode_chain(data: Dict[str, Any], verify: bool) -> Blockchain:
    anchor = data.get("anchor", {"height": 0, "hash": GENESIS_PARENT})
    chain = Blockchain(
        difficulty_bits=data["difficulty_bits"],
        anchor_height=anchor["height"],
        anchor_hash=anchor["hash"],
    )
    for entry in data["blocks"]:
        block = block_from_dict(entry)
        if verify:
            recomputed = block.hash()
            if recomputed != entry["hash"]:
                raise LedgerError(
                    f"hash mismatch at height {block.height}: recorded "
                    f"{entry['hash'][:12]}..., recomputed "
                    f"{recomputed[:12]}..."
                )
            chain.append(block)
        else:
            chain._blocks.append(block)  # noqa: SLF001 - explicit fast path
    return chain
