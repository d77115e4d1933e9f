"""The ledger's two encodings: a JSON audit document, a binary journal.

Anyone can audit a DeCloud deployment from its chain: every block
carries the sealed bids, the disclosed keys, and the allocation — enough
to re-derive and re-verify everything.  :func:`chain_to_json` writes a
:class:`~repro.ledger.chain.Blockchain` as a portable JSON document and
:func:`chain_from_json` reads it back, preserving hashes bit-for-bit;
snapshots and the state digest use the same dict forms.

A node's write-ahead log (``repro.store``) holds transactions and blocks
in the binary codec at the end of this module: each field once, raw,
behind its length where it has no fixed width.  Its decoders return an
object or raise :class:`LedgerError`.  Both encodings reuse the value
objects' cached canonical bytes (``repro.ledger.block``), so a block's
allocation is serialized once whatever hashes, exports or journals it.
"""

from __future__ import annotations

import functools
import json
import re
import struct
from sys import intern
from typing import Any, Callable, Dict, Iterator, Optional

from repro.common.errors import CryptoError, LedgerError, ReproError
from repro.cryptosim import hashing
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


def tx_from_dict(data: Dict[str, Any]) -> SealedBidTransaction:
    """A decoded chain names the same few signers block after block:
    their ids and keys (and, below, a reveal's txid, which its
    transaction interns too) are shared, not held once per bid."""
    return SealedBidTransaction(
        sender_id=intern(data["sender_id"]),
        sender_public=_shared(_raw(data["sender_public"], 32, "public key")),
        box=SealedBox.from_bytes(bytes.fromhex(data["box"])),
        key_commitment=Commitment(
            digest=bytes.fromhex(data["key_commitment"])
        ),
        signature=_raw(data["signature"], 64, "signature"),
    )


def block_to_dict(block: Block) -> Dict[str, Any]:
    preamble = block.preamble
    body = block.body
    out: Dict[str, Any] = {
        "preamble": {
            "height": preamble.height,
            "parent_hash": preamble.parent_hash,
            "timestamp": preamble.timestamp,
            "pow_nonce": preamble.pow_nonce,
            "transactions": [tx_to_dict(tx) for tx in preamble.transactions],
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


def block_from_dict(data: Dict[str, Any]) -> Block:
    pre = data["preamble"]
    preamble = BlockPreamble(
        height=pre["height"],
        parent_hash=pre["parent_hash"],
        transactions=tuple(tx_from_dict(t) for t in pre["transactions"]),
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
            miner_public=_shared(_raw(raw["miner_public"], 32, "public key")),
            signature=_raw(raw["signature"], 64, "signature"),
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


# The journal's binary codec: big-endian; a record's variable-width
# fields follow the fixed header that holds their lengths.
#: sender id length, key, signature, key commitment, sealed box length
_TX = struct.Struct(">H32s64s32sI")
#: height, parent hash, timestamp (IEEE double), nonce, transaction count
_PREAMBLE = struct.Struct(">Q32sdQI")
#: a reveal's sender id, txid, key and blind lengths (u32: a bidder picks
#: its blind's length, and one reveal must not make a block unjournalable)
_REVEAL = struct.Struct(">IIII")
#: allocation JSON length, miner id length, miner key, signature
_TAIL = struct.Struct(">IH32s64s")
_U32 = struct.Struct(">I")
_REFERENCE, _EMBEDDED = b"\x00", b"\x01"
_HASH = re.compile("[0-9a-f]{64}")


def encode_tx(tx: SealedBidTransaction) -> bytes:
    """:data:`_TX`, then the sender id (UTF-8) and the sealed box."""
    fixed = (tx.sender_public, tx.signature, tx.key_commitment.digest)
    if tuple(map(len, fixed)) != (32, 64, 32):
        raise LedgerError("key, signature or commitment of another width")
    sender, box = tx.sender_id.encode(), tx.box.to_bytes()
    try:
        return _TX.pack(len(sender), *fixed, len(box)) + sender + box
    except struct.error as exc:
        raise LedgerError(f"transaction field out of range: {exc}") from None


def encode_block(block: Block, held: Callable[[str], Any] = {}.get) -> bytes:
    """:data:`_PREAMBLE`; per transaction ``0x00`` and its txid where
    ``held(txid)``, the reader's copy, is *equal* to it (a txid does not
    commit to the signature), else ``0x01`` and :func:`encode_tx`;
    ``0x00``, or ``0x01``, the reveal count (u32) and per reveal
    :data:`_REVEAL` and its fields, then :data:`_TAIL`, the body's cached
    canonical allocation JSON and the miner id."""
    pre, body = block.preamble, block.body
    if not (type(pre.timestamp) is float and _HASH.fullmatch(pre.parent_hash)):
        raise LedgerError("parent hash or timestamp of another form")
    try:
        parts = [_PREAMBLE.pack(
            pre.height, bytes.fromhex(pre.parent_hash), pre.timestamp,
            pre.pow_nonce, len(pre.transactions),
        )]
        for tx in pre.transactions:
            txid = tx.txid()
            copy = held(txid)
            if copy is tx or copy == tx:
                parts += (_REFERENCE, bytes.fromhex(txid))
            else:
                parts += (_EMBEDDED, encode_tx(tx))
        if body is None:
            return b"".join(parts) + b"\x00"
        if (len(body.miner_public), len(body.signature)) != (32, 64):
            raise LedgerError("miner key or signature of another width")
        parts.append(b"\x01" + _U32.pack(len(body.reveals)))
        for reveal in body.reveals:
            sender, txid = reveal.sender_id.encode(), reveal.txid.encode()
            key, blind = reveal.temp_key, reveal.blind
            head = _REVEAL.pack(len(sender), len(txid), len(key), len(blind))
            parts += (head, sender, txid, key, blind)
        allocation, miner = body.allocation_bytes(), body.miner_id.encode()
        parts += (
            _TAIL.pack(
                len(allocation), len(miner), body.miner_public, body.signature
            ),
            allocation,
            miner,
        )
    except struct.error as exc:
        raise LedgerError(f"block field out of range: {exc}") from None
    return b"".join(parts)


class _Reader:
    """A cursor over codec bytes: reading past their end, or stopping
    short of it, is a :class:`LedgerError`."""

    def __init__(self, data: bytes) -> None:
        self.data, self.at = bytes(data), 0

    def take(self, size: int) -> bytes:
        start, self.at = self.at, self.at + size
        if self.at > len(self.data):
            raise LedgerError("codec bytes end inside a field")
        return self.data[start : self.at]

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.take(layout.size))

    def text(self, size: int) -> str:
        try:
            return intern(self.take(size).decode())
        except UnicodeDecodeError:
            raise LedgerError("a codec text field is not UTF-8") from None

    def tx(self) -> SealedBidTransaction:
        sender, public, signature, digest, size = self.unpack(_TX)
        sender_id = self.text(sender)
        try:
            box = SealedBox.from_bytes(self.take(size))
        except CryptoError as exc:
            raise LedgerError(f"undecodable sealed box: {exc}") from None
        return SealedBidTransaction(
            sender_id, _shared(public), box, Commitment(digest), signature
        )

    def end(self, value: Any) -> Any:
        if self.at != len(self.data):
            raise LedgerError(f"{len(self.data) - self.at} bytes past the end")
        return value


def decode_tx(data: bytes) -> SealedBidTransaction:
    reader = _Reader(data)
    return reader.end(reader.tx())


def decode_block(
    data: bytes, resolve: Optional[Callable[[str], Any]] = None
) -> Block:
    """The block :func:`encode_block` wrote; ``resolve`` turns each txid
    it refers to into its transaction."""
    reader = _Reader(data)
    height, parent, timestamp, nonce, count = reader.unpack(_PREAMBLE)
    transactions = []
    for _ in range(count):
        tag = reader.take(1)
        if tag == _EMBEDDED:
            transactions.append(reader.tx())
        elif tag == _REFERENCE and resolve is not None:
            transactions.append(resolve(reader.take(32).hex()))
        else:
            raise LedgerError(f"no transaction to read under tag {tag!r}")
    preamble = BlockPreamble(
        height, parent.hex(), tuple(transactions), timestamp, nonce
    )
    flag = reader.take(1)
    if flag == b"\x00":
        return reader.end(Block(preamble))
    if flag != b"\x01":
        raise LedgerError(f"no block body under flag {flag!r}")
    reveals = []
    for _ in range(reader.unpack(_U32)[0]):
        sender, txid, key, blind = reader.unpack(_REVEAL)
        reveals.append(KeyReveal(
            reader.text(sender), reader.text(txid), reader.take(key),
            reader.take(blind),
        ))
    size, miner, key, signature = reader.unpack(_TAIL)
    try:
        allocation = json.loads(reader.take(size))
    except (ValueError, RecursionError) as exc:
        raise LedgerError(f"undecodable allocation: {exc}") from None
    body = BlockBody(
        tuple(reveals), allocation, reader.text(miner), _shared(key), signature
    )
    return reader.end(Block(preamble, body))
