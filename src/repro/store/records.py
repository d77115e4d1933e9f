"""Typed WAL record schema: what a durable node journals, and how.

Each record type names one atomic state transition.  The journaling
contract is **write-ahead with logical redo**: the record is appended to
the log *before* the in-memory mutation and carries enough to re-apply
the transition to a fresh state, and recovery replays records in ``seq``
order, so every transition applies exactly once.  docs/DURABILITY.md
tables what each type journals.

A ``mempool.admit`` or ``chain.append`` body is the ledger's binary
codec of the transaction or block (``repro.ledger.serialization``); a
block refers by txid to each transaction the journaling node's mempool
holds an equal copy of, so each sealed bid is journaled once.  Every
other body is the record's ``data`` as canonical JSON.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common.errors import RecoveryError
from repro.cryptosim.hashing import canonical_json
from repro.ledger import serialization
from repro.ledger.block import Block
from repro.ledger.mempool import Mempool

MEMPOOL_ADMIT = "mempool.admit"
CHAIN_APPEND = "chain.append"
ROUND_PHASE = "round.phase"
SETTLEMENT_BLOCK = "settlement.block"
ESCROW_OPEN = "escrow.open"
ESCROW_TRANSITION = "escrow.transition"
TOKEN_MINT = "token.mint"
TOKEN_TRANSFER = "token.transfer"
SNAPSHOT_MARK = "snapshot.mark"

#: in the order of a frame's type byte (``repro.store.wal``)
RECORD_TYPES = (
    MEMPOOL_ADMIT,
    CHAIN_APPEND,
    ROUND_PHASE,
    SETTLEMENT_BLOCK,
    ESCROW_OPEN,
    ESCROW_TRANSITION,
    TOKEN_MINT,
    TOKEN_TRANSFER,
    SNAPSHOT_MARK,
)


def encode_data(
    record_type: str, data: Dict[str, Any], mempool: Optional[Mempool] = None
) -> bytes:
    """The body of one record; ``mempool`` is the journaling node's
    pending pool, which a ``chain.append`` body may refer to."""
    if record_type == MEMPOOL_ADMIT:
        return serialization.encode_tx(data["tx"])
    if record_type == CHAIN_APPEND:
        held = {}.get if mempool is None else mempool.get
        return serialization.encode_block(data["block"], held)
    return canonical_json(data)


def decode_block(body: bytes, mempool: Mempool) -> Block:
    """The journaled block, references resolved from ``mempool`` — the
    pool as recovered up to this record."""

    def resolve(txid: str):
        tx = mempool.get(txid)
        if tx is None:
            raise RecoveryError(
                f"chain.append refers to transaction {txid[:12]}... which "
                "the recovered mempool does not hold"
            )
        return tx

    return serialization.decode_block(body, resolve)
