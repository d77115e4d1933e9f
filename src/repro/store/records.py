"""Typed WAL record schema: what a durable node journals, and how.

Each record type names one atomic state transition.  The journaling
contract is **write-ahead with logical redo**: the record carries enough
information to re-apply the transition to the recovered state from
scratch — it is appended to the log *before* the in-memory mutation, and
recovery replays records in ``seq`` order against a fresh state (the
crashed process's in-memory state is discarded entirely, so every
transition is applied exactly once).

Record types and their ``data`` payloads:

``mempool.admit``
    ``{"tx": <tx dict>}`` — one sealed-bid transaction entering the
    mempool (:func:`repro.ledger.serialization.tx_to_dict` shape).
``chain.append``
    ``{"block": <block dict>, "hash": h}`` — a quorum-verified block
    extending the chain.  A sealed bid is journaled once: where the
    node's attached mempool holds a transaction *equal in every field*
    to the block's (so its ``mempool.admit`` record, or a snapshot's
    pending pool, already carries the bytes), the block dict lists
    ``{"admitted": <txid>}`` in its place.  Equality, not the txid,
    decides — a txid does not commit to the signature — and a
    transaction this node never admitted, or admitted under another
    signature, is embedded in full.  Replay resolves each reference from
    the recovered mempool (a missing referent is a
    :class:`~repro.common.errors.RecoveryError`), re-validates structure
    and then removes the included transactions from the mempool
    (mirroring :meth:`repro.ledger.miner.Miner.commit_block`).  A log
    with every transaction embedded replays the same way.
``round.phase``
    ``{"round": i, "phase": p, ...}`` — an exposure-protocol round
    entering phase ``p`` (``begin``/``mine``/``reveal``/``propose``/
    ``verify``/``commit``/``committed``/``aborted``).  Pure markers: they
    carry no redo state, but recovery reads the last one to decide
    whether a round was in flight and how far it durably got.
``settlement.block``
    ``{"block_hash": h, "auto_fund": b, "entries": [...]}`` — the full
    settlement *intent* for one block (escrow ids are reserved before
    the record is written), journaled before any escrow opens.  Replay
    re-runs the whole intent atomically, which is what makes a crash
    between individual escrow opens harmless.
``escrow.open`` / ``escrow.transition``
    A standalone escrow opening, and a held escrow moving to
    ``released`` or ``refunded``.
``token.mint`` / ``token.transfer``
    Direct token-ledger operations outside any settlement intent.
``snapshot.mark``
    A snapshot was persisted covering everything up to this record —
    informational (snapshots carry their own ``last_seq``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common.errors import RecoveryError, StoreError
from repro.ledger.block import Block
from repro.ledger.mempool import Mempool
from repro.ledger.serialization import (
    block_from_dict,
    block_to_dict,
    tx_from_dict,
    tx_to_dict,
)

MEMPOOL_ADMIT = "mempool.admit"
CHAIN_APPEND = "chain.append"
ROUND_PHASE = "round.phase"
SETTLEMENT_BLOCK = "settlement.block"
ESCROW_OPEN = "escrow.open"
ESCROW_TRANSITION = "escrow.transition"
TOKEN_MINT = "token.mint"
TOKEN_TRANSFER = "token.transfer"
SNAPSHOT_MARK = "snapshot.mark"

RECORD_TYPES = frozenset(
    {
        MEMPOOL_ADMIT,
        CHAIN_APPEND,
        ROUND_PHASE,
        SETTLEMENT_BLOCK,
        ESCROW_OPEN,
        ESCROW_TRANSITION,
        TOKEN_MINT,
        TOKEN_TRANSFER,
        SNAPSHOT_MARK,
    }
)


def encode_data(
    record_type: str, data: Dict[str, Any], mempool: Optional[Mempool] = None
) -> Dict[str, Any]:
    """JSON-ready payload for one record: live ledger objects become
    their canonical dict forms, everything else passes through.
    ``mempool`` is the journaling node's pending pool, which a
    ``chain.append`` record may refer to (see the module docstring)."""
    if record_type not in RECORD_TYPES:
        raise StoreError(f"unknown WAL record type {record_type!r}")
    if record_type == MEMPOOL_ADMIT:
        return {"tx": tx_to_dict(data["tx"])}
    if record_type == CHAIN_APPEND:
        block = data["block"]

        def refer_or_embed(tx):
            txid = tx.txid()
            if mempool is not None and mempool.get(txid) == tx:
                return {"admitted": txid}
            return tx_to_dict(tx)

        return {
            "block": block_to_dict(block, refer_or_embed),
            "hash": block.hash(),
        }
    return dict(data)


def decode_tx(data: Dict[str, Any]):
    return tx_from_dict(data["tx"])


def decode_block(data: Dict[str, Any], mempool: Mempool) -> Block:
    """The journaled block, references resolved from ``mempool`` — the
    pool as recovered up to this record."""

    def resolve(entry):
        if "admitted" not in entry:
            return tx_from_dict(entry)
        tx = mempool.get(entry["admitted"])
        if tx is None:
            raise RecoveryError(
                f"chain.append refers to transaction "
                f"{str(entry['admitted'])[:12]}... which the recovered "
                "mempool does not hold"
            )
        return tx

    return block_from_dict(data["block"], resolve)
