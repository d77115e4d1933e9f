"""Distributed-ledger substrate: blocks, PoW, chain, mempool, miners.

This package is auction-agnostic: bid ciphertexts are opaque bytes and the
allocation function is injected into :class:`~repro.ledger.miner.Miner`.
The DeCloud-specific wiring lives in :mod:`repro.protocol`.
"""

from repro.ledger.block import (
    GENESIS_PARENT,
    Block,
    BlockBody,
    BlockPreamble,
    KeyReveal,
)
from repro.ledger.serialization import chain_from_json, chain_to_json
from repro.ledger.chain import Blockchain
from repro.ledger.mempool import Mempool
from repro.ledger.miner import Miner, make_sealed_bid
from repro.ledger.network import BroadcastNetwork, Message
from repro.ledger.pow import check, leading_zero_bits, solve
from repro.ledger.transaction import SealedBidTransaction

__all__ = [
    "GENESIS_PARENT",
    "Block",
    "BlockBody",
    "BlockPreamble",
    "KeyReveal",
    "chain_to_json",
    "chain_from_json",
    "Blockchain",
    "Mempool",
    "Miner",
    "make_sealed_bid",
    "BroadcastNetwork",
    "Message",
    "check",
    "leading_zero_bits",
    "solve",
    "SealedBidTransaction",
]
