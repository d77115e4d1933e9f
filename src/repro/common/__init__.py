"""Shared primitives: errors, time model, seeded randomness."""

from repro.common.errors import (
    AuctionError,
    ByzantineFaultError,
    ContractError,
    CryptoError,
    DecryptionError,
    EquivocationError,
    InfeasibleMatchError,
    InsecureKeyWarning,
    InvalidBlockError,
    PrunedHistoryError,
    LedgerError,
    ProtocolError,
    QuorumError,
    ReproError,
    RevealTimeoutError,
    SignatureError,
    TimeoutError,
    ValidationError,
)
from repro.common.rng import block_evidence_rng, make_generator, spawn_child
from repro.common.timewindow import TimeWindow

__all__ = [
    "AuctionError",
    "ByzantineFaultError",
    "ContractError",
    "CryptoError",
    "DecryptionError",
    "EquivocationError",
    "InfeasibleMatchError",
    "InsecureKeyWarning",
    "InvalidBlockError",
    "PrunedHistoryError",
    "LedgerError",
    "ProtocolError",
    "QuorumError",
    "ReproError",
    "RevealTimeoutError",
    "SignatureError",
    "TimeoutError",
    "ValidationError",
    "TimeWindow",
    "make_generator",
    "block_evidence_rng",
    "spawn_child",
]
