"""DeCloud's decentralized operation: two-phase bid exposure, contracts,
reputation."""

from repro.protocol.allocator import DecloudAllocator, decode_round
from repro.protocol.contracts import (
    Agreement,
    AgreementState,
    AllocationContract,
)
from repro.protocol.exposure import (
    ExposureProtocol,
    Participant,
    RoundResult,
    build_miner_network,
)
from repro.protocol.identity import IdentityRegistry
from repro.protocol.reputation import (
    ReputationLedger,
    ReputationRecord,
    attach_reputation_resource,
)
from repro.protocol.settlement import (
    Escrow,
    EscrowState,
    SettlementProcessor,
    TokenLedger,
)

__all__ = [
    "DecloudAllocator",
    "decode_round",
    "Agreement",
    "AgreementState",
    "AllocationContract",
    "ExposureProtocol",
    "IdentityRegistry",
    "Participant",
    "RoundResult",
    "build_miner_network",
    "ReputationLedger",
    "ReputationRecord",
    "attach_reputation_resource",
    "Escrow",
    "EscrowState",
    "SettlementProcessor",
    "TokenLedger",
]
