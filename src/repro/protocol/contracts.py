"""Smart-contract agreement layer (paper §III-B).

After a block with an allocation suggestion is accepted by the miner
network, clients *accept* or *deny* their suggested match by invoking
contract methods.  The contract checks that the referenced block exists,
that the allocation it carries really associates the client's request
with the claimed provider, and then walks an agreement state machine:

    SUGGESTED --accept--> AGREED
    SUGGESTED --deny----> DENIED   (provider must resubmit its offer;
                                    the client takes a reputation penalty)

Providers cannot reject clients (§III-B), but may require a minimum
client reputation, enforced here at ``accept`` time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ContractError
from repro.ledger.chain import Blockchain
from repro.protocol.reputation import ReputationLedger


class AgreementState(enum.Enum):
    SUGGESTED = "suggested"
    AGREED = "agreed"
    DENIED = "denied"


@dataclass
class Agreement:
    """State of one suggested (request, offer) match."""

    request_id: str
    offer_id: str
    client_id: str
    provider_id: str
    payment: float
    block_hash: str
    state: AgreementState = AgreementState.SUGGESTED


@dataclass
class AllocationContract:
    """The agreement smart contract, executing against a chain view."""

    chain: Blockchain
    reputation: ReputationLedger = field(default_factory=ReputationLedger)
    provider_thresholds: Dict[str, float] = field(default_factory=dict)
    _agreements: Dict[Tuple[str, str], Agreement] = field(default_factory=dict)
    #: offers whose clients denied the match — providers must resubmit
    resubmission_queue: List[str] = field(default_factory=list)

    def set_provider_threshold(self, provider_id: str, threshold: float) -> None:
        """Provider opts into a minimum client reputation (§III-B)."""
        if not 0.0 <= threshold <= 1.0:
            raise ContractError("reputation threshold must be in [0, 1]")
        self.provider_thresholds[provider_id] = threshold

    # ------------------------------------------------------------------
    # Contract state ingestion
    # ------------------------------------------------------------------
    def register_block(self, block_hash: str, client_index: Dict[str, str]) -> None:
        """Load a block's allocation suggestion into contract storage.

        ``client_index`` maps request id -> client id (the chain payload
        stores only ids; the market-level identity mapping comes from the
        round's participants).
        """
        block = self.chain.find_block(block_hash)
        if block is None:
            raise ContractError(f"unknown block {block_hash[:12]}...")
        body = block.require_complete()
        for entry in body.allocation.get("matches", []):
            request_id = entry["request_id"]
            key = (block_hash, request_id)
            if key in self._agreements:
                continue
            self._agreements[key] = Agreement(
                request_id=request_id,
                offer_id=entry["offer_id"],
                client_id=client_index.get(request_id, ""),
                provider_id=entry.get("provider_id", ""),
                payment=float(entry["payment"]),
                block_hash=block_hash,
            )

    def _lookup(self, block_hash: str, request_id: str) -> Agreement:
        agreement = self._agreements.get((block_hash, request_id))
        if agreement is None:
            raise ContractError(
                f"no suggested allocation for request {request_id} in "
                f"block {block_hash[:12]}..."
            )
        return agreement

    # ------------------------------------------------------------------
    # Contract methods invoked by clients
    # ------------------------------------------------------------------
    def accept(self, client_id: str, block_hash: str, request_id: str) -> Agreement:
        """The ``accept`` method: enter the agreement with the provider."""
        agreement = self._lookup(block_hash, request_id)
        self._check_caller(agreement, client_id)
        if agreement.state is not AgreementState.SUGGESTED:
            raise ContractError(
                f"request {request_id} is already {agreement.state.value}"
            )
        threshold = self.provider_thresholds.get(agreement.provider_id)
        if threshold is not None and not self.reputation.meets_threshold(
            client_id, threshold
        ):
            raise ContractError(
                f"client {client_id} reputation "
                f"{self.reputation.score(client_id):.2f} below provider "
                f"threshold {threshold:.2f}"
            )
        agreement.state = AgreementState.AGREED
        self.reputation.record_acceptance(client_id)
        return agreement

    def deny(self, client_id: str, block_hash: str, request_id: str) -> Agreement:
        """The ``deny`` method: reject the match, penalizing reputation.

        The provider's offer joins the resubmission queue so it can be
        posted again in a later round (paper §III-B).
        """
        agreement = self._lookup(block_hash, request_id)
        self._check_caller(agreement, client_id)
        if agreement.state is not AgreementState.SUGGESTED:
            raise ContractError(
                f"request {request_id} is already {agreement.state.value}"
            )
        agreement.state = AgreementState.DENIED
        self.reputation.record_rejection(client_id)
        self.resubmission_queue.append(agreement.offer_id)
        return agreement

    @staticmethod
    def _check_caller(agreement: Agreement, client_id: str) -> None:
        if agreement.client_id and agreement.client_id != client_id:
            raise ContractError(
                f"caller {client_id} does not own request "
                f"{agreement.request_id}"
            )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def state_of(self, block_hash: str, request_id: str) -> AgreementState:
        return self._lookup(block_hash, request_id).state

    def agreements(self, state: Optional[AgreementState] = None) -> List[Agreement]:
        out = list(self._agreements.values())
        if state is not None:
            out = [a for a in out if a.state is state]
        return out
