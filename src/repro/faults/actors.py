"""Byzantine actor models: drop-in misbehaving participants and miners.

Each actor subclasses the honest implementation and misbehaves in
exactly one way, so simulations and tests can mix them freely with
honest peers and attribute every degradation to a single fault:

* :class:`WithholdingParticipant` — seals bids but never discloses keys
  (the paper's denial path: its bids are excluded, the round clears).
* :class:`TamperingParticipant` — discloses *wrong* keys, hoping to swap
  its bid after seeing the preamble; screening rejects the reveal at
  admission, which degrades to the withholding case.
* :class:`GarbageSealingParticipant` — seals bytes that decrypt cleanly
  but decode to no bid of its own (not JSON, or a bid naming another
  sender); its reveal is admitted and the clear's decoder drops the bid.
* :class:`EquivocatingMiner` — wins the round then proposes a body whose
  allocation does not match honest re-execution (and can mint a second
  conflicting body for the same preamble); peers reject it and the
  protocol falls back to the next miner.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

from repro.common.errors import EquivocationError
from repro.cryptosim import symmetric
from repro.ledger.block import BlockBody, BlockPreamble, KeyReveal
from repro.ledger.miner import Miner
from repro.ledger.transaction import SealedBidTransaction
from repro.market.bids import Offer, Request
from repro.protocol.exposure import Participant


@dataclass
class WithholdingParticipant(Participant):
    """Never reveals any key: every sealed bid silently stays sealed."""

    def reveals_for(self, preamble: BlockPreamble) -> List[KeyReveal]:
        return []

    def re_reveal(
        self,
        preamble: BlockPreamble,
        txids: Optional[Iterable[str]] = None,
    ) -> List[KeyReveal]:
        return []


@dataclass
class TamperingParticipant(Participant):
    """Reveals forged keys, attempting a post-preamble bid swap.

    The forged key is derived deterministically from the txid so runs
    stay reproducible.  The commitment broadcast alongside the sealed
    bid betrays the forgery at admission screening.
    """

    def _forge(self, reveal: KeyReveal) -> KeyReveal:
        return KeyReveal(
            sender_id=reveal.sender_id,
            txid=reveal.txid,
            temp_key=symmetric.generate_key(
                seed=b"tampered" + reveal.txid.encode("ascii")
            ),
            blind=reveal.blind,
        )

    def reveals_for(self, preamble: BlockPreamble) -> List[KeyReveal]:
        return [self._forge(r) for r in super().reveals_for(preamble)]

    def re_reveal(
        self,
        preamble: BlockPreamble,
        txids: Optional[Iterable[str]] = None,
    ) -> List[KeyReveal]:
        return [self._forge(r) for r in super().re_reveal(preamble, txids)]


@dataclass
class GarbageSealingParticipant(Participant):
    """Seals a plaintext that opens cleanly but is not a bid of its own.

    With ``impersonate`` unset the plaintext is not JSON at all; set, it
    is the bid re-owned by ``impersonate`` — well formed, but naming a
    sender other than the one who signed the transaction.  Both pass
    admission (the key opens its commitment and the box), so the bid
    reaches the clear and the decoder must drop it there.
    """

    impersonate: Optional[str] = None

    def seal(self, bid: Union[Request, Offer]) -> SealedBidTransaction:
        if self.impersonate is None:
            return self._seal_bytes(b"\xffnot a bid: " + bid.to_json())
        owner = "client_id" if isinstance(bid, Request) else "provider_id"
        forged = dataclasses.replace(bid, **{owner: self.impersonate})
        return self._seal_bytes(forged.to_json())


def _doctor_allocation(allocation: dict, miner_id: str) -> dict:
    """A self-serving rewrite guaranteed to differ from the honest payload."""
    doctored = dict(allocation)
    matches = [dict(m) for m in doctored.get("matches", [])]
    if matches:
        for match in matches:
            match["payment"] = 0.0
        doctored["matches"] = matches
    # An empty round gives nothing to skim, so the attacker plants a
    # subsidy line instead — either way re-execution cannot match.
    doctored["subsidy"] = miner_id
    return doctored


@dataclass
class EquivocatingMiner(Miner):
    """A leader that signs bodies honest re-execution cannot reproduce."""

    def honest_body(
        self, preamble: BlockPreamble, reveals: Tuple[KeyReveal, ...]
    ) -> BlockBody:
        return super().build_body(preamble, reveals)

    def build_body(
        self, preamble: BlockPreamble, reveals: Tuple[KeyReveal, ...]
    ) -> BlockBody:
        honest = self.honest_body(preamble, reveals)
        doctored = BlockBody(
            reveals=honest.reveals,
            allocation=_doctor_allocation(honest.allocation, self.miner_id),
            miner_id=self.miner_id,
            miner_public=self.keypair.public,
        )
        return doctored.signed_by(self.keypair, preamble.hash())

    def equivocate(
        self, preamble: BlockPreamble, reveals: Tuple[KeyReveal, ...]
    ) -> Tuple[BlockBody, BlockBody]:
        """Two validly-signed, mutually inconsistent bodies for one preamble."""
        return (
            self.honest_body(preamble, reveals).signed_by(
                self.keypair, preamble.hash()
            ),
            self.build_body(preamble, reveals),
        )


def detect_equivocation(
    preamble: BlockPreamble, body_a: BlockBody, body_b: BlockBody
) -> None:
    """Raise :class:`EquivocationError` on proof of a double-signed preamble.

    Two bodies signed by the same miner over the same preamble with
    different payloads are cryptographic evidence of equivocation —
    exactly what a slashing contract would consume.
    """
    phash = preamble.hash()
    if body_a.miner_id != body_b.miner_id:
        return
    if not (
        body_a.verify_signature(phash) and body_b.verify_signature(phash)
    ):
        return
    if body_a.signing_payload(phash) != body_b.signing_payload(phash):
        raise EquivocationError(
            f"miner {body_a.miner_id} signed two conflicting bodies for "
            f"preamble {phash[:12]}..."
        )
