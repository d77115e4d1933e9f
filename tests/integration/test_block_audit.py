"""Integration: any observer audits a mined block from its revealed content."""

from repro.core.audit import audit_outcome
from repro.ledger.block import Block
from repro.ledger.miner import Miner, open_transactions
from repro.protocol.allocator import DecloudAllocator, decode_round
from repro.protocol.exposure import Participant
from tests.conftest import make_offer, make_request


def _mine_block(miner, participants_and_bids):
    """Run the two-phase flow on one miner and return the block."""
    reveals = []
    for participant, bid in participants_and_bids:
        tx = participant.seal(bid)
        miner.accept_transaction(tx)
    preamble = miner.build_preamble()
    for participant, _ in participants_and_bids:
        reveals.extend(participant.reveals_for(preamble))
    body = miner.build_body(preamble, tuple(reveals))
    return Block(preamble=preamble, body=body)


def _participants(tag):
    alice = Participant(participant_id=f"alice-{tag}")
    anna = Participant(participant_id=f"anna-{tag}")
    bob = Participant(participant_id=f"bob-{tag}")
    return [
        (alice, make_request(
            request_id=f"ra-{tag}", client_id=f"alice-{tag}", bid=2.0
        )),
        (anna, make_request(
            request_id=f"rb-{tag}", client_id=f"anna-{tag}", bid=1.5
        )),
        (bob, make_offer(
            offer_id=f"o-{tag}", provider_id=f"bob-{tag}", bid=0.4
        )),
    ]


class TestBlockAudit:
    def test_every_chain_block_audits_clean(self):
        """Any observer can audit any block from its revealed content."""
        miner = Miner(
            miner_id="m", allocate=DecloudAllocator(), difficulty_bits=6
        )
        block = _mine_block(miner, _participants("x"))
        body = block.require_complete()
        plaintexts = open_transactions(block.preamble, body.reveals)
        requests, offers = decode_round(plaintexts)

        allocator = DecloudAllocator()
        allocator(plaintexts, block.preamble.evidence())
        outcome = allocator.last_outcome
        assert outcome is not None
        assert outcome.to_payload() == body.allocation
        report = audit_outcome(requests, offers, outcome)
        assert report.ok, str(report)
