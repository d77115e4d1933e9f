"""Integration: fork reorgs with protocol blocks + universal auditing."""

import pytest

from repro.core.audit import audit_outcome
from repro.ledger.block import GENESIS_PARENT
from repro.ledger.forks import BlockTree
from repro.ledger.miner import Miner, open_transactions
from repro.protocol.allocator import DecloudAllocator, decode_round
from repro.protocol.exposure import Participant
from tests.conftest import make_offer, make_request


def _mine_block(miner, participants_and_bids, parent_hash=None, height=None):
    """Run the two-phase flow on one miner and return the block."""
    reveals = []
    for participant, bid in participants_and_bids:
        tx = participant.seal(bid)
        miner.accept_transaction(tx)
    preamble = miner.build_preamble()
    if parent_hash is not None or height is not None:
        # Rebuild at an explicit chain position (for forks).
        from repro.ledger import pow as pow_mod
        from repro.ledger.block import BlockPreamble

        preamble = BlockPreamble(
            height=height if height is not None else preamble.height,
            parent_hash=(
                parent_hash if parent_hash is not None else preamble.parent_hash
            ),
            transactions=preamble.transactions,
            timestamp=preamble.timestamp,
        )
        nonce = pow_mod.solve(
            preamble.pow_payload(), miner.difficulty_bits
        )
        preamble = preamble.with_nonce(nonce)
    for participant, _ in participants_and_bids:
        reveals.extend(participant.reveals_for(preamble))
    body = miner.build_body(preamble, tuple(reveals))
    from repro.ledger.block import Block

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


class TestForkReorg:
    def test_protocol_blocks_flow_through_tree(self):
        tree = BlockTree(difficulty_bits=6)
        miner_a = Miner(
            miner_id="a", allocate=DecloudAllocator(), difficulty_bits=6
        )
        block0 = _mine_block(miner_a, _participants("r0"))
        root = tree.add_block(block0)

        # Two miners extend the root concurrently -> a fork.
        miner_b = Miner(
            miner_id="b", allocate=DecloudAllocator(), difficulty_bits=6
        )
        miner_c = Miner(
            miner_id="c", allocate=DecloudAllocator(), difficulty_bits=6
        )
        fork_b = _mine_block(
            miner_b, _participants("rb"), parent_hash=root, height=1
        )
        fork_c = _mine_block(
            miner_c, _participants("rc"), parent_hash=root, height=1
        )
        hash_b = tree.add_block(fork_b)
        tree.add_block(fork_c)
        assert tree.head() == hash_b  # first arrival wins the tie

        # Fork C grows a second block: the tree reorganizes onto C.
        miner_c2 = Miner(
            miner_id="c2", allocate=DecloudAllocator(), difficulty_bits=6
        )
        fork_c2 = _mine_block(
            miner_c2,
            _participants("rc2"),
            parent_hash=fork_c.hash(),
            height=2,
        )
        head = tree.add_block(fork_c2)
        assert tree.head() == head
        canonical = [b.hash() for b in tree.canonical_chain()]
        assert canonical == [root, fork_c.hash(), fork_c2.hash()]
        # Block B's allocation is void (orphaned); its participants are
        # free to resubmit.
        orphans = {b.hash() for b in tree.orphaned_blocks()}
        assert fork_b.hash() in orphans


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
