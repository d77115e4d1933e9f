"""Integration: adversarial behaviour against the ledger and protocol."""

import dataclasses

import pytest

from repro.common.errors import (
    InvalidBlockError,
    ProtocolError,
    RevealTimeoutError,
)
from repro.cryptosim import schnorr, symmetric
from repro.faults.actors import EquivocatingMiner, WithholdingParticipant
from repro.ledger.block import Block, KeyReveal
from repro.ledger.miner import Miner, make_sealed_bid
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.exposure import ExposureProtocol, Participant
from tests.conftest import make_offer, make_request


def _network(n=3, bits=6):
    return [
        Miner(miner_id=f"m{i}", allocate=DecloudAllocator(), difficulty_bits=bits)
        for i in range(n)
    ]


def _submit_all(miners, participants_and_bids):
    reveals = []
    for participant, bid in participants_and_bids:
        tx = participant.seal(bid)
        for miner in miners:
            miner.accept_transaction(tx)
    return reveals


class _GossipAll:
    """Seals each bid and admits it to every miner at once: the mempools
    a lossless gossip round leaves before the leader mines."""

    def __init__(self, miners):
        self.miners = miners

    def submit(self, participant, bid):
        tx = participant.seal(bid)
        for miner in self.miners:
            miner.accept_transaction(tx)
        return tx


class TestCheatingLeader:
    def _round_setup(self):
        miners = _network()
        alice = Participant(participant_id="alice")
        anna = Participant(participant_id="anna")
        bob = Participant(participant_id="bob")
        bids = [
            (alice, make_request(request_id="ra", client_id="alice", bid=2.0)),
            (anna, make_request(request_id="rb", client_id="anna", bid=1.5)),
            (bob, make_offer(provider_id="bob", bid=0.4)),
        ]
        _submit_all(miners, bids)
        leader = miners[0]
        preamble = leader.build_preamble()
        reveals = []
        for participant, _ in bids:
            reveals.extend(participant.reveals_for(preamble))
        return miners, leader, preamble, tuple(reveals)

    def test_censoring_leader_rejected(self):
        miners, leader, preamble, reveals = self._round_setup()
        body = leader.build_body(preamble, reveals)
        censored = dataclasses.replace(
            body,
            allocation={**body.allocation, "matches": []},
        ).signed_by(leader.keypair, preamble.hash())
        for peer in miners[1:]:
            with pytest.raises(InvalidBlockError):
                peer.accept_block(Block(preamble=preamble, body=censored))

    def test_self_dealing_leader_rejected(self):
        miners, leader, preamble, reveals = self._round_setup()
        body = leader.build_body(preamble, reveals)
        doctored_matches = [
            {**m, "payment": 0.0} for m in body.allocation["matches"]
        ]
        doctored = dataclasses.replace(
            body,
            allocation={**body.allocation, "matches": doctored_matches},
        ).signed_by(leader.keypair, preamble.hash())
        if doctored.allocation == body.allocation:
            pytest.skip("no matches to doctor")
        for peer in miners[1:]:
            with pytest.raises(InvalidBlockError):
                peer.accept_block(Block(preamble=preamble, body=doctored))

    def test_honest_block_accepted_by_all(self):
        miners, leader, preamble, reveals = self._round_setup()
        block = Block(
            preamble=preamble, body=leader.build_body(preamble, reveals)
        )
        for miner in miners:
            miner.accept_block(block)
        assert len({m.chain.tip_hash for m in miners}) == 1


class TestMisbehavingParticipants:
    def test_key_swap_after_preamble_detected(self):
        miners = _network(n=1)
        alice = Participant(participant_id="alice")
        tx = alice.seal(make_request(client_id="alice"))
        miners[0].accept_transaction(tx)
        preamble = miners[0].build_preamble()
        (reveal,) = alice.reveals_for(preamble)
        # Alice tries to reveal a different key (to change her bid).
        other_key = symmetric.generate_key(seed=b"other")
        forged = KeyReveal(
            sender_id="alice",
            txid=reveal.txid,
            temp_key=other_key,
            blind=reveal.blind,
        )
        with pytest.raises(ProtocolError):
            miners[0].build_body(preamble, (forged,))

    def test_withholding_key_only_hurts_withholder(self):
        miners = _network(n=1)
        alice = Participant(participant_id="alice")
        anna = Participant(participant_id="anna")
        bob = Participant(participant_id="bob")
        txs = [
            alice.seal(make_request(request_id="ra", client_id="alice", bid=2.0)),
            anna.seal(make_request(request_id="rb", client_id="anna", bid=1.9)),
            bob.seal(make_offer(provider_id="bob", bid=0.4)),
        ]
        for tx in txs:
            miners[0].accept_transaction(tx)
        preamble = miners[0].build_preamble()
        reveals = []
        reveals.extend(anna.reveals_for(preamble))
        reveals.extend(bob.reveals_for(preamble))
        # Alice never reveals: her bid silently drops out of the round.
        body = miners[0].build_body(preamble, tuple(reveals))
        matched = {m["request_id"] for m in body.allocation["matches"]}
        assert "ra" not in matched

    def test_spoofed_ownership_dropped_by_allocator(self):
        # Mallory seals a request claiming to be from alice.
        miners = _network(n=1)
        mallory = Participant(participant_id="mallory")
        keypair = schnorr.KeyPair.generate(seed=b"mallory")
        foreign = make_request(client_id="alice", bid=2.0)
        tx, reveal = make_sealed_bid(
            sender_id="mallory", keypair=keypair, plaintext=foreign.to_json()
        )
        miners[0].accept_transaction(tx)
        preamble = miners[0].build_preamble()
        body = miners[0].build_body(preamble, (reveal,))
        assert body.allocation["matches"] == []

    def test_forged_transaction_signature_rejected_at_submission(self):
        miners = _network(n=1)
        alice = Participant(participant_id="alice")
        tx = alice.seal(make_request(client_id="alice"))
        forged = dataclasses.replace(tx, sender_id="eve")
        from repro.common.errors import SignatureError

        with pytest.raises(SignatureError):
            miners[0].accept_transaction(forged)


class TestDegradedRounds:
    """Full-protocol degradation: faults reach run_round, not just miners."""

    def _market(self, protocol, alice_cls=Participant):
        alice = alice_cls(participant_id="alice", deterministic=True)
        anna = Participant(participant_id="anna", deterministic=True)
        ada = Participant(participant_id="ada", deterministic=True)
        bob = Participant(participant_id="bob", deterministic=True)
        ben = Participant(participant_id="ben", deterministic=True)
        alice_txid = protocol.submit(
            alice, make_request(request_id="ra", client_id="alice", bid=2.0)
        ).txid()
        protocol.submit(
            anna, make_request(request_id="rb", client_id="anna", bid=1.5)
        )
        protocol.submit(
            ada, make_request(request_id="rc", client_id="ada", bid=1.0)
        )
        protocol.submit(bob, make_offer(offer_id="ob", provider_id="bob", bid=0.4))
        protocol.submit(ben, make_offer(offer_id="oc", provider_id="ben", bid=0.6))
        return [alice, anna, ada, bob, ben], alice_txid

    def test_withheld_reveal_excluded_and_round_clears(self):
        protocol = ExposureProtocol(miners=_network())
        participants, alice_txid = self._market(
            protocol, alice_cls=WithholdingParticipant
        )
        result = protocol.run_round(participants)
        assert result.excluded_txids == (alice_txid,)
        matched = {
            m["request_id"] for m in result.block.body.allocation["matches"]
        }
        assert "ra" not in matched
        assert matched  # the surviving market still trades

    def test_every_reveal_withheld_aborts_with_typed_error(self):
        protocol = ExposureProtocol(miners=_network())
        alice = WithholdingParticipant(
            participant_id="alice", deterministic=True
        )
        protocol.submit(alice, make_request(client_id="alice"))
        with pytest.raises(RevealTimeoutError):
            protocol.run_round([alice])

    def test_equivocating_leader_replaced_and_chains_converge(self):
        miners = [
            EquivocatingMiner(
                miner_id="m0", allocate=DecloudAllocator(), difficulty_bits=6
            )
        ] + _network()[1:]
        protocol = ExposureProtocol(miners=miners)
        participants, _ = self._market(protocol)
        result = protocol.run_round(participants)
        assert result.failed_proposers == ("m0",)
        assert result.block.body.miner_id != "m0"
        # every approving miner committed the same honest block
        assert len({m.chain.tip_hash for m in miners}) == 1

    def test_duplicated_and_reordered_gossip_is_idempotent(self):
        miners = _network()
        participants, _ = self._market(_GossipAll(miners))
        leader = miners[0]
        preamble = leader.build_preamble()
        phash = preamble.hash()
        reveals = [
            r for p in participants for r in p.reveals_for(preamble)
        ]
        # reveals race ahead of the preamble, then everything repeats
        for miner in miners:
            for reveal in reveals:
                miner.accept_reveal(phash, reveal)
            assert miner.accept_preamble(preamble) is True
            assert miner.accept_preamble(preamble) is False
            for reveal in reveals:
                assert miner.accept_reveal(phash, reveal) is False
            assert len(miner.collected_reveals(preamble)) == len(reveals)
