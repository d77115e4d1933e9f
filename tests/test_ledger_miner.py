"""Unit tests for the miner node and the network bus."""

import dataclasses

import pytest

from repro.common.errors import InvalidBlockError, ProtocolError, SignatureError
from repro.cryptosim import schnorr
from repro.ledger.block import Block, BlockPreamble, KeyReveal
from repro.ledger.miner import Miner, make_sealed_bid
from repro.ledger.network import BroadcastNetwork
from repro.ledger.transaction import SealedBidTransaction


def echo_allocator(plaintexts, evidence):
    """Deterministic toy allocation: record sorted sender ids."""
    return {
        "senders": sorted(plaintexts),
        "counts": {k: len(v) for k, v in sorted(plaintexts.items())},
    }


def _miner(miner_id="m0", bits=8):
    return Miner(miner_id=miner_id, allocate=echo_allocator, difficulty_bits=bits)


def _sealed(sender, plaintext=b"data"):
    keypair = schnorr.KeyPair.generate(seed=sender.encode())
    return make_sealed_bid(sender_id=sender, keypair=keypair, plaintext=plaintext)


class TestMinerRound:
    def test_full_round(self):
        miner = _miner()
        tx, reveal = _sealed("alice")
        miner.accept_transaction(tx)
        preamble = miner.build_preamble()
        assert preamble.check_pow(miner.difficulty_bits)
        body = miner.build_body(preamble, (reveal,))
        assert body.allocation["senders"] == ["alice"]
        block = Block(preamble=preamble, body=body)
        miner.accept_block(block)
        assert len(miner.chain) == 1
        assert len(miner.mempool) == 0

    def test_withheld_key_drops_bid(self):
        miner = _miner()
        tx_a, reveal_a = _sealed("alice")
        tx_b, _ = _sealed("bob")
        miner.accept_transaction(tx_a)
        miner.accept_transaction(tx_b)
        preamble = miner.build_preamble()
        body = miner.build_body(preamble, (reveal_a,))
        assert body.allocation["senders"] == ["alice"]

    def test_bad_commitment_raises(self):
        miner = _miner()
        tx, reveal = _sealed("alice")
        miner.accept_transaction(tx)
        preamble = miner.build_preamble()
        bad = KeyReveal(
            sender_id="alice",
            txid=reveal.txid,
            temp_key=b"\x00" * 32,
            blind=reveal.blind,
        )
        with pytest.raises(ProtocolError):
            miner.build_body(preamble, (bad,))

    def test_peer_verifies_by_reexecution(self):
        leader, peer = _miner("leader"), _miner("peer")
        tx, reveal = _sealed("alice")
        leader.accept_transaction(tx)
        peer.accept_transaction(tx)
        preamble = leader.build_preamble()
        block = Block(preamble=preamble, body=leader.build_body(preamble, (reveal,)))
        peer.accept_block(block)
        assert len(peer.chain) == 1
        assert len(peer.mempool) == 0  # included tx evicted

    def test_peer_rejects_forged_allocation(self):
        leader, peer = _miner("leader"), _miner("peer")
        tx, reveal = _sealed("alice")
        leader.accept_transaction(tx)
        peer.accept_transaction(tx)
        preamble = leader.build_preamble()
        body = leader.build_body(preamble, (reveal,))
        forged = dataclasses.replace(
            body, allocation={"senders": [], "counts": {}}
        ).signed_by(leader.keypair, preamble.hash())
        with pytest.raises(InvalidBlockError):
            peer.accept_block(Block(preamble=preamble, body=forged))

    def test_multiple_bids_per_sender(self):
        miner = _miner()
        keypair = schnorr.KeyPair.generate(seed=b"alice")
        reveals = []
        for i in range(3):
            tx, reveal = make_sealed_bid(
                sender_id="alice", keypair=keypair, plaintext=f"bid{i}".encode()
            )
            miner.accept_transaction(tx)
            reveals.append(reveal)
        preamble = miner.build_preamble()
        body = miner.build_body(preamble, tuple(reveals))
        assert body.allocation["counts"]["alice"] == 3

    def test_deterministic_keypair_from_id(self):
        assert _miner("mx").keypair == _miner("mx").keypair


class TestRevealScreening:
    """``accept_reveal`` finds its transaction through a per-preamble index."""

    def _round(self, senders=("alice", "bob", "carol")):
        miner = _miner()
        reveals = []
        for sender in senders:
            tx, reveal = _sealed(sender)
            miner.accept_transaction(tx)
            reveals.append(reveal)
        return miner, miner.build_preamble(), reveals

    def test_reveals_admitted_in_preamble_order(self):
        miner, preamble, reveals = self._round()
        miner.accept_preamble(preamble)
        for reveal in reversed(reveals):
            assert miner.accept_reveal(preamble.hash(), reveal) is True
        assert miner.collected_reveals(preamble) == tuple(reveals)

    def test_duplicate_reveal_is_idempotent(self):
        miner, preamble, reveals = self._round()
        miner.accept_preamble(preamble)
        assert miner.accept_reveal(preamble.hash(), reveals[0]) is True
        assert miner.accept_reveal(preamble.hash(), reveals[0]) is False
        assert miner.rejected_reveals == []

    def test_unknown_txid_is_byzantine_evidence(self):
        miner, preamble, reveals = self._round()
        miner.accept_preamble(preamble)
        stray = dataclasses.replace(reveals[0], txid="f" * 64)
        assert miner.accept_reveal(preamble.hash(), stray) is False
        assert miner.rejected_reveals == [(stray, "unknown txid")]
        assert miner.collected_reveals(preamble) == ()

    def test_reveal_before_preamble_is_screened_on_arrival(self):
        miner, preamble, reveals = self._round()
        stray = dataclasses.replace(reveals[1], txid="f" * 64)
        assert miner.accept_reveal(preamble.hash(), reveals[0]) is False
        assert miner.accept_reveal(preamble.hash(), stray) is False
        assert miner.rejected_reveals == []  # nothing to screen against yet
        miner.accept_preamble(preamble)
        assert miner.collected_reveals(preamble) == (reveals[0],)
        assert miner.rejected_reveals == [(stray, "unknown txid")]

    def test_wrong_key_still_rejected(self):
        miner, preamble, reveals = self._round()
        miner.accept_preamble(preamble)
        forged = dataclasses.replace(reveals[0], temp_key=b"\x00" * 32)
        assert miner.accept_reveal(preamble.hash(), forged) is False
        assert miner.rejected_reveals == [(forged, "commitment mismatch")]

    def test_screening_a_block_of_reveals_is_linear_in_txids(self, monkeypatch):
        senders = [f"s{i}" for i in range(12)]
        miner, preamble, reveals = self._round(senders)
        calls = []
        real = SealedBidTransaction.txid
        monkeypatch.setattr(
            SealedBidTransaction,
            "txid",
            lambda tx: calls.append(1) or real(tx),
        )
        miner.accept_preamble(preamble)
        for reveal in reveals:
            assert miner.accept_reveal(preamble.hash(), reveal) is True
        # one pass to index the preamble, none per reveal (a scan per
        # reveal made this ~n^2/2 = 72 for 12 bids)
        assert len(calls) == len(senders)


class TestSignatureCacheFollowsThePendingPool:
    def test_committed_bids_leave_the_cache_pending_ones_stay(
        self, schnorr_verify_calls
    ):
        miner = _miner()
        committed, reveal = _sealed("alice")
        pending, _ = _sealed("bob")
        miner.accept_transaction(committed)
        preamble = miner.build_preamble()
        miner.accept_transaction(pending)
        assert len(miner.signatures) == 2
        block = Block(preamble=preamble, body=miner.build_body(preamble, (reveal,)))
        miner.accept_block(block)
        assert len(miner.signatures) == 1
        schnorr_verify_calls.clear()
        miner.accept_transaction(pending)  # still remembered
        assert schnorr_verify_calls == []
        miner.accept_transaction(committed)  # a late duplicate: checked again
        assert [m for _k, m, _s in schnorr_verify_calls] == [
            committed.signing_payload()
        ]


class TestVerifyOncePerNode:
    """The miner's ``SignatureCache`` saves work and admits nothing new."""

    def _block_with(self, miner, preamble, reveals):
        return Block(preamble=preamble, body=miner.build_body(preamble, reveals))

    def test_mempool_and_chain_share_the_miners_cache(self):
        miner = _miner()
        assert miner.mempool.signatures is miner.signatures
        assert miner.chain.signatures is miner.signatures

    def test_bid_verified_once_from_admission_to_commit(self, schnorr_verify_calls):
        miner = _miner()
        tx, reveal = _sealed("alice")
        miner.accept_transaction(tx)
        miner.accept_transaction(tx)  # gossip duplicate
        preamble = miner.build_preamble()
        miner.accept_block(self._block_with(miner, preamble, (reveal,)))
        messages = [message for _public, message, _sig in schnorr_verify_calls]
        assert messages.count(tx.signing_payload()) == 1
        assert len(miner.chain) == 1

    def test_two_miners_share_nothing(self, schnorr_verify_calls):
        first, second = _miner("a"), _miner("b")
        assert first.signatures is not second.signatures
        tx, _ = _sealed("alice")
        first.accept_transaction(tx)
        schnorr_verify_calls.clear()
        second.accept_transaction(tx)
        assert schnorr_verify_calls == [
            (tx.sender_public, tx.signing_payload(), tx.signature)
        ]

    def _forgeries(self, tx):
        mallory = schnorr.KeyPair.generate(seed=b"mallory")
        tampered = bytearray(tx.signature)
        tampered[32] ^= 1  # the low bit of S
        return {
            "tampered signature": dataclasses.replace(
                tx, signature=bytes(tampered)
            ),
            "another key": dataclasses.replace(tx, sender_public=mallory.public),
        }

    def test_forgery_sharing_a_cached_txid_is_refused_at_admission(
        self, schnorr_verify_calls
    ):
        miner = _miner()
        tx, _ = _sealed("alice")
        miner.accept_transaction(tx)
        schnorr_verify_calls.clear()
        for name, forged in self._forgeries(tx).items():
            # the txid commits to the signed payload, not to the signature
            assert forged.txid() == tx.txid(), name
            for _attempt in range(2):  # a failure is never remembered either
                with pytest.raises(SignatureError):
                    miner.accept_transaction(forged)
        assert len(schnorr_verify_calls) == 4
        assert miner.mempool.peek(10) == [tx]

    def test_forgery_sharing_a_cached_block_hash_is_refused_in_a_block(self):
        miner, peer = _miner("leader"), _miner("peer")
        tx, reveal = _sealed("alice")
        for node in (miner, peer):
            node.accept_transaction(tx)
        preamble = miner.build_preamble()
        honest = self._block_with(miner, preamble, (reveal,))
        peer.verify_block(honest)  # every honest signature is cached now
        for name, forged in self._forgeries(tx).items():
            doctored = Block(
                preamble=BlockPreamble(
                    height=preamble.height,
                    parent_hash=preamble.parent_hash,
                    transactions=(forged,),
                    timestamp=preamble.timestamp,
                    pow_nonce=preamble.pow_nonce,
                ),
                body=honest.body,
            )
            # same payloads, so the same PoW, body signature and block hash
            assert doctored.hash() == honest.hash(), name
            with pytest.raises(InvalidBlockError, match="invalid signature"):
                peer.chain.validate_candidate(doctored)
            with pytest.raises(InvalidBlockError, match="invalid signature"):
                peer.accept_block(doctored)
        assert len(peer.chain) == 0
        peer.accept_block(honest)
        assert len(peer.chain) == 1

    def test_non_integer_signature_is_a_signature_error_at_admission(self):
        miner = _miner()
        tx, _ = _sealed("alice")
        for signature in ((1.0, 2.0), ("1", "2"), (None, None), (True, True)):
            with pytest.raises(SignatureError):
                miner.accept_transaction(
                    dataclasses.replace(tx, signature=signature)
                )
        assert len(miner.mempool) == 0 and len(miner.signatures) == 0

    def test_three_miner_lockstep_round_verifies_each_bid_three_times(
        self, schnorr_verify_calls
    ):
        from repro.protocol.exposure import Participant, build_miner_network
        from tests.conftest import make_offer, make_request

        protocol = build_miner_network(3, difficulty_bits=6)
        owners = {
            name: Participant(participant_id=name, deterministic=True)
            for name in ("alice", "anna", "bob")
        }
        txs = [
            protocol.submit(
                owners["alice"],
                make_request(request_id="req-a", client_id="alice", bid=2.0),
            ),
            protocol.submit(
                owners["anna"],
                make_request(request_id="req-b", client_id="anna", bid=1.5),
            ),
            protocol.submit(owners["bob"], make_offer(provider_id="bob", bid=0.5)),
        ]
        result = protocol.run_round(list(owners.values()))
        assert len(result.accepted_by) == 3
        bid_payloads = {tx.signing_payload() for tx in txs}
        bid_verifies = [
            message
            for _public, message, _sig in schnorr_verify_calls
            if message in bid_payloads
        ]
        # once per miner: at admission — not again in verify_block's and
        # commit_block's validate_candidate (that was 9 per bid)
        assert len(bid_verifies) / len(txs) == 3


class TestBroadcastNetwork:
    def test_delivery(self):
        network = BroadcastNetwork()
        seen = []
        network.subscribe("topic", lambda sender, payload: seen.append((sender, payload)))
        network.broadcast("topic", 42, sender="n1")
        assert seen == [("n1", 42)]

    def test_multiple_subscribers(self):
        network = BroadcastNetwork()
        a, b = [], []
        network.subscribe("t", lambda s, p: a.append(p))
        network.subscribe("t", lambda s, p: b.append(p))
        network.broadcast("t", "x")
        assert a == ["x"] and b == ["x"]

    def test_topic_isolation(self):
        network = BroadcastNetwork()
        seen = []
        network.subscribe("a", lambda s, p: seen.append(p))
        network.broadcast("b", "invisible")
        assert seen == []

    def test_log(self):
        network = BroadcastNetwork()
        network.broadcast("t", 1, sender="x")
        network.broadcast("u", 2, sender="y")
        assert [m.payload for m in network.messages("t")] == [1]
        assert len(network.log) == 2

    def test_log_keeps_a_window_of_recent_traffic(self):
        from repro.ledger.network import LOG_LIMIT

        network = BroadcastNetwork()
        seen = []
        network.subscribe("t", lambda s, p: seen.append(p))
        for i in range(LOG_LIMIT + 5):
            network.broadcast("t", i)
        assert seen == list(range(LOG_LIMIT + 5))  # delivery is not windowed
        assert [m.payload for m in network.messages("t")] == seen[5:]
        assert BroadcastNetwork().log is not network.log
