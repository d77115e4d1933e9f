"""Unit tests for transactions, blocks, chain, and mempool."""

import dataclasses

import pytest

from repro.common.errors import InvalidBlockError, SignatureError
from repro.cryptosim import schnorr, symmetric
from repro.ledger import pow as pow_mod
from repro.ledger.block import GENESIS_PARENT, Block, BlockBody, BlockPreamble
from repro.ledger.chain import Blockchain
from repro.ledger.mempool import Mempool
from repro.ledger.miner import make_sealed_bid
from repro.ledger.transaction import SealedBidTransaction
from tests import rfc8032


def _tx(sender="alice", plaintext=b"bid-data", seed=b"k"):
    keypair = schnorr.KeyPair.generate(seed=seed)
    tx, reveal = make_sealed_bid(
        sender_id=sender,
        keypair=keypair,
        plaintext=plaintext,
        temp_key=symmetric.generate_key(seed=b"t" + seed),
        nonce=b"n" * 16,
    )
    return tx, reveal


def _mined_preamble(txs, height=0, parent=GENESIS_PARENT, bits=8):
    preamble = BlockPreamble(
        height=height, parent_hash=parent, transactions=tuple(txs), timestamp=0.0
    )
    nonce = pow_mod.solve(preamble.pow_payload(), bits)
    return preamble.with_nonce(nonce)


def _signed_body(preamble, miner_seed=b"m", allocation=None):
    keypair = schnorr.KeyPair.generate(seed=miner_seed)
    body = BlockBody(
        reveals=(),
        allocation=allocation or {"matches": []},
        miner_id="miner-x",
        miner_public=keypair.public,
    )
    return body.signed_by(keypair, preamble.hash())


class TestTransaction:
    def test_valid_signature(self):
        tx, _ = _tx()
        assert tx.verify_signature()

    def test_txid_stable_and_distinct(self):
        tx, _ = _tx()
        assert tx.txid() == tx.txid()
        other, _ = _tx(sender="bob", seed=b"k2")
        assert tx.txid() != other.txid()

    def test_tampered_sender_fails(self):
        tx, _ = _tx()
        bad = dataclasses.replace(tx, sender_id="mallory")
        assert not bad.verify_signature()

    def test_tampered_box_fails(self):
        tx, _ = _tx()
        bad_box = symmetric.SealedBox(
            nonce=tx.box.nonce,
            ciphertext=b"\x00" + tx.box.ciphertext[1:],
            tag=tx.box.tag,
        )
        bad = dataclasses.replace(tx, box=bad_box)
        assert not bad.verify_signature()

    def test_require_valid_raises(self):
        tx, _ = _tx()
        bad = dataclasses.replace(tx, sender_id="mallory")
        with pytest.raises(SignatureError):
            bad.require_valid()


class TestPreamble:
    def test_hash_includes_nonce(self):
        preamble = _mined_preamble([])
        assert preamble.hash() != preamble.with_nonce(
            preamble.pow_nonce + 1
        ).hash()

    def test_check_pow(self):
        preamble = _mined_preamble([], bits=10)
        assert preamble.check_pow(10)

    def test_evidence_matches_hash(self):
        preamble = _mined_preamble([])
        assert preamble.evidence().hex() == preamble.hash()

    def test_pow_payload_covers_transactions(self):
        tx, _ = _tx()
        with_tx = BlockPreamble(0, GENESIS_PARENT, (tx,), 0.0)
        without = BlockPreamble(0, GENESIS_PARENT, (), 0.0)
        assert with_tx.pow_payload() != without.pow_payload()


class TestBody:
    def test_signature_roundtrip(self):
        preamble = _mined_preamble([])
        body = _signed_body(preamble)
        assert body.verify_signature(preamble.hash())

    def test_allocation_tamper_detected(self):
        preamble = _mined_preamble([])
        body = _signed_body(preamble)
        bad = dataclasses.replace(body, allocation={"matches": ["fake"]})
        assert not bad.verify_signature(preamble.hash())

    def test_block_hash_changes_with_body(self):
        preamble = _mined_preamble([])
        a = Block(preamble=preamble, body=_signed_body(preamble))
        b = Block(
            preamble=preamble,
            body=_signed_body(preamble, allocation={"matches": [1]}),
        )
        assert a.hash() != b.hash()

    def test_require_complete_raises_without_body(self):
        preamble = _mined_preamble([])
        with pytest.raises(InvalidBlockError):
            Block(preamble=preamble).require_complete()


class TestBlockchain:
    def _block(self, chain, allocation=None):
        preamble = _mined_preamble(
            [], height=chain.next_height, parent=chain.tip_hash,
            bits=chain.difficulty_bits,
        )
        return Block(preamble=preamble, body=_signed_body(preamble, allocation=allocation))

    def test_append_and_linkage(self):
        chain = Blockchain(difficulty_bits=8)
        for i in range(3):
            chain.append(self._block(chain, allocation={"round": i}))
        assert len(chain) == 3
        assert chain.verify_linkage()

    def test_wrong_height_rejected(self):
        chain = Blockchain(difficulty_bits=8)
        block = self._block(chain)
        chain.append(block)
        with pytest.raises(InvalidBlockError):
            chain.append(block)  # same height again

    def test_wrong_parent_rejected(self):
        chain = Blockchain(difficulty_bits=8)
        chain.append(self._block(chain))
        preamble = _mined_preamble([], height=1, parent="ff" * 32, bits=8)
        bad = Block(preamble=preamble, body=_signed_body(preamble))
        with pytest.raises(InvalidBlockError):
            chain.append(bad)

    def test_bad_pow_rejected(self):
        chain = Blockchain(difficulty_bits=20)
        preamble = BlockPreamble(0, GENESIS_PARENT, (), 0.0)  # unmined
        bad = Block(preamble=preamble, body=_signed_body(preamble))
        if preamble.check_pow(20):  # pragma: no cover - astronomically rare
            pytest.skip("nonce 0 accidentally valid")
        with pytest.raises(InvalidBlockError):
            chain.append(bad)

    def test_bad_miner_signature_rejected(self):
        chain = Blockchain(difficulty_bits=8)
        preamble = _mined_preamble([], bits=8)
        body = _signed_body(preamble)
        bad = Block(
            preamble=preamble,
            body=dataclasses.replace(body, allocation={"forged": True}),
        )
        with pytest.raises(InvalidBlockError):
            chain.append(bad)

    def test_find_block(self):
        chain = Blockchain(difficulty_bits=8)
        block = self._block(chain)
        chain.append(block)
        assert chain.find_block(block.hash()) is block
        assert chain.find_block("00" * 32) is None

    def test_tip_of_empty_chain(self):
        chain = Blockchain()
        assert chain.tip is None
        assert chain.tip_hash == GENESIS_PARENT


class TestMempool:
    def test_submit_and_drain(self):
        pool = Mempool()
        tx, _ = _tx()
        txid = pool.submit(tx)
        assert txid in pool
        assert pool.drain(10) == [tx]
        assert len(pool) == 0

    def test_idempotent_submission(self):
        pool = Mempool()
        tx, _ = _tx()
        pool.submit(tx)
        pool.submit(tx)
        assert len(pool) == 1

    def test_fifo_order(self):
        pool = Mempool()
        txs = [_tx(sender=f"s{i}", seed=bytes([i]))[0] for i in range(5)]
        for tx in txs:
            pool.submit(tx)
        assert pool.drain(5) == txs

    def test_peek_does_not_remove(self):
        pool = Mempool()
        tx, _ = _tx()
        pool.submit(tx)
        assert pool.peek(1) == [tx]
        assert len(pool) == 1

    def test_limit_respected(self):
        pool = Mempool()
        for i in range(5):
            pool.submit(_tx(sender=f"s{i}", seed=bytes([i]))[0])
        assert len(pool.drain(3)) == 3
        assert len(pool) == 2

    def test_invalid_signature_rejected(self):
        pool = Mempool()
        tx, _ = _tx()
        bad = dataclasses.replace(tx, sender_id="mallory")
        with pytest.raises(SignatureError):
            pool.submit(bad)

    @pytest.mark.parametrize(
        "signature", [(1.0, 2.0), ("1", "2"), (None, None), (True, True)]
    )
    def test_non_integer_signature_rejected_not_raised(self, signature):
        # a hostile frame must be a typed rejection, not a TypeError
        pool = Mempool()
        tx, _ = _tx()
        with pytest.raises(SignatureError):
            pool.submit(dataclasses.replace(tx, signature=signature))
        assert len(pool) == 0

    def test_forged_signature_under_degenerate_key_rejected(self):
        # Under a small-order key (the all-zero key has order 4, the
        # identity order 1) a small-order R with S = 0 passes RFC 8032's
        # check for some payloads and needs no secret; admission must
        # refuse every such "signature".
        tx, _ = _tx()
        forged = []
        for public in (bytes(32), (1).to_bytes(32, "little")):
            unsigned = dataclasses.replace(
                tx, sender_id="mallory", sender_public=public
            )
            forged += [
                dataclasses.replace(
                    unsigned, signature=rfc8032.compress(point) + bytes(32)
                )
                for point in rfc8032.small_order_points()
            ]
        assert any(
            rfc8032.verify(f.sender_public, f.signing_payload(), f.signature)
            for f in forged
        )
        pool = Mempool()
        for candidate in forged:
            with pytest.raises(SignatureError):
                pool.submit(candidate)
        assert len(pool) == 0
