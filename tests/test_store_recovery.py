"""NodeStore recovery: journaled subsystems rebuild bit-for-bit."""

import dataclasses

import pytest

from repro.common.errors import (
    LedgerError,
    RecoveryError,
    SignatureError,
    StoreError,
)
from repro.ledger.block import Block
from repro.ledger.chain import Blockchain
from repro.ledger.mempool import Mempool
from repro.ledger.miner import Miner, make_sealed_bid
from repro.ledger.serialization import decode_block, decode_tx, encode_block
from repro.cryptosim import schnorr
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.settlement import (
    EscrowState,
    SettlementProcessor,
    TokenLedger,
)
from repro.sim.chaos import ChaosSpec, run_durable_scenario
from repro.store import NodeStore, state_digest_of
from repro.store.records import RECORD_TYPES
from repro.store.wal import WAL_FORMAT, encode_envelope, encode_frame
from tests import rfc8032


def sealed_bid(i=0):
    keypair = schnorr.KeyPair.generate(seed=f"sender-{i}".encode())
    tx, _reveal = make_sealed_bid(
        sender_id=f"sender-{i}",
        keypair=keypair,
        plaintext=f"bid-{i}".encode(),
        temp_key=bytes([i]) * 32,
        nonce=bytes([i]) * 16,
        blind=bytes([i]) * 32,
    )
    return tx


def new_miner(miner_id, store=None):
    return Miner(
        miner_id=miner_id,
        allocate=DecloudAllocator(),
        difficulty_bits=4,
        store=store,
    )


def leader_block(bids):
    """A complete block over ``bids`` mined by a node of its own."""
    leader = new_miner("leader")
    for tx in bids:
        leader.accept_transaction(tx)
    preamble = leader.build_preamble()
    return Block(preamble=preamble, body=leader.build_body(preamble, ()))


def _flip_last_bit(hex_text):
    """A hex field with the low bit of its last byte flipped."""
    raw = bytearray.fromhex(hex_text)
    raw[-1] ^= 1
    return raw.hex()


def _with_signature_flipped(body, tx):
    """Codec bytes ``body`` with ``tx``'s signature bit-flipped in place."""
    flipped = bytes.fromhex(_flip_last_bit(tx.signature.hex()))
    assert body.count(tx.signature) == 1
    return body.replace(tx.signature, flipped)


def reframe(store, records):
    """Replace the log with ``records`` re-framed (valid CRCs)."""
    store.wal.backend.replace(
        b"".join(
            encode_frame(encode_envelope(r["seq"], r["type"], r["data"]))
            for r in records
        )
    )
    assert store.wal.scan().clean


def logged_transactions(store):
    """The transactions of the newest ``chain.append`` record: the txid
    where it refers to an admission, the transaction where it embeds one."""
    record = [r for r in store.wal.records() if r["type"] == "chain.append"][-1]
    block = decode_block(record["data"], resolve=lambda txid: txid)
    return list(block.preamble.transactions)


class TestLedgerRecovery:
    def test_token_ops_replay_exactly(self):
        store = NodeStore.in_memory()
        # recovery needs an attached chain/mempool pair for state calls,
        # but the ledger journal alone drives this test
        ledger = TokenLedger()
        store.attach(ledger=ledger)
        ledger.mint("alice", 10.0)
        ledger.transfer("alice", "bob", 2.5)
        eid = ledger.open_escrow("alice", "carol", 3.0)
        ledger.release(eid)
        eid2 = ledger.open_escrow("alice", "carol", 1.0)
        ledger.refund(eid2)

        recovered = store.recover()
        assert recovered.ledger.balances == ledger.balances
        assert recovered.ledger._escrow_counter == ledger._escrow_counter
        assert set(recovered.ledger.escrows) == set(ledger.escrows)
        for eid, escrow in ledger.escrows.items():
            assert recovered.ledger.escrows[eid].state is escrow.state

    def test_settlement_intent_is_atomic_per_block(self):
        store = NodeStore.in_memory()
        ledger = TokenLedger()
        processor = SettlementProcessor(ledger=ledger)
        store.attach(settlement=processor)
        from tests.conftest import make_offer, make_request
        from repro.core.outcome import Match

        matches = [
            Match(
                request=make_request(request_id=f"r{i}", client_id=f"c{i}"),
                offer=make_offer(offer_id=f"o{i}", provider_id=f"p{i}"),
                payment=1.0 + i,
                unit_price=0.5,
            )
            for i in range(3)
        ]
        ids = processor.settle_block(matches, auto_fund=True, block_hash="h1")
        # exactly ONE settlement.block record covers the whole block:
        # mints and opens inside it are not journaled individually
        types = [r["type"] for r in store.wal.records()]
        assert types == ["settlement.block"]

        recovered = store.recover()
        assert recovered.settled_blocks == {"h1": ids}
        assert recovered.ledger.balances == ledger.balances
        assert set(recovered.ledger.escrows) == set(ledger.escrows)

    def test_recovered_settlement_is_idempotent_on_redelivery(self):
        store = NodeStore.in_memory()
        processor = SettlementProcessor(ledger=TokenLedger())
        store.attach(settlement=processor)
        from tests.conftest import make_offer, make_request
        from repro.core.outcome import Match

        match = Match(
            request=make_request(),
            offer=make_offer(),
            payment=2.0,
            unit_price=0.5,
        )
        first = processor.settle_block([match], auto_fund=True, block_hash="hh")
        recovered = store.recover()
        resumed = recovered.make_settlement(store=store)
        again = resumed.settle_block([match], auto_fund=True, block_hash="hh")
        assert again == first
        assert resumed.ledger.total_supply() == pytest.approx(2.0)


class TestChainAndMempoolRecovery:
    def _mined_store(self):
        store = NodeStore.in_memory()
        miner = new_miner("m0", store)
        for i in range(3):
            miner.accept_transaction(sealed_bid(i))
        return store, miner

    def test_mempool_admissions_survive(self):
        store, miner = self._mined_store()
        recovered = store.recover(difficulty_bits=4)
        assert len(recovered.mempool) == 3
        assert [t.txid() for t in recovered.mempool.peek(3)] == [
            t.txid() for t in miner.mempool.peek(3)
        ]

    def test_committed_block_survives_and_evicts_mempool(self):
        store, miner = self._mined_store()
        preamble = miner.build_preamble()
        miner.accept_preamble(preamble)
        body = miner.build_body(preamble, ())
        from repro.ledger.block import Block

        miner.chain.append(Block(preamble=preamble, body=body))
        recovered = store.recover(difficulty_bits=4)
        assert recovered.committed_height == 1
        assert recovered.chain.tip_hash == miner.chain.tip_hash
        assert len(recovered.mempool) == 0

    def test_snapshot_plus_suffix_equals_pure_replay(self):
        store, miner = self._mined_store()
        digest_before = store.recover(difficulty_bits=4).state_digest()
        store.snapshot()
        miner.accept_transaction(sealed_bid(7))
        with_suffix = store.recover(difficulty_bits=4)
        assert with_suffix.snapshot_used
        assert len(with_suffix.mempool) == 4
        # recover twice: recovery is a pure function of durable bytes
        assert (
            store.recover(difficulty_bits=4).state_digest()
            == with_suffix.state_digest()
        )
        assert digest_before != with_suffix.state_digest()

    def _committed_store(self, admitted=(0, 1, 2)):
        """A journaling miner that committed a block of bids 0-2, having
        admitted only ``admitted`` itself beforehand."""
        store = NodeStore.in_memory()
        miner = new_miner("m0", store)
        for i in admitted:
            miner.accept_transaction(sealed_bid(i))
        miner.commit_block(leader_block([sealed_bid(i) for i in range(3)]))
        return store, miner

    def test_recovery_verifies_each_logged_signature_once(
        self, schnorr_verify_calls
    ):
        store, miner = self._committed_store()
        schnorr_verify_calls.clear()
        recovered = store.recover(difficulty_bits=4)
        assert recovered.state_digest() == store.state_digest()
        bids = [tx.signing_payload() for tx in miner.chain[0].preamble.transactions]
        # the admission record and the block carry the same three bids:
        # one verification each, from the logged bytes, plus the body's
        verified = [message for _public, message, _sig in schnorr_verify_calls]
        assert sorted(m for m in verified if m in bids) == sorted(bids)
        assert len(verified) == len(bids) + 1

    @pytest.mark.parametrize("record_type", ["mempool.admit", "chain.append"])
    def test_tampered_logged_signature_fails_recovery(self, record_type):
        # Re-frame the log with one signature bit flipped in one record
        # (CRCs valid, so this is not tail damage).  The txid and the
        # block hash do not cover signatures — recovery must check the
        # tampered bytes themselves.  Bid 0 reached this node only inside
        # the block, so the block record embeds it; bids 1 and 2 are
        # journaled once, in their admission records.
        store, _miner = self._committed_store(admitted=(1, 2))
        assert store.recover(difficulty_bits=4).committed_height == 1
        records = store.wal.records()
        target = [r for r in records if r["type"] == record_type][-1]
        if record_type == "mempool.admit":
            tx = decode_tx(target["data"])
        else:
            transactions = logged_transactions(store)
            assert [isinstance(entry, str) for entry in transactions] == [
                False, True, True,
            ]
            tx = transactions[0]
        target["data"] = _with_signature_flipped(target["data"], tx)
        reframe(store, records)
        with pytest.raises(RecoveryError, match="invalid signature"):
            store.recover(difficulty_bits=4)

    def test_dangling_reference_fails_recovery(self):
        store, _miner = self._committed_store()
        records = store.wal.records()
        block_record = [r for r in records if r["type"] == "chain.append"][-1]
        txid = logged_transactions(store)[1]
        assert isinstance(txid, str)
        block_record["data"] = block_record["data"].replace(
            bytes.fromhex(txid), bytes(32)
        )
        reframe(store, records)
        with pytest.raises(RecoveryError, match="does not hold"):
            store.recover(difficulty_bits=4)

    def test_reference_to_an_admission_the_log_lost_fails_recovery(self):
        store, _miner = self._committed_store()
        records = store.wal.records()
        admit = [r for r in records if r["type"] == "mempool.admit"][0]
        reframe(store, [r for r in records if r is not admit])
        with pytest.raises(RecoveryError, match="does not hold"):
            store.recover(difficulty_bits=4)

    def test_tampered_snapshot_signature_fails_recovery(self):
        from repro.store.snapshot import decode_snapshot, encode_snapshot

        store, _miner = self._mined_store()
        store.snapshot()
        state, last_seq = decode_snapshot(store.snapshots.latest())
        tx = state["mempool"][0]
        tx["signature"] = _flip_last_bit(tx["signature"])
        store.snapshots.save(last_seq, encode_snapshot(state, last_seq))
        with pytest.raises(RecoveryError, match="invalid signature"):
            store.recover(difficulty_bits=4)

    def test_round_phase_markers_tracked(self):
        store, _miner = self._mined_store()
        store.log("round.phase", round=0, phase="reveal")
        recovered = store.recover(difficulty_bits=4)
        assert recovered.round_in_flight() == {"round": 0, "phase": "reveal"}
        store.log("round.phase", round=0, phase="committed", hash="x")
        assert store.recover(difficulty_bits=4).round_in_flight() is None

    def test_unknown_record_type_raises_recovery_error(self):
        store = NodeStore.in_memory()
        with pytest.raises(StoreError, match="unknown WAL record type"):
            store.wal.append("no.such.record", b"{}")
        # a whole frame (valid CRC) of a type byte this version lacks
        unknown = bytes([WAL_FORMAT, len(RECORD_TYPES)]) + bytes(8) + b"{}"
        store.wal.backend.append(encode_frame(unknown))
        with pytest.raises(RecoveryError, match="type byte 9"):
            store.recover()

    def test_torn_tail_truncated_and_counted(self):
        store, _miner = self._mined_store()
        store.wal.backend.append(b"\xd7\xca partial garbage")
        recovered = store.recover(difficulty_bits=4)
        assert recovered.truncated_bytes > 0
        assert len(recovered.mempool) == 3
        # the log is appendable again after recovery
        store.log("round.phase", round=0, phase="seal")

    def test_snapshot_requires_attached_state(self):
        store = NodeStore.in_memory()
        with pytest.raises(StoreError):
            store.snapshot()


def other_valid_signature(keypair, message):
    """A second valid signature on ``message``: RFC 8032's signing
    equations under a nonce the deterministic signer would not pick."""
    signature = rfc8032.sign(keypair.secret, message, nonce=0xDEC10D)
    assert signature != schnorr.sign(keypair.secret, message)
    assert schnorr.verify(keypair.public, message, signature)
    return signature


class TestJournalEachBidOnce:
    """``chain.append`` refers by txid to the bids this node already
    journaled at admission, and embeds every other one."""

    def _assert_recovers_live_state(self, store):
        recovered = store.recover(difficulty_bits=4)
        assert recovered.state_digest() == store.state_digest()
        assert recovered.state_dict() == store.state_dict()
        return recovered

    def test_admitted_bids_are_referenced_and_recover(self):
        store = NodeStore.in_memory()
        miner = new_miner("m0", store)
        bids = [sealed_bid(i) for i in range(3)]
        for tx in bids:
            miner.accept_transaction(tx)
        miner.commit_block(leader_block(bids))
        assert logged_transactions(store) == [tx.txid() for tx in bids]
        recovered = self._assert_recovers_live_state(store)
        assert recovered.chain[0].preamble.transactions == tuple(bids)
        assert len(recovered.mempool) == 0

    def test_reference_survives_compaction_between_admission_and_append(self):
        store = NodeStore.in_memory()
        miner = new_miner("m0", store)
        bids = [sealed_bid(i) for i in range(3)]
        for tx in bids:
            miner.accept_transaction(tx)
        # the second snapshot compacts the log to the first: the
        # admission records are gone
        store.snapshot()
        store.snapshot()
        assert not [
            r for r in store.wal.records() if r["type"] == "mempool.admit"
        ]
        miner.commit_block(leader_block(bids[:2]))
        assert all(isinstance(e, str) for e in logged_transactions(store))
        recovered = self._assert_recovers_live_state(store)
        assert recovered.snapshot_used
        assert [tx.txid() for tx in recovered.mempool.peek(9)] == [
            bids[2].txid()
        ]

    def test_bid_never_admitted_here_is_embedded(self):
        store = NodeStore.in_memory()
        miner = new_miner("m0", store)
        bids = [sealed_bid(i) for i in range(3)]
        miner.accept_transaction(bids[1])
        miner.commit_block(leader_block(bids))
        assert [isinstance(e, str) for e in logged_transactions(store)] == [
            False, True, False,
        ]
        self._assert_recovers_live_state(store)

    def test_same_txid_under_another_signature_is_embedded(self):
        # A txid commits to the signed payload, not to the signature: the
        # block's copy carries a second valid signature, so the pending
        # copy must not stand in for it.
        store = NodeStore.in_memory()
        miner = new_miner("m0", store)
        pending = sealed_bid(0)
        resigned = dataclasses.replace(
            pending,
            signature=other_valid_signature(
                schnorr.KeyPair.generate(seed=b"sender-0"),
                pending.signing_payload(),
            ),
        )
        assert resigned.txid() == pending.txid() and resigned != pending
        miner.accept_transaction(pending)
        miner.commit_block(leader_block([resigned]))
        (entry,) = logged_transactions(store)
        assert entry == resigned
        recovered = self._assert_recovers_live_state(store)
        assert recovered.chain[0].preamble.transactions == (resigned,)

    def test_log_with_every_transaction_embedded_replays(self):
        # the shape a node with no attached mempool journals: each block
        # carries its transactions
        store = NodeStore.in_memory()
        miner = new_miner("m0", store)
        bids = [sealed_bid(i) for i in range(3)]
        for tx in bids:
            miner.accept_transaction(tx)
        miner.commit_block(leader_block(bids))
        live = store.state_digest()
        size_with_references = store.wal.backend.size()
        records = store.wal.records()
        block_record = [r for r in records if r["type"] == "chain.append"][-1]
        block_record["data"] = encode_block(miner.chain[0])
        reframe(store, records)
        assert not any(isinstance(e, str) for e in logged_transactions(store))
        assert store.wal.backend.size() > size_with_references
        assert store.recover(difficulty_bits=4).state_digest() == live

    def test_store_without_a_mempool_embeds_everything(self):
        store = NodeStore.in_memory()
        chain = Blockchain(difficulty_bits=4)
        store.attach(chain=chain)
        chain.append(leader_block([sealed_bid(0)]))
        assert logged_transactions(store) == [sealed_bid(0)]
        assert store.recover(difficulty_bits=4).chain.tip_hash == chain.tip_hash


class TestMempoolFullDuringRecovery:
    """A full pool is a ledger condition, not a bad signature."""

    def test_submit_to_a_full_pool_raises_ledger_error(self):
        mempool = Mempool(max_size=1)
        mempool.submit(sealed_bid(0))
        mempool.submit(sealed_bid(0))  # idempotent, not "full"
        with pytest.raises(LedgerError, match="mempool full") as raised:
            mempool.submit(sealed_bid(1))
        assert not isinstance(raised.value, SignatureError)
        assert len(mempool) == 1

    def _recovering_into_a_one_slot_pool(self, monkeypatch):
        import repro.store.node as node

        monkeypatch.setattr(node, "Mempool", lambda: Mempool(max_size=1))

    def test_wal_replay_into_a_full_pool_is_a_recovery_error(self, monkeypatch):
        store = NodeStore.in_memory()
        mempool = Mempool()
        store.attach(chain=Blockchain(difficulty_bits=4), mempool=mempool)
        mempool.submit(sealed_bid(0))
        mempool.submit(sealed_bid(1))
        self._recovering_into_a_one_slot_pool(monkeypatch)
        with pytest.raises(RecoveryError, match="mempool full"):
            store.recover(difficulty_bits=4)

    def test_snapshot_restore_into_a_full_pool_is_a_recovery_error(
        self, monkeypatch
    ):
        store = NodeStore.in_memory()
        mempool = Mempool()
        store.attach(chain=Blockchain(difficulty_bits=4), mempool=mempool)
        mempool.submit(sealed_bid(0))
        mempool.submit(sealed_bid(1))
        store.snapshot()
        self._recovering_into_a_one_slot_pool(monkeypatch)
        with pytest.raises(RecoveryError, match="mempool full"):
            store.recover(difficulty_bits=4)


class TestStreamedStateDigest:
    """``state_digest()`` feeds the chain to the hash block by block;
    ``state_digest_of(state_dict())`` stays the oracle."""

    def _store_with_chain(self, blocks, bids_per_block=3):
        store = NodeStore.in_memory()
        miner = new_miner("m0", store)
        leader = new_miner("leader")
        for height in range(blocks):
            for i in range(bids_per_block):
                tx = sealed_bid((height * bids_per_block + i) % 251)
                miner.accept_transaction(tx)
                leader.accept_transaction(tx)
            preamble = leader.build_preamble()
            block = Block(
                preamble=preamble, body=leader.build_body(preamble, ())
            )
            leader.commit_block(block)
            miner.commit_block(block)
        miner.accept_transaction(sealed_bid(250))  # a pending one, too
        return store

    def test_equals_the_materialised_digest_live_and_recovered(self):
        store = NodeStore.in_memory()
        store.attach(chain=Blockchain(difficulty_bits=4), mempool=Mempool())
        assert store.state_digest() == state_digest_of(store.state_dict())
        store = self._store_with_chain(blocks=3)
        store.log("round.phase", round=2, phase="committed", hash="é")
        assert store.state_digest() == state_digest_of(store.state_dict())
        recovered = store.recover(difficulty_bits=4)
        assert recovered.state_digest() == state_digest_of(
            recovered.state_dict()
        )
        assert recovered.state_digest() == store.state_digest()

    def test_escrows_and_settled_blocks_stream_to_the_same_digest(self):
        # the keys after "chain" go entry by entry too; several settled
        # blocks and escrows in more than one state, out of hash order
        from tests.conftest import make_offer, make_request
        from repro.core.outcome import Match

        store = self._store_with_chain(blocks=2)
        ledger = TokenLedger()
        processor = SettlementProcessor(ledger=ledger)
        store.attach(ledger=ledger, settlement=processor)
        for block_hash in ("ff", "00", "é7"):
            ids = processor.settle_block(
                [
                    Match(
                        request=make_request(
                            request_id=f"r{block_hash}{i}", client_id=f"c{i}"
                        ),
                        offer=make_offer(
                            offer_id=f"o{block_hash}{i}", provider_id=f"p{i}"
                        ),
                        payment=1.0 + i / 3,
                        unit_price=0.5,
                    )
                    for i in range(3)
                ],
                auto_fund=True,
                block_hash=block_hash,
            )
        ledger.release(sorted(ids.values())[0])
        state = store.state_dict()
        assert len(state["ledger"]["escrows"]) == 9
        assert list(state["settled_blocks"]) == ["ff", "00", "é7"]
        assert store.state_digest() == state_digest_of(store.state_dict())
        recovered = store.recover(difficulty_bits=4)
        assert recovered.state_digest() == store.state_digest()
        assert recovered.state_digest() == state_digest_of(
            recovered.state_dict()
        )

    def test_peak_memory_is_a_fraction_of_the_materialised_path(self):
        import tracemalloc

        store = self._store_with_chain(blocks=60, bids_per_block=4)

        def peak_of(digest):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                value = digest()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return value, peak - before

        oracle, materialised = peak_of(
            lambda: state_digest_of(store.state_dict())
        )
        streamed_value, streamed = peak_of(store.state_digest)
        assert streamed_value == oracle
        assert streamed < materialised / 4, (streamed, materialised)


class TestFileBackedStore:
    def test_full_round_trip_from_disk(self, tmp_path):
        directory = str(tmp_path / "node0")
        store = NodeStore.at_path(directory)
        ledger = TokenLedger()
        chain = Blockchain(difficulty_bits=4)
        mempool = Mempool()
        store.attach(chain=chain, mempool=mempool, ledger=ledger)
        ledger.mint("alice", 5.0)
        mempool.submit(sealed_bid(1))
        store.snapshot()
        ledger.mint("bob", 1.0)
        digest = store.state_digest()
        store.close()

        reopened = NodeStore.at_path(directory)
        recovered = reopened.recover(difficulty_bits=4)
        assert recovered.snapshot_used
        assert recovered.state_digest() == digest
        assert recovered.ledger.balances == {"alice": 5.0, "bob": 1.0}
        reopened.close()


class TestDurableScenario:
    def test_durable_run_matches_plain_chaos_welfare(self):
        spec = ChaosSpec(
            num_clients=3,
            num_providers=2,
            num_miners=3,
            rounds=1,
            seed=11,
            max_delay=0.0,
        )
        result = run_durable_scenario(spec, byzantine=False, monitored=True)
        assert result.rounds_completed == 1
        assert result.crashes == 0
        assert result.monitor_alerts == 0
        assert result.outcomes[0] is not None
        assert result.outcomes[0]["matches"], "seeded market should trade"

    def test_durable_run_is_deterministic(self):
        spec = ChaosSpec(
            num_clients=3,
            num_providers=2,
            num_miners=3,
            rounds=2,
            seed=3,
            withholding_clients=1,
            max_delay=0.0,
        )
        a = run_durable_scenario(spec, snapshot_every=1)
        b = run_durable_scenario(spec, snapshot_every=1)
        assert a.outcomes == b.outcomes
        assert a.tip_hash == b.tip_hash
        assert a.state_digest == b.state_digest
        assert a.append_count == b.append_count
