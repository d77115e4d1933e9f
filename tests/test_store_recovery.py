"""NodeStore recovery: journaled subsystems rebuild bit-for-bit."""

import pytest

from repro.common.errors import RecoveryError, StoreError
from repro.ledger.chain import Blockchain
from repro.ledger.mempool import Mempool
from repro.ledger.miner import Miner, make_sealed_bid
from repro.cryptosim import schnorr
from repro.protocol.settlement import (
    EscrowState,
    SettlementProcessor,
    TokenLedger,
)
from repro.sim.chaos import ChaosSpec, run_durable_scenario
from repro.store import NodeStore


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
        from repro.protocol.allocator import DecloudAllocator

        miner = Miner(
            miner_id="m0",
            allocate=DecloudAllocator(),
            difficulty_bits=4,
            store=store,
        )
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
        store.snapshot()  # compacts the replayed prefix away
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

    def _committed_store(self):
        store, miner = self._mined_store()
        preamble = miner.build_preamble()
        from repro.ledger.block import Block

        miner.commit_block(
            Block(preamble=preamble, body=miner.build_body(preamble, ()))
        )
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
        # block hash do not cover signatures, and the honest copy of the
        # same bid sits in the other record type — recovery must still
        # check the tampered bytes themselves.
        from repro.store.wal import encode_envelope, encode_frame

        store, _miner = self._committed_store()
        assert store.recover(difficulty_bits=4).committed_height == 1
        records = store.wal.records()
        target = [r for r in records if r["type"] == record_type][-1]
        tx = (
            target["data"]["tx"]
            if record_type == "mempool.admit"
            else target["data"]["block"]["preamble"]["transactions"][0]
        )
        tx["signature"][1] = hex(int(tx["signature"][1], 16) ^ 1)
        store.wal.backend.replace(
            b"".join(
                encode_frame(encode_envelope(r["seq"], r["type"], r["data"]))
                for r in records
            )
        )
        assert store.wal.scan().clean
        with pytest.raises(RecoveryError, match="invalid signature"):
            store.recover(difficulty_bits=4)

    def test_tampered_snapshot_signature_fails_recovery(self):
        from repro.store.snapshot import decode_snapshot, encode_snapshot

        store, _miner = self._mined_store()
        store.snapshot()
        state, last_seq = decode_snapshot(store.snapshots.latest())
        signature = state["mempool"][0]["signature"]
        signature[1] = hex(int(signature[1], 16) ^ 1)
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
        store.wal.append("no.such.record", {})
        with pytest.raises(RecoveryError):
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
