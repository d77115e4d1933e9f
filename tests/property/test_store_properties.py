"""Property + fuzz tests for the durability layer.

Two contracts, driven by Hypothesis:

* **Replay idempotence** — recovery is a pure function of the durable
  bytes: recovering twice, or recovering from any snapshot + log-suffix
  split, yields exactly the state of recovering once from the full log.
* **Tail-corruption safety** — flip or truncate arbitrary bytes of the
  log and recovery still succeeds, reconstructing a *prefix* of the
  original record sequence: damage can lose the newest records, never
  crash the node, and never resurrect or invent state.
* **One digest, two routes** — the streamed ``state_digest()`` equals
  ``state_digest_of(state_dict())`` on chains whose blocks mix bids the
  node admitted (journaled by reference) with bids it never saw
  (embedded), across arbitrary snapshot points.
* **A window survives recovery** — over any number of rounds, any
  retention horizon and any crash point, the live node and ``recover()``
  agree on the digest, the height, the tip and every retained block.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger.block import Block
from repro.ledger.chain import Blockchain
from repro.ledger.mempool import Mempool
from repro.ledger.miner import Miner, make_sealed_bid
from repro.cryptosim import schnorr
from repro.faults.crash import CrashPoint, SimulatedCrashError
from repro.protocol.settlement import TokenLedger
from repro.store import NodeStore, WriteAheadLog, state_digest_of

ACCOUNTS = ("alice", "bob", "carol")

#: one journaled operation: (kind, actor index, counterparty index, amount)
op_strategy = st.tuples(
    st.sampled_from(["mint", "transfer", "open", "close", "submit"]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
)


def sealed_bid(i):
    keypair = schnorr.KeyPair.generate(seed=f"prop-sender-{i}".encode())
    tx, _ = make_sealed_bid(
        sender_id=f"prop-sender-{i}",
        keypair=keypair,
        plaintext=f"prop-bid-{i}".encode(),
        temp_key=bytes([i % 256]) * 32,
        nonce=bytes([i % 256]) * 16,
        blind=bytes([i % 256]) * 32,
    )
    return tx


def assert_streaming_equals_scan(wal):
    """The streaming passes recovery uses agree with the full ``scan``
    on whatever bytes the backend holds right now."""
    scan = wal.scan()
    assert list(wal.replay()) == scan.records
    middle = scan.records[len(scan.records) // 2]["seq"] if scan.records else 0
    assert list(wal.replay(after_seq=middle)) == [
        r for r in scan.records if r["seq"] > middle
    ]
    reopened = WriteAheadLog(wal.backend)
    assert reopened.next_seq == (
        scan.records[-1]["seq"] + 1 if scan.records else 0
    )
    return scan


def apply_ops(store, ops, snapshot_at=frozenset()):
    """Drive one deterministic op sequence through a journaled node.

    Ops with unmet preconditions are skipped *before* journaling (the
    public ledger API validates first), so two stores fed the same list
    journal identical record sequences regardless of snapshot points.
    """
    ledger = TokenLedger()
    chain = Blockchain(difficulty_bits=4)
    mempool = Mempool()
    store.attach(chain=chain, mempool=mempool, ledger=ledger)
    opened = []
    for index, (kind, a, b, amount) in enumerate(ops):
        if kind == "mint":
            ledger.mint(ACCOUNTS[a], amount)
        elif kind == "transfer":
            if ledger.balance(ACCOUNTS[a]) >= amount:
                ledger.transfer(ACCOUNTS[a], ACCOUNTS[b], amount)
        elif kind == "open":
            if a != b and ledger.balance(ACCOUNTS[a]) >= amount:
                opened.append(
                    ledger.open_escrow(ACCOUNTS[a], ACCOUNTS[b], amount)
                )
        elif kind == "close":
            if opened:
                eid = opened.pop(0)
                if a % 2:
                    ledger.release(eid)
                else:
                    ledger.refund(eid)
        elif kind == "submit":
            mempool.submit(sealed_bid(index))
        if index in snapshot_at:
            store.snapshot()
    return store


class TestReplayIdempotence:
    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(op_strategy, min_size=1, max_size=20))
    def test_recover_twice_equals_recover_once(self, ops):
        store = apply_ops(NodeStore.in_memory(), ops)
        once = store.recover(difficulty_bits=4)
        twice = store.recover(difficulty_bits=4)
        assert twice.state_digest() == once.state_digest()
        assert twice.replayed_records == once.replayed_records

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(op_strategy, min_size=1, max_size=20),
        data=st.data(),
    )
    def test_any_snapshot_split_equals_pure_replay(self, ops, data):
        snapshot_at = frozenset(
            data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=len(ops) - 1),
                    max_size=3,
                )
            )
        )
        plain = apply_ops(NodeStore.in_memory(), ops)
        split = apply_ops(NodeStore.in_memory(), ops, snapshot_at)
        recovered_plain = plain.recover(difficulty_bits=4)
        recovered_split = split.recover(difficulty_bits=4)
        # the round marker is not part of this op alphabet, and the
        # snapshot marks themselves are invisible to recovered state
        assert (
            recovered_split.state_digest() == recovered_plain.state_digest()
        )

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(op_strategy, min_size=1, max_size=20))
    def test_live_state_equals_recovered_state(self, ops):
        store = apply_ops(NodeStore.in_memory(), ops)
        live_digest = store.state_digest()
        assert store.recover(difficulty_bits=4).state_digest() == live_digest


class TestTailCorruptionFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(op_strategy, min_size=2, max_size=15),
        data=st.data(),
    )
    def test_byte_flips_recover_to_a_record_prefix(self, ops, data):
        # lead with a funded mint so the log always has at least one frame
        store = apply_ops(NodeStore.in_memory(), [("mint", 0, 0, 5.0)] + ops)
        original = [
            (r["seq"], r["type"], r["data"]) for r in store.wal.records()
        ]
        raw = bytearray(store.wal.backend.read())
        flips = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=len(raw) - 1),
                    st.integers(min_value=1, max_value=255),
                ),
                min_size=1,
                max_size=4,
            )
        )
        for offset, mask in flips:
            raw[offset] ^= mask
        store.wal.backend.replace(bytes(raw))
        scan = assert_streaming_equals_scan(store.wal)

        recovered = store.recover(difficulty_bits=4)  # must not raise
        assert recovered.truncated_bytes == len(raw) - scan.good_length
        assert recovered.replayed_records == len(scan.records)
        surviving = [
            (r["seq"], r["type"], r["data"]) for r in store.wal.records()
        ]
        assert surviving == original[: len(surviving)], (
            "corruption resurrected or altered records"
        )

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(op_strategy, min_size=2, max_size=15),
        data=st.data(),
    )
    def test_truncation_recovers_to_a_record_prefix(self, ops, data):
        store = apply_ops(NodeStore.in_memory(), [("mint", 0, 0, 5.0)] + ops)
        original = [
            (r["seq"], r["type"], r["data"]) for r in store.wal.records()
        ]
        size = store.wal.backend.size()
        cut = data.draw(st.integers(min_value=0, max_value=size - 1))
        store.wal.backend.truncate_to(cut)
        scan = assert_streaming_equals_scan(store.wal)

        recovered = store.recover(difficulty_bits=4)  # must not raise
        assert recovered.truncated_bytes == cut - scan.good_length
        assert recovered.replayed_records == len(scan.records)
        surviving = [
            (r["seq"], r["type"], r["data"]) for r in store.wal.records()
        ]
        assert surviving == original[: len(surviving)]
        # recovery leaves an appendable log behind
        store.log("round.phase", round=0, phase="seal")

    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(op_strategy, min_size=2, max_size=12),
        data=st.data(),
    )
    def test_corruption_after_snapshot_never_loses_snapshotted_state(
        self, ops, data
    ):
        # snapshot midway, then corrupt the log: everything up to the
        # snapshot is durable no matter what happens to the suffix
        midpoint = len(ops) // 2
        store = apply_ops(
            NodeStore.in_memory(), ops, snapshot_at=frozenset({midpoint})
        )
        checkpoint = apply_ops(
            NodeStore.in_memory(), ops[: midpoint + 1]
        ).recover(difficulty_bits=4)
        raw = bytearray(store.wal.backend.read())
        if raw:
            offset = data.draw(
                st.integers(min_value=0, max_value=len(raw) - 1)
            )
            raw[offset] ^= 0x5A
            store.wal.backend.replace(bytes(raw))
        recovered = store.recover(difficulty_bits=4)
        assert recovered.ledger.total_supply() >= 0.0
        for account, balance in checkpoint.ledger.balances.items():
            # snapshotted balances exist; post-snapshot records may be
            # lost but the snapshot itself is untouched by log damage
            assert account in recovered.ledger.balances or balance == 0.0


#: one block: per bid, did the journaling node admit it beforehand; then
#: whether the node snapshots (and compacts) before and after the commit
block_strategy = st.tuples(
    st.lists(st.booleans(), min_size=0, max_size=4),
    st.booleans(),
    st.booleans(),
)


class TestStreamedDigestOnChains:
    @settings(max_examples=15, deadline=None)
    @given(blocks=st.lists(block_strategy, min_size=0, max_size=4))
    def test_streamed_digest_equals_materialised_digest(self, blocks):
        def miner(miner_id, store=None):
            return Miner(
                miner_id=miner_id,
                allocate=lambda plaintexts, evidence: {"bids": len(plaintexts)},
                difficulty_bits=4,
                store=store,
            )

        store = NodeStore.in_memory()
        node, leader = miner("node", store), miner("leader")
        serial = 0
        for admitted_flags, snapshot_before, snapshot_after in blocks:
            for admitted in admitted_flags:
                tx = sealed_bid(serial)
                serial += 1
                leader.accept_transaction(tx)
                if admitted:
                    node.accept_transaction(tx)
            if snapshot_before:
                store.snapshot()
            preamble = leader.build_preamble()
            block = Block(
                preamble=preamble, body=leader.build_body(preamble, ())
            )
            leader.commit_block(block)
            node.commit_block(block)
            if snapshot_after:
                store.snapshot()
        live = store.state_digest()
        assert live == state_digest_of(store.state_dict())
        recovered = store.recover(difficulty_bits=4)
        assert recovered.state_digest() == live
        assert recovered.state_digest() == state_digest_of(
            recovered.state_dict()
        )


def _bid_miner(miner_id, store=None):
    return Miner(
        miner_id=miner_id,
        allocate=lambda plaintexts, evidence: {"bids": len(plaintexts)},
        difficulty_bits=4,
        store=store,
    )


class TestRollOffs:
    @settings(max_examples=30, deadline=None)
    @given(
        rounds=st.integers(min_value=1, max_value=9),
        horizon=st.integers(min_value=1, max_value=3),
        crash=st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=0, max_value=60),
                st.sampled_from(["clean", "torn", "corrupt"]),
            ),
        ),
    )
    def test_live_and_recovered_node_agree_across_roll_offs(
        self, rounds, horizon, crash
    ):
        leader = _bid_miner("leader")
        blocks = []
        for index in range(rounds):
            leader.accept_transaction(sealed_bid(index))
            preamble = leader.build_preamble()
            body = leader.build_body(preamble, ())
            block = Block(preamble=preamble, body=body)
            leader.commit_block(block)
            blocks.append(block)

        point = CrashPoint(*crash) if crash else None
        store = NodeStore.in_memory(horizon=horizon, crash_point=point)
        node, ledger = _bid_miner("node", store), TokenLedger()
        store.attach(ledger=ledger)
        while len(node.chain) < rounds:
            height = len(node.chain)
            block = blocks[height]
            try:
                node.accept_transaction(block.preamble.transactions[0])
                store.log("round.phase", round=height, phase="begin")
                node.commit_block(block)
                store.log("round.phase", round=height, phase="committed")
                opened = ledger.open_escrow("node", "leader", 0.0)
                if height % 2:
                    ledger.release(opened)
            except SimulatedCrashError:
                recovered = store.recover(difficulty_bits=4)
                node = recovered.make_miner("node", leader.allocate, store)
                ledger = recovered.ledger
                store.attach(ledger=ledger)

        chain = node.chain
        assert min(rounds, horizon) <= len(list(chain)) <= 2 * horizon
        live = store.state_digest()
        assert live == state_digest_of(store.state_dict())
        recovered = store.recover(difficulty_bits=4)
        assert recovered.state_digest() == live
        assert recovered.state_digest() == state_digest_of(
            recovered.state_dict()
        )
        again = recovered.chain
        assert (len(again), again.tip_hash) == (len(chain), chain.tip_hash)
        assert again.anchor_height == chain.anchor_height
        for height in range(chain.anchor_height, len(chain)):
            assert again[height].hash() == chain[height].hash()
