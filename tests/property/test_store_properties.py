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
* **Typed decoding behind a valid CRC** — the ledger codec round-trips
  transactions and blocks byte for byte, and every decoder on the way
  from WAL bytes to state (``decode_tx``, ``decode_block``,
  ``iter_frames``, ``NodeStore.recover``) answers truncated, extended,
  mutated or arbitrary bytes with a valid object or a typed
  ``ReproError``, nothing else.
"""

import functools
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import LedgerError, ReproError
from repro.ledger.block import Block, BlockBody, BlockPreamble, KeyReveal
from repro.ledger.chain import Blockchain
from repro.ledger.mempool import Mempool
from repro.ledger.miner import Miner, make_sealed_bid
from repro.ledger.serialization import (
    decode_block,
    decode_tx,
    encode_block,
    encode_tx,
)
from repro.ledger.transaction import SealedBidTransaction
from repro.cryptosim import schnorr
from repro.cryptosim.commitments import Commitment
from repro.cryptosim.symmetric import SealedBox
from repro.faults.crash import CrashPoint, SimulatedCrashError
from repro.protocol.settlement import TokenLedger
from repro.store import NodeStore, WriteAheadLog, state_digest_of
from repro.store.records import RECORD_TYPES
from repro.store.wal import MAGIC, WAL_FORMAT, iter_frames

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


# ----------------------------------------------------------------------
# Typed decoding behind a valid CRC
# ----------------------------------------------------------------------
tx_strategy = st.builds(
    SealedBidTransaction,
    sender_id=st.text(max_size=12),
    sender_public=st.binary(min_size=32, max_size=32),
    box=st.binary(min_size=48, max_size=120).map(SealedBox.from_bytes),
    key_commitment=st.binary(min_size=32, max_size=32).map(Commitment),
    signature=st.binary(min_size=64, max_size=64),
)

json_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
allocation_strategy = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        json_scalar,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.text(max_size=4), inner, max_size=3),
        ),
        max_leaves=8,
    ),
    max_size=4,
)

body_strategy = st.builds(
    BlockBody,
    reveals=st.lists(
        st.builds(
            KeyReveal,
            sender_id=st.text(max_size=8),
            txid=st.text(alphabet="0123456789abcdef", max_size=64),
            temp_key=st.binary(max_size=40),
            blind=st.binary(max_size=40),
        ),
        max_size=3,
    ).map(tuple),
    allocation=allocation_strategy,
    miner_id=st.text(max_size=8),
    miner_public=st.binary(min_size=32, max_size=32),
    signature=st.binary(min_size=64, max_size=64),
)

#: a block, and per transaction whether the reader holds it already
referring_block = st.lists(
    st.tuples(tx_strategy, st.booleans()), max_size=4
).flatmap(
    lambda entries: st.tuples(
        st.builds(
            Block,
            preamble=st.builds(
                BlockPreamble,
                height=st.integers(min_value=0, max_value=2**64 - 1),
                parent_hash=st.binary(min_size=32, max_size=32).map(bytes.hex),
                transactions=st.just(tuple(tx for tx, _ in entries)),
                timestamp=st.floats(allow_nan=False),
                pow_nonce=st.integers(min_value=0, max_value=2**64 - 1),
            ),
            body=st.one_of(st.none(), body_strategy),
        ),
        st.just([tx for tx, held in entries if held]),
    )
)


def _held(transactions):
    """The reader's pool: txid -> transaction, as a mempool holds them."""
    return {tx.txid(): tx for tx in transactions}


def _decoded_or_typed(decode, *args):
    """``decode(*args)``, or None for a typed ``ReproError`` — any other
    exception escapes and fails the property."""
    try:
        return decode(*args)
    except ReproError:
        return None


def _mutate(data, raw):
    """``raw`` cut short, extended, or with some bytes flipped."""
    kind = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
    if kind == "truncate" and raw:
        return kind, raw[: data.draw(st.integers(0, len(raw) - 1))]
    if kind == "extend":
        return kind, raw + data.draw(st.binary(min_size=1, max_size=16))
    mutated = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4))):
        if mutated:
            mutated[data.draw(st.integers(0, len(mutated) - 1))] ^= data.draw(
                st.integers(1, 255)
            )
    return "flip", bytes(mutated)


def _frame(stored):
    """A frame of ``stored`` whose CRC holds, whatever it stores."""
    return struct.pack(">2sII", MAGIC, len(stored), zlib.crc32(stored)) + stored


@functools.lru_cache(maxsize=None)
def _journaled_log():
    """A node's log: admissions, a block that refers to two of its bids
    and embeds one, and control records."""
    leader = Miner(
        miner_id="leader",
        allocate=lambda plaintexts, evidence: {"bids": len(plaintexts)},
        difficulty_bits=4,
    )
    store = NodeStore.in_memory()
    node = Miner(
        miner_id="node",
        allocate=leader.allocate,
        difficulty_bits=4,
        store=store,
    )
    bids = [sealed_bid(i) for i in range(3)]
    for tx in bids:
        leader.accept_transaction(tx)
    for tx in bids[1:]:
        node.accept_transaction(tx)
    preamble = leader.build_preamble()
    block = Block(preamble=preamble, body=leader.build_body(preamble, ()))
    leader.commit_block(block)
    store.log("round.phase", round=0, phase="commit")
    node.commit_block(block)
    ledger = TokenLedger()
    store.attach(ledger=ledger)
    ledger.mint("alice", 2.0)
    ledger.open_escrow("alice", "bob", 1.0)
    return store.wal.backend.read(), store.state_digest()


class TestCodecRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(tx=tx_strategy)
    def test_transaction(self, tx):
        raw = encode_tx(tx)
        decoded = decode_tx(raw)
        assert decoded == tx
        assert decoded.txid() == tx.txid()
        assert encode_tx(decoded) == raw

    @settings(max_examples=100, deadline=None)
    @given(case=referring_block)
    def test_block_with_referenced_and_embedded_transactions(self, case):
        block, held_txs = case
        held = _held(held_txs)
        raw = encode_block(block, held.get)
        decoded = decode_block(raw, held.__getitem__)
        assert decoded == block
        assert decoded.hash() == block.hash()
        assert encode_block(decoded, held.get) == raw
        assert decode_block(encode_block(block)) == block  # all embedded

    def test_a_reveal_wider_than_a_u16_is_journaled(self):
        # a bidder picks its blind's length, and nothing checks a reveal's
        # sender id: neither may make a block unjournalable
        reveal = KeyReveal("x" * 70_000, "ab" * 32, bytes(32), bytes(70_000))
        body = BlockBody((reveal,), {}, "m0", bytes(32), bytes(64))
        block = Block(BlockPreamble(1, "0" * 64, (), 1.5, 7), body)
        assert decode_block(encode_block(block)) == block


class TestCodecFuzz:
    @settings(max_examples=150, deadline=None)
    @given(tx=tx_strategy, data=st.data())
    def test_mutated_transaction_bytes(self, tx, data):
        kind, raw = _mutate(data, encode_tx(tx))
        if kind != "flip":
            with pytest.raises(LedgerError):
                decode_tx(raw)
            return
        decoded = _decoded_or_typed(decode_tx, raw)
        if decoded is not None:
            assert isinstance(decoded, SealedBidTransaction)
            assert encode_tx(decoded) == raw

    @settings(max_examples=150, deadline=None)
    @given(case=referring_block, data=st.data())
    def test_mutated_block_bytes(self, case, data):
        block, held_txs = case
        held = _held(held_txs)
        kind, raw = _mutate(data, encode_block(block, held.get))

        def resolve(txid):
            if txid not in held:
                raise LedgerError(f"no transaction {txid[:12]}")
            return held[txid]

        if kind != "flip":
            with pytest.raises(LedgerError):
                decode_block(raw, resolve)
            return
        decoded = _decoded_or_typed(decode_block, raw, resolve)
        if decoded is not None:
            assert isinstance(decoded, Block)

    @settings(max_examples=150, deadline=None)
    @given(raw=st.binary(max_size=200))
    def test_arbitrary_bytes(self, raw):
        for decoded in (
            _decoded_or_typed(decode_tx, raw),
            _decoded_or_typed(decode_block, raw, lambda txid: txid),
        ):
            assert decoded is None or isinstance(
                decoded, (SealedBidTransaction, Block)
            )


#: what a whole frame may store: anything, or an envelope of this format
#: (a known or unknown type byte, any seq) around any body
stored_strategy = st.one_of(
    st.binary(max_size=80),
    st.builds(
        lambda code, seq, body: bytes([WAL_FORMAT, code])
        + seq.to_bytes(8, "big")
        + body,
        st.one_of(
            st.integers(0, len(RECORD_TYPES) - 1), st.integers(0, 255)
        ),
        st.integers(0, 2**64 - 1),
        st.binary(max_size=80),
    ),
)


class TestValidCrcFuzz:
    @settings(max_examples=150, deadline=None)
    @given(stored=stored_strategy)
    def test_arbitrary_frames_after_a_node_log(self, stored):
        log, _digest = _journaled_log()
        raw = log + _frame(stored)
        records = []
        try:
            for record, _start, _end in iter_frames(raw):
                records.append(record)
        except ReproError:
            pass
        assert all(isinstance(r["data"], bytes) for r in records)
        store = NodeStore.in_memory()
        store.wal.backend.replace(raw)
        recovered = _decoded_or_typed(store.recover, 4)
        if recovered is not None:
            assert recovered.committed_height == 1

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_mutated_record_body_under_a_valid_crc(self, data):
        log, digest = _journaled_log()
        frames = [log[start:end] for _r, start, end in iter_frames(log)]
        index = data.draw(st.integers(0, len(frames) - 1))
        header, body = frames[index][10:20], frames[index][20:]
        _kind, mutated = _mutate(data, body)
        frames[index] = _frame(header + mutated)
        store = NodeStore.in_memory()
        store.wal.backend.replace(b"".join(frames))
        recovered = _decoded_or_typed(store.recover, 4)
        if recovered is not None and mutated == body:
            assert recovered.state_digest() == digest
