"""Durability overhead benches: journaling must not tax the round.

Every durable subsystem writes its WAL record *before* mutating state
(see docs/DURABILITY.md), so the question CI has to keep answering is:
what does write-ahead journaling cost a realistic round?  The round
here is the full node-side pipeline a block triggers — admit ``n``
sealed bids to the mempool (signature-verified), clear the n=800
vectorized bench market, settle the outcome into escrow — run twice in
a paired protocol: once dark, once with every subsystem journaling
through an in-memory ``NodeStore``.

* ``test_bench_round_plain`` — the gated baseline: the round with no
  store attached.
* ``test_bench_round_durable`` — the identical round fully journaled
  (mempool admissions, token ops, the per-block settlement intent).
* ``test_durability_overhead_within_bound`` — interleaved best-of
  pairing of the two; the ratio must stay within
  ``DECLOUD_DURABILITY_CEILING`` (default 1.10, the <=10% budget).
* ``test_bench_wal_append`` — the micro-bench under all of it: framing
  (deflate + CRC32) + append for a batch of typical records.
* ``test_bench_state_digest_200_blocks`` — the streamed
  ``NodeStore.state_digest()`` over a 200-block chain.

Sizes honour ``DECLOUD_DURABILITY_N`` (falling back to
``DECLOUD_SPEEDUP_N``) so the CI smoke job runs reduced.
"""

from __future__ import annotations

import os
import time

from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.cryptosim import schnorr
from repro.ledger.mempool import Mempool
from repro.ledger.miner import make_sealed_bid
from repro.protocol.settlement import SettlementProcessor, TokenLedger
from repro.store import MemoryLogBackend, NodeStore, WriteAheadLog
from repro.workloads.generators import generate_market

DURABILITY_N = int(
    os.environ.get(
        "DECLOUD_DURABILITY_N", os.environ.get("DECLOUD_SPEEDUP_N", "800")
    )
)
#: Allowed durability-on overhead ratio (paired best-of comparison).
DURABILITY_CEILING = float(
    os.environ.get("DECLOUD_DURABILITY_CEILING", "1.10")
)
EVIDENCE = b"durability-bench"

_CACHE: dict = {}


def _market():
    if "market" not in _CACHE:
        _CACHE["market"] = generate_market(DURABILITY_N, seed=0)
    return _CACHE["market"]


def _sealed_txs():
    """One sealed bid per market participant, built once and re-admitted
    every round (mempool admission re-verifies each signature)."""
    if "txs" not in _CACHE:
        txs = []
        for i in range(DURABILITY_N):
            keypair = schnorr.KeyPair.generate(
                seed=f"durability-bench-{i}".encode()
            )
            tx, _reveal = make_sealed_bid(
                sender_id=f"bench-sender-{i}",
                keypair=keypair,
                plaintext=f"bench-bid-{i}".encode(),
                temp_key=bytes([i % 256]) * 32,
                nonce=bytes([i % 256]) * 16,
                blind=bytes([i % 256]) * 32,
            )
            txs.append(tx)
        _CACHE["txs"] = txs
    return _CACHE["txs"]


def _round(durable: bool):
    requests, offers = _market()
    mempool = Mempool(max_size=DURABILITY_N + 1)
    ledger = TokenLedger()
    processor = SettlementProcessor(ledger=ledger)
    if durable:
        store = NodeStore.in_memory()
        store.attach(mempool=mempool, settlement=processor)
    for tx in _sealed_txs():
        mempool.submit(tx)
    auction = DecloudAuction(AuctionConfig(engine="vectorized"))
    outcome = auction.run(requests, offers, evidence=EVIDENCE)
    processor.settle_block(
        outcome.matches, auto_fund=True, block_hash="bench-block"
    )
    return outcome


def test_bench_round_plain(benchmark):
    _sealed_txs()  # build outside the timed region
    outcome = benchmark.pedantic(
        _round, args=(False,), rounds=3, iterations=1, warmup_rounds=1
    )
    assert outcome.matches


def test_bench_round_durable(benchmark):
    _sealed_txs()
    outcome = benchmark.pedantic(
        _round, args=(True,), rounds=3, iterations=1, warmup_rounds=1
    )
    assert outcome.matches


def test_durability_overhead_within_bound():
    """Paired interleaved best-of: journaled round vs dark round.

    Interleaving and best-of-k make the ratio robust to runner noise;
    the WAL work is canonical-JSON encoding, zlib level 1 on the larger
    records and a CRC32 per record, which the signature checks and the
    clearing itself must dominate.
    """
    _sealed_txs()
    _round(False)
    _round(True)  # warm both paths

    best_plain = float("inf")
    best_durable = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        _round(False)
        best_plain = min(best_plain, time.perf_counter() - start)

        start = time.perf_counter()
        _round(True)
        best_durable = min(best_durable, time.perf_counter() - start)

    ratio = best_durable / max(best_plain, 1e-9)
    print(
        f"\ndurability overhead at n={DURABILITY_N}: plain "
        f"{best_plain:.4f}s, durable {best_durable:.4f}s, "
        f"ratio {ratio:.3f} (ceiling {DURABILITY_CEILING})"
    )
    assert ratio <= DURABILITY_CEILING, (
        f"write-ahead journaling costs {ratio:.3f}x a dark round at "
        f"n={DURABILITY_N}; durability must stay within "
        f"{DURABILITY_CEILING}x"
    )


def test_bench_wal_append(benchmark):
    """Micro-bench: frame + CRC + append for a batch of typical records."""
    payload = {
        "block_hash": "bench",
        "auto_fund": True,
        "entries": [
            {
                "escrow_id": f"esc-{i:06d}",
                "request_id": f"r{i}",
                "client_id": f"c{i}",
                "provider_id": f"p{i}",
                "amount": 1.0 + i,
            }
            for i in range(8)
        ],
    }

    def append_batch():
        log = WriteAheadLog(MemoryLogBackend())
        for _ in range(256):
            log.append("settlement.block", payload)
        return log

    log = benchmark.pedantic(append_batch, rounds=5, iterations=1)
    assert log.next_seq == 256


def test_bench_state_digest_200_blocks(benchmark):
    """The streamed state digest of a node holding 200 blocks (6 bids
    each): one canonical-JSON pass per block fed straight into the hash.
    The store's window is widened past 200 so the chain stays whole."""
    from repro.ledger.block import Block
    from repro.ledger.miner import Miner
    from repro.store import state_digest_of

    def miner(miner_id, store=None):
        return Miner(
            miner_id=miner_id,
            allocate=lambda plaintexts, evidence: {"bids": len(plaintexts)},
            difficulty_bits=4,
            store=store,
        )

    store = NodeStore.in_memory(horizon=256)
    node, leader = miner("node", store), miner("leader")
    signers = [
        schnorr.KeyPair.generate(seed=f"digest-bench-{i}".encode())
        for i in range(6)
    ]
    for height in range(200):
        for i, keypair in enumerate(signers):
            tx, _reveal = make_sealed_bid(
                sender_id=f"bench-sender-{i}",
                keypair=keypair,
                plaintext=f"bid-{height}-{i}".encode() * 8,
                temp_key=bytes([i]) * 32,
                nonce=height.to_bytes(16, "big"),
                blind=bytes([i]) * 32,
            )
            leader.accept_transaction(tx)
            node.accept_transaction(tx)
        preamble = leader.build_preamble()
        block = Block(preamble=preamble, body=leader.build_body(preamble, ()))
        leader.commit_block(block)
        node.commit_block(block)
    digest = benchmark.pedantic(store.state_digest, rounds=5, iterations=1)
    assert digest == state_digest_of(store.state_dict())
