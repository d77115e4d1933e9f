"""Ledger-layer benchmarks: PoW solving, admission crypto and a full
protocol round.

``test_bench_pow_naive_rebuild`` times the pre-optimization mining loop
(re-concatenating ``payload + nonce.to_bytes(8, "big")`` every attempt)
against the same puzzle, so the benchmark report shows what the hoisted
payload buffer in :func:`repro.ledger.pow.solve` buys; the speedup test
pins that win and asserts both loops find the identical nonce.

The Schnorr benches time one ``sign`` and one ``verify`` of a sealed-bid
sized payload with the generator tables and the signer's key tables
already built (a node builds each once), one ``verify`` under a
full-width key (every ``G`` block), and one ``verify`` under a key
never seen before (table build included); the admission bench is what
one miner pays to admit a 200-bid block's worth of gossip from known
signers, every bid arriving twice.
"""

from __future__ import annotations

import hashlib
import time

from repro.common.timewindow import TimeWindow
from repro.cryptosim import schnorr
from repro.ledger import pow as pow_mod
from repro.ledger.miner import Miner, make_sealed_bid
from repro.market.bids import Offer, Request
from repro.protocol.exposure import Participant, build_miner_network

POW_PAYLOAD = b"decloud-block-payload"
POW_BITS = 12


def _naive_solve(payload: bytes, difficulty_bits: int) -> int:
    """The pre-optimization hot loop: rebuild the hashed message and
    re-count leading zero bits on every nonce attempt."""
    nonce = 0
    while nonce < pow_mod.MAX_NONCE:
        digest = hashlib.sha256(
            payload + nonce.to_bytes(8, "big")
        ).digest()
        if pow_mod.leading_zero_bits(digest) >= difficulty_bits:
            return nonce
        nonce += 1
    raise AssertionError("unreachable at bench difficulty")


def test_bench_pow_solve(benchmark):
    nonce = benchmark(pow_mod.solve, POW_PAYLOAD, POW_BITS)
    assert pow_mod.check(POW_PAYLOAD, nonce, POW_BITS)


def test_bench_pow_naive_rebuild(benchmark):
    nonce = benchmark(_naive_solve, POW_PAYLOAD, POW_BITS)
    assert pow_mod.check(POW_PAYLOAD, nonce, POW_BITS)


def test_pow_hoisted_payload_speedup():
    """Same nonce as the naive scan, found measurably faster."""
    start = time.perf_counter()
    naive_nonce = _naive_solve(POW_PAYLOAD, POW_BITS)
    naive_seconds = time.perf_counter() - start

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fast_nonce = pow_mod.solve(POW_PAYLOAD, POW_BITS)
        best = min(best, time.perf_counter() - start)

    assert fast_nonce == naive_nonce
    speedup = naive_seconds / max(best, 1e-9)
    print(
        f"\npow solve at {POW_BITS} bits: naive {naive_seconds:.4f}s, "
        f"hoisted {best:.4f}s, speedup {speedup:.1f}x"
    )
    assert speedup > 1.0, (
        f"hoisted PoW loop is not faster than the naive rebuild "
        f"({speedup:.2f}x)"
    )


SIGN_MESSAGE = hashlib.sha256(b"sealed-bid-payload").digest()
ADMISSION_BIDS = 200


def test_bench_schnorr_sign(benchmark):
    # as every caller signs: holding the key pair, public key handed over
    keypair = schnorr.KeyPair.generate(seed=b"bench-signer")
    signature = benchmark(
        schnorr.sign, keypair.secret, SIGN_MESSAGE, keypair.public
    )
    assert schnorr.verify(keypair.public, SIGN_MESSAGE, signature)


def test_bench_schnorr_verify(benchmark):
    keypair = schnorr.KeyPair.generate(seed=b"bench-signer")
    signature = schnorr.sign(keypair.secret, SIGN_MESSAGE)
    assert benchmark(schnorr.verify, keypair.public, SIGN_MESSAGE, signature)


def test_bench_schnorr_verify_full_width(benchmark):
    """A full-width key, as ``KeyPair.generate()`` draws them: its
    1023-bit response reaches all six ``G`` blocks."""
    secret = (1 << 1022) + 12345
    keypair = schnorr.KeyPair(secret=secret, public=schnorr._g_pow(secret))
    signature = schnorr.sign(keypair.secret, SIGN_MESSAGE, keypair.public)
    assert len(schnorr._g_tables(signature[1])) == schnorr._G_BLOCKS
    assert benchmark(schnorr.verify, keypair.public, SIGN_MESSAGE, signature)


def test_bench_schnorr_verify_first_sight(benchmark):
    """A key this process has never verified under: the signer's two
    tables are built, then used once — what a flood of fresh keys costs
    per bid."""
    fresh = []
    for i in range(200):  # fewer than the table LRU holds: no round re-sees one
        keypair = schnorr.KeyPair.generate(seed=b"first-sight-%d" % i)
        fresh.append(
            (keypair.public, SIGN_MESSAGE, schnorr.sign(keypair.secret, SIGN_MESSAGE))
        )
    keys = len(fresh)
    assert keys < schnorr._MAX_KEY_TABLES
    schnorr._key_table.cache_clear()
    verdict = benchmark.pedantic(
        schnorr.verify,
        setup=lambda: (fresh.pop(), {}),
        rounds=keys,
        iterations=1,
    )
    assert verdict and not fresh
    assert schnorr._key_table.cache_info().misses == keys


def test_bench_mempool_admission(benchmark):
    bids = [
        make_sealed_bid(
            sender_id=f"bidder-{i}",
            keypair=schnorr.KeyPair.generate(seed=f"bidder-{i}".encode()),
            plaintext=b"x" * 256,
            temp_key=bytes([i]) * 32,
            nonce=bytes([i]) * 16,
            blind=bytes([i]) * 32,
        )[0]
        for i in range(ADMISSION_BIDS)
    ]

    def admit():
        # a fresh node each round: nothing is verified before it arrives
        miner = Miner(miner_id="bench", allocate=lambda plaintexts, evidence: {})
        for tx in bids + bids:  # each bid is gossiped twice
            miner.mempool.submit(tx)
        return miner

    # the warm-up round builds the 200 signers' key tables, as a node that
    # has seen these bidders before holds them; verdicts start empty
    miner = benchmark.pedantic(admit, rounds=3, iterations=1, warmup_rounds=1)
    assert len(miner.mempool) == len(miner.signatures) == ADMISSION_BIDS


def test_bench_protocol_round(benchmark):
    def full_round():
        protocol = build_miner_network(num_miners=3, difficulty_bits=8)
        clients = [Participant(participant_id=f"cli-{i}") for i in range(8)]
        providers = [Participant(participant_id=f"prov-{i}") for i in range(4)]
        for i, client in enumerate(clients):
            protocol.submit(
                client,
                Request(
                    request_id=f"req-{i}",
                    client_id=client.participant_id,
                    submit_time=0.1 * i,
                    resources={"cpu": 2, "ram": 8, "disk": 50},
                    window=TimeWindow(0, 10),
                    duration=4,
                    bid=1.0 + 0.2 * i,
                ),
            )
        for i, provider in enumerate(providers):
            protocol.submit(
                provider,
                Offer(
                    offer_id=f"off-{i}",
                    provider_id=provider.participant_id,
                    submit_time=0.05 * i,
                    resources={"cpu": 8, "ram": 32, "disk": 500},
                    window=TimeWindow(0, 24),
                    bid=0.3 + 0.1 * i,
                ),
            )
        return protocol.run_round(clients + providers)

    result = benchmark.pedantic(full_round, rounds=3, iterations=1)
    assert len(result.accepted_by) == 3
    assert result.outcome.num_trades > 0
