"""Matching benches: heuristic ablation + paired engine kernels.

The paired cases time the same matching front half — quality-of-match
scoring, feasibility, and best-offer-set formation over every
request×offer pair — once through the scalar reference implementation
and once through the NumPy kernel in
:mod:`repro.core.matching_vectorized`.  The speedup test pins the
tentpole performance claim (>= 5x at n=800) *and* re-asserts the
differential contract on the exact arrays being timed, so a "fast but
wrong" kernel cannot pass.

``DECLOUD_SPEEDUP_N`` shrinks the speedup market for constrained CI
runners; the 5x floor is only enforced at the full n=800 size.

The vectorized kernel is timed on both declaration patterns it
distinguishes: a ``generate_market`` block, where every bid declares
every type and each type is one full-matrix pass, and a zone market
(1,500 requests, 6 zones), where a bid declares 2 of 12 zone-qualified
types and each type touches only its own sub-block.

``test_bench_dense_10k`` is the rung above: the whole global dense clear
of a 10,000-bid, 20-zone strong-locality market.  Zones share no type,
so the match scores 20 components of ~250 x 250 pairs instead of one
5,000 x 5,000 matrix; its digest is pinned to the certificate-backed
pruned clear of the same block.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.auction import DecloudAuction
from repro.core.candidates import NetworkZoneGenerator
from repro.core.config import AuctionConfig
from repro.core.matching import best_offer_set, block_maxima
from repro.core.matching_vectorized import best_offer_sets
from repro.core.outcome import canonical_outcome
from repro.experiments import matching_ablation
from repro.workloads.generators import generate_market, generate_zone_market

SPEEDUP_N = int(os.environ.get("DECLOUD_SPEEDUP_N", "800"))
SPEEDUP_FLOOR = 5.0
BREADTH = 3


def _speedup_market():
    return generate_market(SPEEDUP_N, seed=0)


def _scalar_front_half(requests, offers, maxima):
    return [
        best_offer_set(request, offers, maxima, BREADTH)
        for request in requests
    ]


def _vectorized_front_half(requests, offers, maxima):
    return best_offer_sets(requests, offers, maxima, BREADTH)


def test_bench_matching_ablation(benchmark):
    result = benchmark.pedantic(
        matching_ablation.run,
        kwargs={"n_requests": 60, "seeds": range(3)},
        rounds=1,
        iterations=1,
    )
    rows = result.rows
    ec2 = [r for r in rows if r["regime"] == "ec2-correlated"]
    hetero = [r for r in rows if r["regime"] == "heterogeneous"]
    # Correlated supply: the heuristics coincide.
    assert np.mean([r["disagreement_rate"] for r in ec2]) < 0.05
    # Heterogeneous supply: they measurably diverge.
    assert np.mean([r["disagreement_rate"] for r in hetero]) > 0.02


def test_bench_matching_reference(benchmark):
    requests, offers = _speedup_market()
    maxima = block_maxima(requests, offers)
    best = benchmark.pedantic(
        _scalar_front_half,
        args=(requests, offers, maxima),
        rounds=1,
        iterations=1,
    )
    assert len(best) == len(requests)


def test_bench_matching_vectorized(benchmark):
    requests, offers = _speedup_market()
    maxima = block_maxima(requests, offers)
    best = benchmark.pedantic(
        _vectorized_front_half,
        args=(requests, offers, maxima),
        rounds=3,
        iterations=1,
    )
    assert len(best) == len(requests)


def test_bench_matching_vectorized_zones(benchmark):
    requests, offers = generate_zone_market(
        1500, n_zones=6, seed=0, kind="network", locality="strong",
        cross_zone_fraction=0.05,
    )[:2]
    maxima = block_maxima(requests, offers)
    best = benchmark.pedantic(
        _vectorized_front_half,
        args=(requests, offers, maxima),
        rounds=3,
        iterations=1,
    )
    assert len(best) == len(requests)
    # The timed result is the reference's, on a stride of the requests
    # (the scalar front half takes ~2 ms per request at this size).
    for i in range(0, len(requests), 50):
        assert best[i] == best_offer_set(requests[i], offers, maxima, BREADTH)


def test_bench_dense_10k(benchmark):
    requests, offers = generate_zone_market(
        5000, n_zones=20, seed=42, kind="network", locality="strong",
        cross_zone_fraction=0.05,
    )[:2]

    seconds = []

    def clear(config):
        start = time.perf_counter()
        outcome = DecloudAuction(config).run(
            requests, offers, evidence=b"dense-10k"
        )
        seconds.append(time.perf_counter() - start)
        return outcome

    outcome = benchmark.pedantic(
        clear,
        args=(AuctionConfig(engine="vectorized"),),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert outcome.matches
    # Under 1 s on one core (0.30 s measured; 4.7-8.9 s while the match
    # ranked the full matrix), with the pruned path's outcome.
    assert min(seconds) < 1.0
    pruned = clear(
        AuctionConfig(engine="vectorized", candidates=NetworkZoneGenerator())
    )
    assert canonical_outcome(outcome) == canonical_outcome(pruned)


def test_vectorized_speedup_and_equivalence():
    """The tentpole claim: >= 5x at n=800, bit-identical best sets."""
    requests, offers = _speedup_market()
    maxima = block_maxima(requests, offers)

    start = time.perf_counter()
    scalar = _scalar_front_half(requests, offers, maxima)
    scalar_seconds = time.perf_counter() - start

    # Warm a throwaway call so one-time NumPy setup is not billed to the
    # timed run, mirroring how the online simulator reuses the kernel.
    _vectorized_front_half(requests[:4], offers[:4], maxima)
    start = time.perf_counter()
    vectorized = _vectorized_front_half(requests, offers, maxima)
    vectorized_seconds = time.perf_counter() - start

    assert scalar == vectorized, (
        "engines disagree on best-offer sets; speedup is meaningless"
    )
    speedup = scalar_seconds / max(vectorized_seconds, 1e-9)
    print(
        f"\nmatching front half at n={SPEEDUP_N}: "
        f"reference {scalar_seconds:.3f}s, vectorized "
        f"{vectorized_seconds:.3f}s, speedup {speedup:.1f}x"
    )
    if SPEEDUP_N >= 800:
        assert speedup >= SPEEDUP_FLOOR, (
            f"vectorized kernel is only {speedup:.1f}x faster at "
            f"n={SPEEDUP_N}; the tentpole requires >= {SPEEDUP_FLOOR}x"
        )
    else:
        # Reduced sizes (CI smoke) still require a real win.
        assert speedup > 1.0
