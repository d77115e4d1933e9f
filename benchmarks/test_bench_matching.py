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
pruned clear of the same block.  ``test_bench_dense_30k`` is the same
clear at 30,000 bids over 100 zones — where the back half, not the
match, is the larger share — and records the per-phase seconds of its
last round; ``test_dense_ladder`` walks whatever rungs
``DECLOUD_DENSE_SIZES`` names (bid counts; unset = skipped), the
100,000-bid, 333-zone block of docs/PERFORMANCE.md included, and prints
per-phase seconds and ``ru_maxrss`` for each.
"""

from __future__ import annotations

import os
import resource
import time

import numpy as np
import pytest

from repro.core.auction import DecloudAuction
from repro.core.candidates import NetworkZoneGenerator
from repro.core.config import AuctionConfig
from repro.core.matching import best_offer_set, block_maxima
from repro.core.matching_vectorized import best_offer_sets
from repro.core.outcome import canonical_outcome
from repro.experiments import matching_ablation
from repro.obs import Observability
from repro.obs.trace import span_seconds
from repro.workloads.generators import generate_market, generate_zone_market

SPEEDUP_N = int(os.environ.get("DECLOUD_SPEEDUP_N", "800"))
#: Opt-in rungs of ``test_dense_ladder``, as bid counts.
DENSE_SIZES = tuple(
    int(token) for token in os.environ.get("DECLOUD_DENSE_SIZES", "").split()
)
PHASES = ("match", "cluster", "normalize", "assemble", "clear")
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


def _dense_clear(requests, offers, config, evidence, seconds, phases=None):
    """One timed global clear; ``phases`` (a dict) takes the per-phase
    seconds of this round off its own spans."""
    obs = Observability("bench-dense") if phases is not None else None
    start = time.perf_counter()
    outcome = DecloudAuction(config).run(
        requests, offers, evidence=evidence, obs=obs
    )
    seconds.append(time.perf_counter() - start)
    if phases is not None:
        split = span_seconds(obs.tracer.records)
        phases.update({name: split[name]["seconds"] for name in PHASES})
    return outcome


def test_bench_dense_10k(benchmark):
    requests, offers = generate_zone_market(
        5000, n_zones=20, seed=42, kind="network", locality="strong",
        cross_zone_fraction=0.05,
    )[:2]
    seconds = []
    outcome = benchmark.pedantic(
        _dense_clear,
        args=(
            requests, offers, AuctionConfig(engine="vectorized"),
            b"dense-10k", seconds,
        ),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert outcome.matches
    # Under 1 s on one core (0.19 s measured; 0.30 s before the back half
    # read the block once, 4.7-8.9 s while the match ranked the full
    # matrix), with the pruned path's outcome.
    assert min(seconds) < 1.0
    pruned = _dense_clear(
        requests, offers,
        AuctionConfig(engine="vectorized", candidates=NetworkZoneGenerator()),
        b"dense-10k", seconds,
    )
    assert canonical_outcome(outcome) == canonical_outcome(pruned)


def test_bench_dense_30k(benchmark):
    requests, offers = generate_zone_market(
        15000, n_zones=100, seed=42, kind="network", locality="strong",
        cross_zone_fraction=0.05,
    )[:2]
    seconds, phases = [], {}
    outcome = benchmark.pedantic(
        _dense_clear,
        args=(
            requests, offers, AuctionConfig(engine="vectorized"),
            b"dense-30k", seconds, phases,
        ),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert outcome.matches
    benchmark.extra_info["phase_seconds"] = phases
    print(
        "\ndense 30k: "
        + " ".join(f"{name} {phases[name]:.3f}s" for name in PHASES)
        + f" of {seconds[-1]:.3f}s"
    )
    # Under 3 s on one core (0.68 s measured, 1.13 s before the back half
    # read the block once), with the pruned path's outcome.
    assert min(seconds) < 3.0
    pruned = _dense_clear(
        requests, offers,
        AuctionConfig(engine="vectorized", candidates=NetworkZoneGenerator()),
        b"dense-30k", seconds,
    )
    assert canonical_outcome(outcome) == canonical_outcome(pruned)


@pytest.mark.skipif(
    not DENSE_SIZES, reason="opt in with DECLOUD_DENSE_SIZES (bid counts)"
)
def test_dense_ladder():
    """Per-phase seconds and peak RSS of one global dense clear per rung
    — ``generate_zone_market(bids // 2, n_zones=bids // 300, seed=3)``,
    ~150 offers per zone, the blocks of docs/PERFORMANCE.md's ladder
    (``DECLOUD_DENSE_SIZES="3000 10000 30000 100000"``).  ``ru_maxrss``
    is the process's high-water mark, so run a rung on its own to read
    that rung's."""
    warm = generate_zone_market(1500, n_zones=6, seed=3)[:2]
    _dense_clear(*warm, AuctionConfig(engine="vectorized"), b"warm", [])
    for bids in DENSE_SIZES:
        requests, offers = generate_zone_market(
            bids // 2, n_zones=max(1, bids // 300), seed=3
        )[:2]
        seconds, phases = [], {}
        outcome = _dense_clear(
            requests, offers, AuctionConfig(engine="vectorized"),
            b"perfbench-evidence", seconds, phases,
        )
        assert outcome.matches
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"\ndense {len(requests) + len(offers)} bids: "
            + " ".join(f"{name} {phases[name]:.3f}s" for name in PHASES)
            + f" of {seconds[-1]:.3f}s, ru_maxrss {rss:.0f} MiB"
        )


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
