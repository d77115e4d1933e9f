"""Candidate-path scaling benches: n=1k / 10k / 100k bid blocks.

Each bench clears one zone-structured market (``generate_zone_market``,
strong locality, zone count growing with the block so zone occupancy
stays roughly constant) through the full vectorized pipeline with the
:class:`~repro.core.candidates.NetworkZoneGenerator` in front of the
matcher.  The certificate ``verify`` knob is off here — inline scalar
replay is an audit tool and deliberately O(pairs); the safety claim is
carried by the differential + property suites, not by the benches.

``test_candidate_scaling_subquadratic`` fits a log-log slope across the
measured sizes and asserts the candidate path stays clearly below the
all-pairs exponent (slope 2.0): the committed full-block curve on one
core is 0.04s / 0.44s / 32.4s for 1k / 10k / 100k bids, slope ~1.45.

Env knobs (CI smoke mirrors the other benches):

- ``DECLOUD_CAND_SIZES``  — space-separated bid counts (default
  ``1000 10000 100000``); sizes not listed are skipped.
- ``DECLOUD_CAND_STRIDE`` — request-side sampling stride.  Stride k
  keeps every k-th request but the *full* offer book, so the 100k-bid
  grouping/screening machinery still runs at full width while the
  admission work shrinks by ~k (the CI "stride-sampled 100k run").
"""

from __future__ import annotations

import math
import os

import pytest

from repro.core.auction import DecloudAuction
from repro.core.candidates import NetworkZoneGenerator
from repro.core.config import AuctionConfig
from repro.workloads.generators import generate_zone_market

SIZES = tuple(
    int(token)
    for token in os.environ.get(
        "DECLOUD_CAND_SIZES", "1000 10000 100000"
    ).split()
)
STRIDE = int(os.environ.get("DECLOUD_CAND_STRIDE", "1"))
#: All-pairs is slope 2.0; the committed full-block curve sits at ~1.45
#: and leaves headroom for runner noise without letting a quadratic
#: regression through.
MAX_SLOPE = 1.8

_SECONDS: dict[int, float] = {}
_STATS: dict[int, dict] = {}


def _zones_for(n_bids: int) -> int:
    # ~150 offers per zone at every size: a bigger market covers more
    # cells, it does not pack more providers into each one.
    return max(8, n_bids // 300)


def _clear_block(n_bids: int):
    requests, offers, _ = generate_zone_market(
        n_bids // 2,
        n_zones=_zones_for(n_bids),
        seed=3,
        kind="network",
        locality="strong",
    )
    requests = requests[::STRIDE]
    generator = NetworkZoneGenerator(verify="off")
    config = AuctionConfig(engine="vectorized", candidates=generator)
    import time

    start = time.perf_counter()
    outcome = DecloudAuction(config).run(
        requests, offers, evidence=b"candidate-bench"
    )
    _SECONDS[n_bids] = time.perf_counter() - start
    _STATS[n_bids] = dict(generator.last_stats)
    assert outcome.matches, f"no matches at n_bids={n_bids}"
    return outcome


def _bench(benchmark, n_bids: int):
    if n_bids not in SIZES:
        pytest.skip(f"n_bids={n_bids} not in DECLOUD_CAND_SIZES")
    benchmark.pedantic(_clear_block, args=(n_bids,), rounds=1, iterations=1)
    stats = _STATS[n_bids]
    admitted = stats["pairs_admitted"] / max(stats["pairs_total"], 1)
    print(
        f"\nn_bids={n_bids} stride={STRIDE}: {_SECONDS[n_bids]:.2f}s, "
        f"{stats['groups']} groups, admitted {100 * admitted:.2f}% "
        f"of {stats['pairs_total']} pairs in {stats['rounds']} rounds"
    )


def test_bench_candidates_1k(benchmark):
    _bench(benchmark, 1_000)


def test_bench_candidates_10k(benchmark):
    _bench(benchmark, 10_000)


def test_bench_candidates_100k(benchmark):
    _bench(benchmark, 100_000)


def test_candidate_scaling_subquadratic():
    """Log-log slope of round time vs block size stays sub-quadratic."""
    sizes = sorted(SIZES)
    if len(sizes) < 2:
        pytest.skip("need at least two sizes for a slope fit")
    for n_bids in sizes:
        if n_bids not in _SECONDS:
            _clear_block(n_bids)

    xs = [math.log10(n) for n in sizes]
    # Floor at 50ms: below that, interpreter noise dominates and an
    # artificially fast small-block point would steepen the fit.
    ys = [math.log10(max(_SECONDS[n], 0.05)) for n in sizes]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    ) / sum((x - mean_x) ** 2 for x in xs)

    curve = ", ".join(f"{n}: {_SECONDS[n]:.2f}s" for n in sizes)
    print(f"\ncandidate path scaling (stride={STRIDE}): {curve} "
          f"-> slope {slope:.2f}")
    assert slope < MAX_SLOPE, (
        f"candidate path scaling slope {slope:.2f} >= {MAX_SLOPE} "
        f"({curve}); the pruning stage is no longer sub-quadratic"
    )
    # The admitted share must *shrink* as the block grows — constant
    # share would mean the screens stopped pruning relative work.
    shares = [
        _STATS[n]["pairs_admitted"] / max(_STATS[n]["pairs_total"], 1)
        for n in sizes
    ]
    assert shares == sorted(shares, reverse=True), (
        f"admitted pair share is not monotonically shrinking: {shares}"
    )
