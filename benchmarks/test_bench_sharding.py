"""Sharded market fabric benches: global clear vs zone-sharded clear.

One zone market (``generate_zone_market``, zone count growing with the
block so zone occupancy stays roughly constant, a 5% cross-zone request
fraction keeping the spillover round honest) cleared two ways through
the vectorized engine:

* **global** — the unsharded baseline, one auction over the whole block;
* **sequential sharding** — the fabric's partition + per-shard pipeline
  + spillover, one after another on one core.

What the fabric buys depends on whether the block's resource types are
shared.  On a **strong-locality** market every zone has its own types,
the one-shot match already scores each zone's requests against that
zone's offers only (:mod:`repro.core.matching_vectorized`, "The pair
space"), and the global clear ties the sequential fabric on time — what
sharding still adds there is more trades (one global price-compatible
mini-auction reduces more of them than many zone-local ones).  On a
**weak-locality** market every bid declares the same types, the block
is one component, the global match is quadratic again, and clearing Z
zone-local slices plus a spillover round beats it.

``test_sharding_speedup`` gates the committed claim on the weak-locality
market — sequential sharding clears the full 10k-bid block at least 2x
faster than the global path (any win at reduced sizes) — and prints the
strong-locality ratio and both welfare ratios ungated, so the trade-off
stays visible in CI logs.  ``test_sharding_zone_scaling`` prints the
clear-time curve over zone counts and asserts more shards never makes
the fabric slower than its coarsest split.

Committed full-size curve (10k bids, 20 zones, one core).  Weak
locality: global 1.50s, sequential sharding 0.56s (2.7x), sharded
welfare 11x the global clear's.  Strong locality: global 0.30s (0.07s of
it ``match``; 4.7s and 4.47s while the match ranked the full matrix),
sequential sharding 0.38s (0.8x), sharded welfare 1.36x.  CI times the
two clears at a 4000-bid smoke via ``DECLOUD_SHARD_SIZES`` (strong:
0.10s vs 0.12s; weak: 0.29s vs 0.18s, 1.6x at that size) and runs the
speedup gate at the full size.

Env knobs:

- ``DECLOUD_SHARD_SIZES`` — space-separated bid counts (default
  ``10000``); the speedup gate runs at the largest listed size.
- ``DECLOUD_SHARD_ZONES`` — zone counts for the scaling curve (default
  ``2 4 8 16``).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig, ShardPlan
from repro.workloads.generators import generate_zone_market

SIZES = tuple(
    int(token)
    for token in os.environ.get("DECLOUD_SHARD_SIZES", "10000").split()
)
ZONE_COUNTS = tuple(
    int(token)
    for token in os.environ.get("DECLOUD_SHARD_ZONES", "2 4 8 16").split()
)
#: The committed claim: on a market whose types are shared, sequential
#: sharding at least halves the end-to-end block-clear time of the
#: global vectorized path.  Enforced at the full size; below it the
#: per-shard fixed costs eat into the ratio and any win passes.
MIN_SPEEDUP = 2.0
FULL_SIZE = 10000

_SECONDS: dict[tuple[str, int, str], float] = {}
_WELFARE: dict[tuple[str, int, str], float] = {}
_MARKETS: dict[tuple[int, int, str], tuple] = {}


def _zones_for(n_bids: int) -> int:
    # ~250 bids per zone at every size, min 4: bigger blocks cover more
    # zones instead of packing each one denser.
    return max(4, n_bids // 500)


def _market(n_bids: int, n_zones: int, locality: str = "strong"):
    key = (n_bids, n_zones, locality)
    if key not in _MARKETS:
        _MARKETS[key] = generate_zone_market(
            n_bids // 2,
            n_zones=n_zones,
            seed=42,
            kind="network",
            locality=locality,
            cross_zone_fraction=0.05,
        )[:2]
    return _MARKETS[key]


def _config(mode: str) -> AuctionConfig:
    if mode == "global":
        return AuctionConfig(engine="vectorized")
    return AuctionConfig(engine="vectorized", sharding=ShardPlan(kind="network"))


def _clear(mode: str, n_bids: int, locality: str = "strong"):
    requests, offers = _market(n_bids, _zones_for(n_bids), locality)
    start = time.perf_counter()
    outcome = DecloudAuction(_config(mode)).run(
        requests, offers, evidence=b"sharding-bench"
    )
    _SECONDS[(mode, n_bids, locality)] = time.perf_counter() - start
    _WELFARE[(mode, n_bids, locality)] = sum(
        m.welfare for m in outcome.matches
    )
    assert outcome.matches, f"no matches ({mode}, {locality}, n_bids={n_bids})"
    return outcome


def _bench(benchmark, mode: str):
    n_bids = max(SIZES)
    benchmark.pedantic(_clear, args=(mode, n_bids), rounds=1, iterations=1)
    print(
        f"\n{mode} n_bids={n_bids}: "
        f"{_SECONDS[(mode, n_bids, 'strong')]:.2f}s, "
        f"welfare {_WELFARE[(mode, n_bids, 'strong')]:.1f}"
    )


def test_bench_sharding_global(benchmark):
    _bench(benchmark, "global")


def test_bench_sharding_sequential(benchmark):
    _bench(benchmark, "sequential")


def test_sharding_speedup():
    """Sequential sharding halves the global clear time of a shared-type
    (weak-locality) block; on strong locality the two tie (printed)."""
    n_bids = max(SIZES)
    ratio = {}
    for locality in ("strong", "weak"):
        for mode in ("global", "sequential"):
            if (mode, n_bids, locality) not in _SECONDS:
                _clear(mode, n_bids, locality)
        global_s = _SECONDS[("global", n_bids, locality)]
        sharded_s = _SECONDS[("sequential", n_bids, locality)]
        ratio[locality] = global_s / sharded_s
        welfare_ratio = _WELFARE[("sequential", n_bids, locality)] / max(
            _WELFARE[("global", n_bids, locality)], 1e-12
        )
        print(
            f"\nsharding speedup at n_bids={n_bids}, {locality} locality: "
            f"global {global_s:.2f}s vs sharded {sharded_s:.2f}s "
            f"({ratio[locality]:.2f}x), welfare ratio sharded/global "
            f"{welfare_ratio:.3f}"
        )
    floor = MIN_SPEEDUP if n_bids >= FULL_SIZE else 1.0
    assert ratio["weak"] >= floor, (
        f"sharded clear is only {ratio['weak']:.2f}x faster than global on "
        f"the weak-locality market at n_bids={n_bids} (need >= {floor}x)"
    )


def test_sharding_zone_scaling():
    """Clear time over zone counts: finer shards must never lose to the
    coarsest split (10% slack for timer noise)."""
    if len(ZONE_COUNTS) < 2:
        pytest.skip("need at least two zone counts for a curve")
    n_bids = max(SIZES)
    seconds = {}
    for zones in ZONE_COUNTS:
        requests, offers = _market(n_bids, zones)
        start = time.perf_counter()
        auction = DecloudAuction(_config("sequential"))
        auction.run(requests, offers, evidence=b"sharding-bench")
        seconds[zones] = time.perf_counter() - start
        assert auction.last_shard_stats["shards"] == zones, (
            "network tags must shard one-to-one with generator zones"
        )
    curve = ", ".join(f"{z} zones: {seconds[z]:.2f}s" for z in ZONE_COUNTS)
    print(f"\nsharded clear scaling at n_bids={n_bids}: {curve}")
    coarsest, finest = ZONE_COUNTS[0], ZONE_COUNTS[-1]
    assert seconds[finest] <= seconds[coarsest] * 1.1, (
        f"finer sharding got slower: {curve}"
    )
