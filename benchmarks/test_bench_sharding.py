"""Sharded market fabric benches: global clear vs zone-sharded clear.

One strong-locality zone market (``generate_zone_market``, zone count
growing with the block so zone occupancy stays roughly constant, a 5%
cross-zone request fraction keeping the spillover round honest) cleared
three ways through the vectorized engine:

* **global** — the unsharded baseline, one auction over the whole block;
* **sequential sharding** (``shard_workers=0``) — the fabric's partition
  + per-shard pipeline + spillover, all on one core.  This is where the
  structural win lives: all-pairs matching is quadratic in block size
  (95% of the global 10k clear), so clearing Z zone-local slices beats
  one global clear long before any parallelism;
* **pooled sharding** (``shard_workers=4``) — the same digest computed
  across a process pool (bit-identity is the differential suite's
  contract, not re-asserted here).

``test_sharding_speedup`` gates the committed claim: sequential sharding
clears the largest configured block at least 2x faster than the global
path, and prints the welfare delta so the trade-off stays visible in CI
logs.  ``test_sharding_zone_scaling`` prints the clear-time curve over
zone counts and asserts more shards never makes the fabric slower than
its coarsest split.

Committed full-size curve (10k bids, 20 zones, one core): global 4.7s
(4.47s of it ``match``), sequential sharding 0.71s (6.6x); sharded
welfare 1.37x the global clear's (the global price-compatible
mini-auction reduces more trades).  CI runs a 4000-bid smoke via
``DECLOUD_SHARD_SIZES`` (0.79s vs 0.19s, 4.1x, at that size).

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
#: The committed claim: sequential sharding at least halves the
#: end-to-end block-clear time of the global vectorized path.
MIN_SPEEDUP = 2.0

_SECONDS: dict[tuple[str, int], float] = {}
_WELFARE: dict[tuple[str, int], float] = {}
_MARKETS: dict[tuple[int, int], tuple] = {}


def _zones_for(n_bids: int) -> int:
    # ~250 bids per zone at every size, min 4: bigger blocks cover more
    # zones instead of packing each one denser.
    return max(4, n_bids // 500)


def _market(n_bids: int, n_zones: int):
    key = (n_bids, n_zones)
    if key not in _MARKETS:
        _MARKETS[key] = generate_zone_market(
            n_bids // 2,
            n_zones=n_zones,
            seed=42,
            kind="network",
            locality="strong",
            cross_zone_fraction=0.05,
        )[:2]
    return _MARKETS[key]


def _config(mode: str) -> AuctionConfig:
    if mode == "global":
        return AuctionConfig(engine="vectorized")
    workers = 4 if mode == "pooled" else 0
    return AuctionConfig(
        engine="vectorized",
        sharding=ShardPlan(kind="network", shard_workers=workers),
    )


def _clear(mode: str, n_bids: int, n_zones: int | None = None):
    requests, offers = _market(n_bids, n_zones or _zones_for(n_bids))
    start = time.perf_counter()
    outcome = DecloudAuction(_config(mode)).run(
        requests, offers, evidence=b"sharding-bench"
    )
    _SECONDS[(mode, n_bids)] = time.perf_counter() - start
    _WELFARE[(mode, n_bids)] = sum(m.welfare for m in outcome.matches)
    assert outcome.matches, f"no matches ({mode}, n_bids={n_bids})"
    return outcome


def _bench(benchmark, mode: str):
    n_bids = max(SIZES)
    benchmark.pedantic(_clear, args=(mode, n_bids), rounds=1, iterations=1)
    print(
        f"\n{mode} n_bids={n_bids}: {_SECONDS[(mode, n_bids)]:.2f}s, "
        f"welfare {_WELFARE[(mode, n_bids)]:.1f}"
    )


def test_bench_sharding_global(benchmark):
    _bench(benchmark, "global")


def test_bench_sharding_sequential(benchmark):
    _bench(benchmark, "sequential")


def test_bench_sharding_pooled(benchmark):
    _bench(benchmark, "pooled")


def test_sharding_speedup():
    """Sequential sharding halves the global clear time (committed 2x)."""
    n_bids = max(SIZES)
    for mode in ("global", "sequential"):
        if (mode, n_bids) not in _SECONDS:
            _clear(mode, n_bids)
    global_s = _SECONDS[("global", n_bids)]
    sharded_s = _SECONDS[("sequential", n_bids)]
    welfare_ratio = _WELFARE[("sequential", n_bids)] / max(
        _WELFARE[("global", n_bids)], 1e-12
    )
    print(
        f"\nsharding speedup at n_bids={n_bids}: global {global_s:.2f}s "
        f"vs sharded {sharded_s:.2f}s ({global_s / sharded_s:.2f}x), "
        f"welfare ratio sharded/global {welfare_ratio:.3f}"
    )
    assert MIN_SPEEDUP * sharded_s <= global_s, (
        f"sharded clear is only {global_s / sharded_s:.2f}x faster than "
        f"global at n_bids={n_bids} (need >= {MIN_SPEEDUP}x)"
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
