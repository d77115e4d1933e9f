#!/usr/bin/env python
"""Sharding sweep: what the zone-sharded fabric buys and what it costs.

Clears the same zone markets two ways — the global vectorized auction
and the sharded fabric — over a grid of block sizes and locality
regimes, and reports for every point:

* end-to-end clear time and throughput (bids/second),
* welfare ratio sharded/global (the fabric's trade-off: cross-zone
  pairs only meet in the spillover round, against leftovers instead of
  the full book — under strong locality the fabric usually *gains*
  welfare instead, because the global clear pools everything into one
  giant mini-auction whose trade reduction sacrifices far more trades),
* shard count, spillover volume, and spillover trades.

The sweep is deterministic: every row's trades and welfare repeat
exactly from run to run.

Run:  python examples/sharding_sweep.py

Env knobs (CI smoke shrinks the grid):

- ``DECLOUD_SWEEP_SIZES`` — bid counts (default ``2000 6000 10000``)
- ``DECLOUD_SWEEP_CSV``   — also write the grid to this CSV path
"""

from __future__ import annotations

import csv
import os
import time

from repro.core import AuctionConfig, DecloudAuction, ShardPlan
from repro.workloads.generators import generate_zone_market

SIZES = tuple(
    int(token)
    for token in os.environ.get(
        "DECLOUD_SWEEP_SIZES", "2000 6000 10000"
    ).split()
)
CSV_PATH = os.environ.get("DECLOUD_SWEEP_CSV", "").strip()

COLUMNS = [
    "n_bids", "locality", "mode", "seconds", "bids_per_second",
    "trades", "welfare", "welfare_ratio", "shards", "spillover_bids",
    "spillover_trades",
]


def _market(n_bids: int, locality: str):
    return generate_zone_market(
        n_bids // 2,
        n_zones=max(4, n_bids // 500),
        seed=42,
        kind="network",
        locality=locality,
        cross_zone_fraction=0.05,
    )[:2]


MODES = (
    ("global", AuctionConfig(engine="vectorized")),
    (
        "sharded",
        AuctionConfig(engine="vectorized", sharding=ShardPlan(kind="network")),
    ),
)


def main() -> None:
    print(
        f"sharding sweep: sizes {list(SIZES)}, strong + weak locality\n"
    )
    header = (
        f"{'bids':>6}  {'locality':>8}  {'mode':>10}  {'time':>7}  "
        f"{'bids/s':>8}  {'trades':>6}  {'welfare':>10}  {'w-ratio':>7}  "
        f"{'shards':>6}  {'spill':>6}"
    )
    print(header)
    print("-" * len(header))
    rows = []
    for n_bids in SIZES:
        for locality in ("strong", "weak"):
            requests, offers = _market(n_bids, locality)
            global_welfare = None
            for mode, config in MODES:
                auction = DecloudAuction(config)
                start = time.perf_counter()
                outcome = auction.run(
                    requests, offers, evidence=b"sharding-sweep"
                )
                seconds = time.perf_counter() - start
                welfare = sum(m.welfare for m in outcome.matches)
                if global_welfare is None:
                    global_welfare = welfare
                ratio = welfare / max(global_welfare, 1e-12)
                stats = auction.last_shard_stats
                spill = (
                    stats.get("spillover_requests", 0)
                    + stats.get("spillover_offers", 0)
                )
                row = {
                    "n_bids": n_bids,
                    "locality": locality,
                    "mode": mode,
                    "seconds": round(seconds, 3),
                    "bids_per_second": round(n_bids / seconds, 1),
                    "trades": len(outcome.matches),
                    "welfare": round(welfare, 2),
                    "welfare_ratio": round(ratio, 4),
                    "shards": stats.get("shards", 1),
                    "spillover_bids": spill,
                    "spillover_trades": stats.get("spillover_trades", 0),
                }
                rows.append(row)
                print(
                    f"{n_bids:>6}  {locality:>8}  {mode:>10}  "
                    f"{seconds:>6.2f}s  {row['bids_per_second']:>8.1f}  "
                    f"{row['trades']:>6}  {welfare:>10.1f}  "
                    f"{ratio:>7.3f}  {row['shards']:>6}  {spill:>6}"
                )
        print()

    if CSV_PATH:
        with open(CSV_PATH, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {CSV_PATH}")
    print("OK")


if __name__ == "__main__":
    main()
