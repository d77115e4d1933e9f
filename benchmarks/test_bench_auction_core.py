"""Throughput benchmarks for the auction core itself.

Unlike the figure benches (one-shot harness wrappers), these measure the
hot path — clearing a block — with real pytest-benchmark statistics.
"""

from __future__ import annotations

import pytest

from repro.core.auction import DecloudAuction
from repro.core.candidates import NetworkZoneGenerator
from repro.core.cluster_allocation import PairChecks, allocate_cluster
from repro.core.clustering import build_clusters
from repro.core.config import AuctionConfig
from repro.core.miniauctions import build_mini_auctions
from repro.core.normalization_vectorized import compute_economics_batch
from repro.core.parallel import clear_auctions_scheduled
from repro.experiments.sweeps import eval_config
from repro.workloads.generators import MarketScenario, generate_zone_market


@pytest.mark.parametrize("n_requests", [50, 200])
def test_bench_clear_block(benchmark, n_requests):
    scenario = MarketScenario(n_requests=n_requests, seed=7)
    requests, offers = scenario.generate()
    auction = DecloudAuction(eval_config())

    outcome = benchmark(auction.run, requests, offers, b"bench-evidence")
    assert outcome.num_trades > 0
    # Strong budget balance on every cleared block.
    assert abs(
        outcome.total_payments - sum(outcome.revenues().values())
    ) < 1e-9


def test_bench_back_half_10k(benchmark):
    """Normalize, assemble and clear over prebuilt 10k-bid clusters.

    The match phase runs once, outside the timed region; each timed
    round hands a fresh ``PairChecks`` what the match stage fed, as
    inside :meth:`DecloudAuction.run`.  What is timed is everything
    ``run`` does after ``build_clusters`` — batched §IV-C economics over
    the CSR rows, the pair-fact pass of the first fit, the tentative
    greedy fits, Alg. 3 and the scheduled Alg. 4 clears — on the
    10,000-bid zone market of perfbench's ``clear_pruned`` workload.
    """
    requests, offers, _ = generate_zone_market(
        5000, n_zones=20, seed=303, kind="network", locality="strong",
        cross_zone_fraction=0.05,
    )
    config = AuctionConfig(
        engine="vectorized", candidates=NetworkZoneGenerator(verify="off")
    )
    request_by_id = {r.request_id: r for r in requests}
    offer_by_id = {o.offer_id: o for o in offers}
    fed = []  # (block arrays, best-offer sets), as the match stage feeds
    clusters, _ = build_clusters(
        requests, offers, config, feed=lambda *facts: fed.extend(facts)
    )
    populated = [
        (
            cluster,
            [request_by_id[rid] for rid in sorted(cluster.request_ids)],
            [offer_by_id[oid] for oid in sorted(cluster.offer_ids)],
        )
        for cluster in clusters
    ]

    def back_half():
        pairs = PairChecks()
        pairs.feed(*fed)
        economics = compute_economics_batch(
            [(members, machines) for _, members, machines in populated],
            config,
            pairs.block,
        )
        allocations = [
            allocate_cluster(
                cluster, members, machines, config, economics=eco, pairs=pairs
            )
            for (cluster, members, machines), eco in zip(populated, economics)
        ]
        auctions = build_mini_auctions(allocations, config)
        return clear_auctions_scheduled(
            auctions, request_by_id, offer_by_id, set(), set(), config,
            b"bench-evidence", pairs=pairs,
        )

    results = benchmark.pedantic(back_half, rounds=5, iterations=1)
    assert sum(len(result.matches) for result in results) > 1000
