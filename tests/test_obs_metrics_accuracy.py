"""Metrics accuracy: every registry series equals its outcome-derived value.

The auction's ``_record_round`` only *derives* numbers from the
:class:`~repro.core.outcome.AuctionOutcome`; these tests recompute each
value independently from the outcome on the golden fixtures (and on
generated markets) and demand exact equality — a drifting metric is a
bug even when the mechanism is untouched.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.auction import DecloudAuction
from repro.core.candidates import NetworkZoneGenerator
from repro.core.config import AuctionConfig, ShardPlan
from repro.obs import Observability
from repro.obs.trace import span_seconds
from repro.sim.engine import MarketSimulator
from repro.sim.metrics import block_metrics_from_registry, compare_outcomes
from repro.workloads.generators import MarketScenario, generate_zone_market
from tests.differential.conftest import market_from_payload

GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures" / "golden"
FIXTURES = sorted(GOLDEN_DIR.glob("*.json"))


def _load(path: Path):
    fixture = json.loads(path.read_text())
    requests, offers = market_from_payload(fixture["market"])
    return fixture, requests, offers


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
@pytest.mark.parametrize("engine", ["reference", "vectorized"])
def test_registry_matches_outcome_on_golden_fixture(path, engine):
    fixture, requests, offers = _load(path)
    config = AuctionConfig(engine=engine, **fixture["config"])
    obs = Observability(f"golden-{path.stem}")
    outcome = DecloudAuction(config).run(
        requests,
        offers,
        evidence=bytes.fromhex(fixture["evidence"]),
        obs=obs,
    )
    reg = obs.registry

    assert reg.counter_value("auction_rounds_total") == 1.0
    assert reg.counter_value(
        "auction_bids_total", side="request"
    ) == float(len(requests))
    assert reg.counter_value(
        "auction_bids_total", side="offer"
    ) == float(len(offers))
    assert reg.counter_value("auction_trades_total") == float(
        len(outcome.matches)
    )
    assert reg.counter_value("auction_reduced_total") == float(
        len(outcome.reduced_requests)
    )
    assert reg.counter_value("auction_reduced_offers_total") == float(
        len(outcome.reduced_offers)
    )
    assert reg.counter_value("auction_welfare_total") == outcome.welfare

    # exact per-round gauges (bit-equality, no tolerance)
    assert reg.gauge_value("auction_last_trades") == float(
        outcome.num_trades
    )
    assert reg.gauge_value("auction_last_trades_pre_reduction") == float(
        outcome.num_trades + len(outcome.reduced_requests)
    )
    assert reg.gauge_value("auction_last_welfare") == outcome.welfare
    assert reg.gauge_value(
        "auction_last_payments"
    ) == outcome.total_payments
    revenues = sum(outcome.revenues().values())
    assert reg.gauge_value("auction_last_revenues") == revenues
    assert reg.gauge_value("auction_last_surplus") == (
        outcome.total_payments - revenues
    )
    assert reg.gauge_value(
        "auction_last_satisfaction"
    ) == outcome.satisfaction
    assert reg.gauge_value(
        "auction_last_unmatched", side="request"
    ) == float(len(outcome.unmatched_requests))
    assert reg.gauge_value(
        "auction_last_unmatched", side="offer"
    ) == float(len(outcome.unmatched_offers))

    prices = reg.histogram_stats("auction_trade_price")
    assert prices["count"] == len(outcome.prices)
    assert prices["sum"] == sum(outcome.prices)
    if outcome.prices:
        assert prices["min"] == min(outcome.prices)
        assert prices["max"] == max(outcome.prices)

    phases = reg.histogram_stats("auction_phase_seconds", phase="clear")
    assert phases["count"] == 1


_AUCTION_PHASES = {"match", "cluster", "normalize", "assemble", "clear"}
_PHASE_LAYOUTS = {
    "dense": (dict, _AUCTION_PHASES),
    "candidates": (
        lambda: {"candidates": NetworkZoneGenerator()}, _AUCTION_PHASES,
    ),
    "sharded": (
        lambda: {"sharding": ShardPlan(kind="network")},
        {"shard_partition", "shard_clear", "spillover"},
    ),
    # a geo plan resolves no network tag: one fallback shard, which
    # degenerates to the global auction
    "one-shard": (
        lambda: {"sharding": ShardPlan(kind="geo")}, _AUCTION_PHASES,
    ),
}


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
@pytest.mark.parametrize("layout", sorted(_PHASE_LAYOUTS))
def test_phase_labels_are_the_round_spans_children(layout, engine):
    """One name per phase: the ``auction_phase_seconds`` labels of a
    round are exactly its span's direct children, second for second."""
    options, expected = _PHASE_LAYOUTS[layout]
    requests, offers, _ = generate_zone_market(
        80, n_zones=4, seed=3, kind="network", locality="strong",
        cross_zone_fraction=0.05,
    )
    obs = Observability(f"phases-{layout}")
    DecloudAuction(AuctionConfig(engine=engine, **options())).run(
        requests, offers, evidence=b"phase-names", obs=obs
    )
    records = obs.tracer.records
    # the round span is the one ``_record_round`` reported from last: a
    # sharded round's shards report first, under their own shard label
    cleared = [r for r in records if r.get("name") == "auction.cleared"][-1]
    children = span_seconds(records, parent=cleared["span"])
    recorded = {
        dict(labels)["phase"]: series
        for (name, labels), series in obs.registry.histograms.items()
        if name == "auction_phase_seconds" and "shard" not in dict(labels)
    }
    assert set(recorded) == set(children) == expected
    for phase, series in recorded.items():
        assert series.count == children[phase]["count"] == 1
        assert series.sum == children[phase]["seconds"]


@pytest.mark.parametrize("seed", [0, 7])
def test_simulator_registry_metrics_equal_direct_comparison(seed):
    """MarketSimulator with obs == without obs, field for field."""
    scenario = MarketScenario(
        n_requests=60, offers_per_request=0.5, seed=seed
    )
    requests, offers = scenario.generate()
    config = AuctionConfig(cluster_breadth=16)

    obs = Observability(f"sim-{seed}")
    with_obs = MarketSimulator(config=config, seed=seed, obs=obs)
    metrics_obs, decloud, benchmark = with_obs.run_block(requests, offers)

    plain = MarketSimulator(config=config, seed=seed)
    metrics_plain, _, _ = plain.run_block(requests, offers)

    assert metrics_obs == metrics_plain
    # and both equal the direct outcome comparison
    assert metrics_obs == compare_outcomes(
        len(requests), len(offers), decloud, benchmark
    )
    # reading the registry again reproduces the same BlockMetrics
    assert block_metrics_from_registry(obs.registry) == metrics_obs


def test_mechanism_labels_separate_decloud_from_benchmark():
    scenario = MarketScenario(n_requests=40, offers_per_request=0.5, seed=3)
    requests, offers = scenario.generate()
    obs = Observability("labels")
    simulator = MarketSimulator(
        config=AuctionConfig(cluster_breadth=16), seed=3, obs=obs
    )
    _, decloud, benchmark = simulator.run_block(requests, offers)
    reg = obs.registry
    assert reg.gauge_value(
        "auction_last_trades", mechanism="decloud"
    ) == float(decloud.num_trades)
    assert reg.gauge_value(
        "auction_last_trades", mechanism="benchmark"
    ) == float(benchmark.num_trades)
    # the benchmark never reduces trades
    assert reg.gauge_value(
        "auction_last_reduced", mechanism="benchmark"
    ) == 0.0


def test_counters_accumulate_across_blocks():
    scenario = MarketScenario(n_requests=30, offers_per_request=0.5, seed=1)
    requests, offers = scenario.generate()
    obs = Observability("multi-block")
    simulator = MarketSimulator(
        config=AuctionConfig(cluster_breadth=16), seed=1, obs=obs
    )
    outcomes = []
    for _ in range(3):
        _, decloud, _ = simulator.run_block(requests, offers)
        outcomes.append(decloud)
    reg = obs.registry
    assert reg.counter_value(
        "auction_rounds_total", mechanism="decloud"
    ) == 3.0
    assert reg.counter_value(
        "auction_trades_total", mechanism="decloud"
    ) == float(sum(o.num_trades for o in outcomes))
