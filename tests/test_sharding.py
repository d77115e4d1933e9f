"""Unit tests for the sharded market fabric (:mod:`repro.core.sharding`).

The differential suite (``tests/differential/test_sharding_equivalence``)
owns the bit-identity contracts; this file covers the plumbing: plan
validation, partition rules, fallback routing, spillover ablation and
the ``shard_*`` metric series.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ValidationError
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig, ShardPlan
from repro.core.sharding import (
    FALLBACK_SHARD,
    derive_shard_evidence,
    partition_block,
    shard_config,
    shard_key,
)
from repro.market.location import GeoLocation, NetworkLocation, grid_cell
from repro.obs import Observability
from repro.workloads.generators import generate_zone_market
from tests.conftest import make_offer, make_request

EVIDENCE = b"sharding-unit-evidence"


# ---------------------------------------------------------------- plans


def test_shard_plan_rejects_bad_kind():
    with pytest.raises(ValidationError):
        ShardPlan(kind="postal")


def test_shard_plan_rejects_bad_depth_and_workers():
    with pytest.raises(ValidationError):
        ShardPlan(depth=0)
    with pytest.raises(ValidationError):
        ShardPlan(shard_workers=-1)
    with pytest.raises(ValidationError):
        ShardPlan(shard_workers=4)
    # the one accepted value is not part of the plan
    assert ShardPlan(shard_workers=0) == ShardPlan()


def test_shard_plan_rejects_out_of_range_cell():
    with pytest.raises(ValidationError):
        ShardPlan(kind="geo", cell_deg=0.0)
    with pytest.raises(ValidationError):
        ShardPlan(kind="geo", cell_deg=400.0)


def test_config_rejects_non_plan_sharding():
    with pytest.raises(ValidationError):
        AuctionConfig(sharding="network")  # type: ignore[arg-type]


# --------------------------------------------------------- shard_key


def test_shard_key_network_parses_tag_as_zone_path():
    plan = ShardPlan(kind="network", depth=1)
    assert shard_key("zone-3/cell-1", plan) == "zone:zone-3"
    assert shard_key("zone-3/cell-2", plan) == "zone:zone-3"
    deeper = ShardPlan(kind="network", depth=2)
    assert shard_key("zone-3/cell-1", deeper) == "zone:zone-3/cell-1"


def test_shard_key_network_uses_locations_map_when_given():
    plan = ShardPlan(
        kind="network",
        locations={"tag-a": NetworkLocation("east/rack-9")},
    )
    assert shard_key("tag-a", plan) == "zone:east"
    # tags absent from the map (or mapped to the wrong type) fall back
    assert shard_key("tag-b", plan) == FALLBACK_SHARD
    wrong = ShardPlan(kind="network", locations={"tag-a": object()})
    assert shard_key("tag-a", wrong) == FALLBACK_SHARD


def test_shard_key_geo_buckets_by_grid_cell():
    loc = GeoLocation(latitude=48.2, longitude=16.4)
    plan = ShardPlan(kind="geo", cell_deg=15.0, locations={"vienna": loc})
    row, col = grid_cell(loc, 15.0)
    assert shard_key("vienna", plan) == f"cell:{row}:{col}"
    assert shard_key("atlantis", plan) == FALLBACK_SHARD


def test_shard_key_unresolvable_goes_to_fallback():
    plan = ShardPlan(kind="network")
    assert shard_key(None, plan) == FALLBACK_SHARD
    assert shard_key("", plan) == FALLBACK_SHARD
    assert shard_key("///", plan) == FALLBACK_SHARD


# ----------------------------------------------------- partition_block


def test_partition_sorted_with_fallback_last_and_order_preserved():
    requests = [
        make_request("r0", location="zone-2/cell-0"),
        make_request("r1", location=None),
        make_request("r2", location="zone-1/cell-0"),
        make_request("r3", location="zone-2/cell-1"),
    ]
    offers = [
        make_offer("o0", location="zone-1/cell-3"),
        make_offer("o1", location="///"),
    ]
    shards = partition_block(requests, offers, ShardPlan(kind="network"))
    assert [s.key for s in shards] == [
        "zone:zone-1", "zone:zone-2", FALLBACK_SHARD,
    ]
    by_key = {s.key: s for s in shards}
    assert [r.request_id for r in by_key["zone:zone-2"].requests] == [
        "r0", "r3",
    ]
    assert [r.request_id for r in by_key[FALLBACK_SHARD].requests] == ["r1"]
    assert [o.offer_id for o in by_key[FALLBACK_SHARD].offers] == ["o1"]
    total = sum(s.n_bids for s in shards)
    assert total == len(requests) + len(offers)


def test_partition_empty_block():
    assert partition_block([], [], ShardPlan()) == []


def test_partition_resolves_each_distinct_tag_once(monkeypatch):
    """4,000 bids over 16 zones are 16 zone parses, not 4,000: the
    buckets, their order and the fallback routing are those of a
    per-bid ``shard_key``."""
    tags = [f"zone-{i % 5}/cell-{i % 3}" for i in range(15)] + [None, "///"]
    requests = [
        make_request(f"r{i}", location=tags[i % len(tags)]) for i in range(60)
    ]
    offers = [
        make_offer(f"o{i}", location=tags[(i * 7) % len(tags)])
        for i in range(40)
    ]
    plan = ShardPlan(kind="network")
    built = []
    original = NetworkLocation.__post_init__

    def spy(self):
        built.append(self.zone)
        original(self)

    monkeypatch.setattr(NetworkLocation, "__post_init__", spy)
    shards = partition_block(requests, offers, plan)
    distinct = {bid.location for bid in requests + offers}
    assert 0 < len(built) <= len(distinct)
    assert len(built) == len(set(built))
    by_key = {s.key: s for s in shards}
    assert list(by_key) == sorted(set(by_key) - {FALLBACK_SHARD}) + [FALLBACK_SHARD]
    for key, shard in by_key.items():
        assert list(shard.requests) == [
            r for r in requests if shard_key(r.location, plan) == key
        ]
        assert list(shard.offers) == [
            o for o in offers if shard_key(o.location, plan) == key
        ]
    assert sum(s.n_bids for s in shards) == len(requests) + len(offers)


def test_derive_shard_evidence_is_key_scoped():
    a = derive_shard_evidence(EVIDENCE, "zone:zone-1")
    b = derive_shard_evidence(EVIDENCE, "zone:zone-2")
    assert a != b
    assert a.startswith(EVIDENCE)


def test_shard_config_strips_sharding_and_candidates():
    from repro.core.candidates import NetworkZoneGenerator

    config = AuctionConfig(
        sharding=ShardPlan(), candidates=NetworkZoneGenerator()
    )
    sub = shard_config(config)
    assert sub.sharding is None
    assert sub.candidates is None
    assert sub.cluster_breadth == config.cluster_breadth


# ------------------------------------------------------------ fabric


def _network_market(**kwargs):
    defaults = dict(
        n_zones=4, seed=7, kind="network", locality="strong",
        cross_zone_fraction=0.25,
    )
    defaults.update(kwargs)
    requests, offers, _ = generate_zone_market(60, **defaults)
    return requests, offers


def test_spillover_off_leaves_survivors_unmatched():
    requests, offers = _network_market()
    plan = ShardPlan(kind="network", spillover=False)
    auction = DecloudAuction(AuctionConfig(sharding=plan))
    outcome = auction.run(requests, offers, evidence=EVIDENCE)
    stats = auction.last_shard_stats
    assert not stats["spillover_ran"]
    assert stats["spillover_trades"] == 0
    assert len(outcome.unmatched_requests) == stats["spillover_requests"]
    assert len(outcome.unmatched_offers) == stats["spillover_offers"]


def test_one_sided_shards_feed_the_spillover_pool():
    # zone-a holds only requests, zone-b only offers: neither can clear
    # locally, so every bid must surface in the spillover pool.
    requests = [
        make_request(f"r{i}", location="zone-a/x", bid=50.0)
        for i in range(3)
    ]
    offers = [
        make_offer(f"o{i}", location="zone-b/x", bid=1.0) for i in range(3)
    ]
    plan = ShardPlan(kind="network")
    auction = DecloudAuction(AuctionConfig(sharding=plan))
    auction.run(requests, offers, evidence=EVIDENCE)
    stats = auction.last_shard_stats
    assert stats["shards"] == 2
    assert stats["cleared_shards"] == 0
    assert stats["spillover_requests"] == 3
    assert stats["spillover_offers"] == 3
    assert stats["spillover_ran"]


def test_empty_block_clears_to_empty_outcome():
    auction = DecloudAuction(AuctionConfig(sharding=ShardPlan()))
    outcome = auction.run([], [], evidence=EVIDENCE)
    assert not outcome.matches
    assert auction.last_shard_stats["degenerate"]


def test_fallback_bids_counted_in_stats():
    requests, offers = _network_market()
    requests = requests + [make_request("r-lost", location=None)]
    auction = DecloudAuction(AuctionConfig(sharding=ShardPlan(kind="network")))
    auction.run(requests, offers, evidence=EVIDENCE)
    assert auction.last_shard_stats["fallback_bids"] == 1
    assert auction.last_shard_stats["shard_keys"][-1] == FALLBACK_SHARD


# ------------------------------------------------------------ metrics


def test_shard_metrics_recorded():
    requests, offers = _network_market()
    obs = Observability("shard-metrics")
    auction = DecloudAuction(AuctionConfig(sharding=ShardPlan(kind="network")))
    auction.run(requests, offers, evidence=EVIDENCE, obs=obs)
    snap = obs.registry.snapshot()
    stats = auction.last_shard_stats
    assert snap["counters"]["shard_blocks_total"] == 1
    assert snap["counters"]["shard_shards_total"] == stats["cleared_shards"]
    assert snap["gauges"]["shard_last_shards"] == stats["shards"]
    assert (
        snap["gauges"]["shard_last_spillover_bids{side=request}"]
        == stats["spillover_requests"]
    )
    assert (
        snap["gauges"]["shard_last_spillover_trades"]
        == stats["spillover_trades"]
    )
    hist = snap["histograms"]["shard_clear_seconds"]
    assert hist["count"] == stats["cleared_shards"]
    # the round series mirror the global path
    assert snap["counters"]["auction_rounds_total"] == 1


def test_degenerate_run_records_plain_round_metrics():
    requests, offers, _ = generate_zone_market(
        10, n_zones=1, seed=5, kind="network", locality="weak"
    )
    obs = Observability("shard-degenerate")
    auction = DecloudAuction(AuctionConfig(sharding=ShardPlan(kind="network")))
    auction.run(requests, offers, evidence=EVIDENCE, obs=obs)
    snap = obs.registry.snapshot()
    assert snap["counters"]["auction_rounds_total"] == 1
    assert "shard_blocks_total" not in snap["counters"]
