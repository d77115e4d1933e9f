"""Unit tests for the sharded market fabric (:mod:`repro.core.sharding`)
and the shared-pool machinery in :mod:`repro.core.parallel`.

The differential suite (``tests/differential/test_sharding_equivalence``)
owns the bit-identity contracts; this file covers the plumbing: plan
validation, partition rules, fallback routing, spillover ablation, lazy
pool creation, lease nesting, and the ``shard_*`` metric series.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.errors import ValidationError
from repro.core import parallel as parallel_mod
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig, ShardPlan
from repro.core.parallel import PoolLease, shared_pool
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


def test_shard_config_strips_and_clamps():
    config = AuctionConfig(
        sharding=ShardPlan(), miniauction_workers=6
    )
    sub = shard_config(config)
    assert sub.sharding is None
    assert sub.candidates is None
    assert sub.miniauction_workers == 1
    assert shard_config(replace(config, miniauction_workers=0)).miniauction_workers == 0


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


# -------------------------------------------------- pools and leases


class _CountingPool:
    """Stand-in executor: counts spawns, maps in-process."""

    spawned = 0

    def __init__(self, max_workers=None):
        type(self).spawned += 1
        self.max_workers = max_workers

    def map(self, fn, iterable):
        return [fn(item) for item in iterable]

    def shutdown(self, wait=True):
        pass


@pytest.fixture
def counting_pool(monkeypatch):
    _CountingPool.spawned = 0
    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _CountingPool)
    return _CountingPool


def test_no_pool_spawned_without_a_multi_auction_wave(counting_pool):
    # One request, one offer -> a single mini-auction -> every wave is
    # width one -> the executor must never be created.
    requests = [make_request("r0", bid=50.0)]
    offers = [make_offer("o0", bid=1.0)]
    config = AuctionConfig(miniauction_workers=4)
    DecloudAuction(config).run(requests, offers, evidence=EVIDENCE)
    assert counting_pool.spawned == 0


def _banded_market(n_bands=4):
    """Price-incompatible disjoint clusters -> one wave of width n.

    Band ``k`` trades its own resource type at prices around
    ``10**(2k)``: each band's used cost exceeds the previous band's
    winning valuation, so no two clusters are price-compatible and
    every band becomes its own mini-auction with disjoint participants.
    """
    from repro.common.timewindow import TimeWindow

    requests, offers = [], []
    for k in range(n_bands):
        t = f"band-{k}"
        requests.append(
            make_request(
                f"r{k}", resources={t: 1.0}, significance={t: 1.0},
                bid=5.0 * 10.0 ** (2 * k), duration=1.0,
                window=TimeWindow(0, 3),
            )
        )
        offers.append(
            make_offer(f"o{k}", resources={t: 1.0}, bid=24.0 * 10.0 ** (2 * k))
        )
    return requests, offers


def test_pool_spawned_once_and_reused_across_waves(counting_pool):
    # Four price-incompatible bands -> four participant-disjoint
    # mini-auctions in one wave; the lease must spawn exactly one
    # executor for the whole block.
    requests, offers = _banded_market()
    config = AuctionConfig(miniauction_workers=4)
    DecloudAuction(config).run(requests, offers, evidence=EVIDENCE)
    assert counting_pool.spawned == 1


def test_shard_fanout_skips_pool_for_single_runnable_shard(counting_pool):
    requests, offers, _ = generate_zone_market(
        12, n_zones=1, seed=3, kind="network", locality="weak"
    )
    # Force a non-degenerate partition with exactly one *runnable*
    # shard: a second shard holding only offers.
    offers = offers + [make_offer("o-far", location="zone-far/x")]
    plan = ShardPlan(kind="network", shard_workers=4)
    auction = DecloudAuction(AuctionConfig(sharding=plan))
    auction.run(requests, offers, evidence=EVIDENCE)
    assert auction.last_shard_stats["cleared_shards"] == 1
    assert counting_pool.spawned == 0


def test_shard_fanout_and_spillover_share_one_lease(counting_pool):
    requests, offers = _network_market()
    plan = ShardPlan(kind="network", shard_workers=3)
    config = AuctionConfig(sharding=plan, miniauction_workers=3)
    DecloudAuction(config).run(requests, offers, evidence=EVIDENCE)
    # The shard fan-out spawns the pool; the spillover round's waves
    # (running in-parent under the same lease) must reuse it.
    assert counting_pool.spawned <= 1


def test_shared_pool_nests_onto_the_outermost_lease():
    with shared_pool(4) as outer:
        with shared_pool(2) as inner:
            assert inner is outer
            assert inner.max_workers == 4
        # inner exit must not close the outer lease
        assert parallel_mod._CURRENT_LEASE is outer
    assert parallel_mod._CURRENT_LEASE is None


def test_pool_lease_fail_stops_retries(counting_pool):
    lease = PoolLease(2)
    assert lease.get() is not None
    lease.fail()
    assert lease.get() is None
    assert counting_pool.spawned == 1


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
