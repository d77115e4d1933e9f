"""The cyclic collector sits out a clear.

A clear leaves no cyclic garbage, so a generation-2 pass during one only
re-scans the caller's heap.  ``DecloudAuction.run`` therefore pauses the
collector for the outermost run of a block of at least the young
generation's threshold of bids and restores the caller's setting after
it, on success and on error alike; nested runs (the shards and the
spillover round of a sharded clear) leave it alone.
"""

import gc

import pytest

from repro.common.errors import AuctionError
from repro.core import auction as auction_module
from repro.core.auction import DecloudAuction
from repro.core.candidates import NetworkZoneGenerator
from repro.core.config import AuctionConfig, ShardPlan
from repro.obs import Observability
from repro.workloads.generators import generate_market, generate_zone_market


def _zone_market(n_requests=400, n_zones=4):
    """One offer per request: 800 bids by default, over the default
    young-generation threshold of 700."""
    return generate_zone_market(
        n_requests, n_zones=n_zones, seed=5, kind="network",
        locality="strong", cross_zone_fraction=0.05,
    )[:2]


PATHS = {
    "dense": lambda: AuctionConfig(engine="vectorized"),
    "reference": lambda: AuctionConfig(engine="reference"),
    "pruned": lambda: AuctionConfig(
        engine="vectorized", candidates=NetworkZoneGenerator(verify="full")
    ),
    "sharded": lambda: AuctionConfig(
        engine="vectorized", sharding=ShardPlan(kind="network")
    ),
}


@pytest.fixture
def enables(monkeypatch):
    """Turn the collector on for the test; record each ``gc.enable``
    call with the state it found."""
    was = gc.isenabled()
    gc.enable()
    calls = []
    real_enable = gc.enable

    def enable():
        calls.append(gc.isenabled())
        real_enable()

    monkeypatch.setattr(gc, "enable", enable)
    yield calls
    monkeypatch.undo()
    if not was:
        gc.disable()


def _spy_inside(monkeypatch):
    inside = []
    real = auction_module.build_clusters

    def spy(*args, **kwargs):
        inside.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(auction_module, "build_clusters", spy)
    return inside


def test_the_collector_is_paused_for_a_run_and_back_on_after(
    enables, monkeypatch
):
    requests, offers = _zone_market()
    assert len(requests) + len(offers) >= gc.get_threshold()[0]
    inside = _spy_inside(monkeypatch)
    outcome = DecloudAuction(AuctionConfig(engine="vectorized")).run(
        requests, offers, obs=Observability()
    )
    assert outcome.matches
    assert inside == [False]
    assert enables == [False]
    assert gc.isenabled()


def test_a_block_under_the_young_threshold_leaves_it_running(
    enables, monkeypatch
):
    requests, offers = _zone_market(20, n_zones=2)
    assert len(requests) + len(offers) < gc.get_threshold()[0]
    inside = _spy_inside(monkeypatch)
    DecloudAuction(AuctionConfig(engine="vectorized")).run(requests, offers)
    assert inside == [True]
    assert enables == []
    assert gc.isenabled()


def test_the_collector_is_back_on_after_a_run_that_raises(enables):
    requests, offers = _zone_market()
    with pytest.raises(AuctionError, match="duplicate request id"):
        DecloudAuction().run(requests + requests[:1], offers)
    assert enables == [False]
    assert gc.isenabled()
    with pytest.raises(AuctionError, match="duplicate offer id"):
        DecloudAuction().run(requests, offers + offers[:1])
    assert enables == [False, False]
    assert gc.isenabled()


def test_a_callers_disabled_collector_stays_disabled(enables):
    requests, offers = _zone_market()
    gc.disable()
    DecloudAuction(PATHS["sharded"]()).run(requests, offers)
    assert not gc.isenabled()
    with pytest.raises(AuctionError):
        DecloudAuction().run(requests + requests[:1], offers)
    assert not gc.isenabled()
    assert enables == []


def test_a_sharded_run_re_enables_the_collector_once(enables):
    requests, offers = _zone_market()
    auction = DecloudAuction(PATHS["sharded"]())
    auction.run(requests, offers)
    assert auction.last_shard_stats["shards"] == 4
    assert auction.last_shard_stats["spillover_ran"]
    assert enables == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("obs_on", [False, True], ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_a_clear_leaves_no_cyclic_garbage(enables, path, obs_on):
    if path == "reference":
        requests, offers = generate_market(80, seed=3)[:2]
    else:
        requests, offers = _zone_market()
    config = PATHS[path]()
    obs = Observability() if obs_on else None
    gc.collect()
    gc.disable()
    try:
        outcome = DecloudAuction(config).run(
            requests, offers, evidence=b"gc", obs=obs
        )
        assert outcome.matches
        del outcome
        assert gc.collect() == 0
    finally:
        gc.enable()
