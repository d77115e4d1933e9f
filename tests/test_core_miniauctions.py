"""Unit tests for mini-auction formation (Alg. 3)."""

from collections import Counter

import pytest

from repro.core import cluster_allocation
from repro.core.cluster_allocation import allocate_cluster
from repro.core.clustering import Cluster
from repro.core.config import AuctionConfig
from repro.core.welfare import pair_welfare
from repro.core.miniauctions import (
    build_mini_auctions,
    price_compatible,
    select_roots,
)
from tests.conftest import make_offer, make_request

CONFIG = AuctionConfig()


def _allocation(request_bids, offer_bids, tag, duration=4.0):
    """A one-cluster allocation whose price range derives from the bids."""
    requests = [
        make_request(request_id=f"r-{tag}-{i}", bid=bid, duration=duration)
        for i, bid in enumerate(request_bids)
    ]
    offers = [
        make_offer(offer_id=f"o-{tag}-{i}", bid=bid)
        for i, bid in enumerate(offer_bids)
    ]
    cluster = Cluster(
        offer_ids=frozenset(o.offer_id for o in offers),
        request_ids={r.request_id for r in requests},
    )
    return allocate_cluster(cluster, requests, offers, CONFIG)


class TestPriceCompatible:
    def test_overlapping_ranges_compatible(self):
        a = _allocation([8.0, 6.0], [2.0], tag="a")
        b = _allocation([7.0, 5.0], [3.0], tag="b")
        assert price_compatible(a, b)
        assert price_compatible(b, a)

    def test_disjoint_ranges_incompatible(self):
        cheap = _allocation([2.0], [0.1], tag="cheap", duration=8.0)
        dear = _allocation([200.0], [90.0], tag="dear", duration=1.0)
        assert not price_compatible(cheap, dear)

    def test_tradeless_cluster_never_compatible(self):
        trading = _allocation([8.0], [2.0], tag="t")
        empty = _allocation([0.0001], [50.0], tag="e")
        assert not empty.has_trades
        assert not price_compatible(trading, empty)


class TestSelectRoots:
    def test_non_overlapping_all_selected(self):
        cheap = _allocation([2.0], [0.1], tag="c", duration=8.0)
        dear = _allocation([200.0], [90.0], tag="d", duration=1.0)
        roots = select_roots([cheap, dear])
        assert len(roots) == 2

    def test_overlapping_picks_subset(self):
        a = _allocation([8.0, 6.0], [2.0], tag="a")
        b = _allocation([7.0, 5.0], [3.0], tag="b")
        roots = select_roots([a, b])
        assert len(roots) == 1

    def test_empty_input(self):
        assert select_roots([]) == []

    def test_narrow_interval_preferred(self):
        # Two overlapping clusters: the narrower price range should win
        # the root slot ("minimum non-overlapping ranges").
        narrow = _allocation([6.0, 5.9], [5.0], tag="n")
        wide = _allocation([60.0, 5.95], [0.5], tag="w")
        roots = select_roots([narrow, wide])
        if len(roots) == 1:
            low, high = roots[0].price_range
            n_low, n_high = narrow.price_range
            assert (high - low) <= (wide.price_range[1] - wide.price_range[0])


class TestBuildMiniAuctions:
    def test_tradeless_clusters_dropped(self):
        trading = _allocation([8.0], [2.0], tag="t")
        empty = _allocation([0.0001], [50.0], tag="e")
        auctions = build_mini_auctions([trading, empty], CONFIG)
        assert len(auctions) == 1
        assert auctions[0].allocations == [trading]

    def test_compatible_clusters_grouped(self):
        a = _allocation([8.0, 6.0], [2.0], tag="a")
        b = _allocation([7.0, 5.0], [3.0], tag="b")
        auctions = build_mini_auctions([a, b], CONFIG)
        # One path containing both (order may vary).
        assert any(len(auction.allocations) == 2 for auction in auctions)

    def test_incompatible_clusters_separate(self):
        cheap = _allocation([2.0], [0.1], tag="c", duration=8.0)
        dear = _allocation([200.0], [90.0], tag="d", duration=1.0)
        auctions = build_mini_auctions([cheap, dear], CONFIG)
        assert len(auctions) == 2
        assert all(len(a.allocations) == 1 for a in auctions)

    def test_disabled_mini_auctions_gives_singletons(self):
        a = _allocation([8.0, 6.0], [2.0], tag="a")
        b = _allocation([7.0, 5.0], [3.0], tag="b")
        config = AuctionConfig(enable_mini_auctions=False)
        auctions = build_mini_auctions([a, b], config)
        assert len(auctions) == 2
        assert all(len(x.allocations) == 1 for x in auctions)

    def test_sorted_by_welfare(self):
        small = _allocation([3.0], [2.5], tag="s", duration=8.0)
        big = _allocation([300.0, 250.0], [10.0, 11.0], tag="b", duration=1.0)
        auctions = build_mini_auctions([small, big], CONFIG)
        welfares = [a.tentative_welfare for a in auctions]
        assert welfares == sorted(welfares, reverse=True)

    def test_num_tentative_trades(self):
        a = _allocation([8.0, 6.0], [2.0], tag="a")
        auctions = build_mini_auctions([a], CONFIG)
        assert auctions[0].num_tentative_trades == len(a.matches)

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_tentative_welfare_is_summed_once_per_allocation(
        self, monkeypatch, engine
    ):
        # Root selection, the attach order and the final auction order
        # all read ``tentative_welfare``.  Each allocation sums it once,
        # when it is built, from the Eq. (6) fractions its fit already
        # derived — reading it derives nothing again.
        asked = Counter()
        real = cluster_allocation.resource_fraction

        def counting(request, offer):
            asked[request.request_id, offer.offer_id] += 1
            return real(request, offer)

        monkeypatch.setattr(cluster_allocation, "resource_fraction", counting)
        allocations = [
            _allocation([8.0, 6.0], [2.0], tag="a"),
            _allocation([7.0, 5.0], [3.0], tag="b"),
            _allocation([7.5, 5.5, 5.0], [2.5, 2.6], tag="c"),
            _allocation([200.0], [90.0], tag="d", duration=1.0),
        ]
        matched = [(r, o) for a in allocations for r, o in a.matches]
        assert matched and all(
            asked[r.request_id, o.offer_id] == 1 for r, o in matched
        )
        before = dict(asked)
        monkeypatch.setattr(
            cluster_allocation, "pair_welfare",
            lambda *_: pytest.fail("welfare re-derived on read"),
        )
        auctions = build_mini_auctions(allocations, AuctionConfig(engine=engine))
        for auction in auctions:
            assert auction.tentative_welfare == sum(
                a.tentative_welfare for a in auction.allocations
            )
        assert dict(asked) == before
        for allocation in allocations:
            assert allocation.tentative_welfare == sum(
                pair_welfare(r, o) for r, o in allocation.matches
            )

    def test_hand_built_allocation_still_sums_its_welfare(self):
        built = _allocation([8.0, 6.0], [2.0], tag="a")
        by_hand = cluster_allocation.ClusterAllocation(
            cluster=built.cluster, requests=built.requests,
            offers=built.offers, economics=built.economics,
            matches=built.matches,
        )
        assert by_hand.tentative_welfare == built.tentative_welfare > 0
