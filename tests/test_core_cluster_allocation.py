"""Unit tests for capacity tracking and greedy in-cluster allocation."""

import math
from collections import Counter

import pytest

from repro.core import cluster_allocation
from repro.core.auction import DecloudAuction
from repro.core.cluster_allocation import (
    OfferCapacity,
    PairChecks,
    allocate_cluster,
    greedy_fit,
    sorted_offers,
    sorted_requests,
)
from repro.core.clustering import Cluster
from repro.core.config import AuctionConfig
from repro.core.matching import block_maxima
from repro.core.matching_vectorized import BlockArrays
from repro.core.normalization import compute_economics
from repro.core.outcome import canonical_outcome
from repro.core.welfare import resource_fraction
from repro.common.timewindow import TimeWindow
from repro.market.feasibility import is_feasible
from repro.workloads.generators import generate_market
from tests.conftest import make_offer, make_request

CONFIG = AuctionConfig()


def _cluster_for(requests, offers):
    return Cluster(
        offer_ids=frozenset(o.offer_id for o in offers),
        request_ids={r.request_id for r in requests},
    )


class TestOfferCapacity:
    def test_time_weighted_consumption(self):
        offer = make_offer(resources={"cpu": 8}, window=None)  # span 24
        capacity = OfferCapacity([offer])
        request = make_request(resources={"cpu": 8}, duration=12, window=TimeWindow(0, 24))
        assert capacity.can_host(request, offer)
        capacity.consume(request, offer)
        # 12/24 * 8 = 4 consumed; 4 left.
        assert capacity.remaining(offer.offer_id)["cpu"] == pytest.approx(4.0)

    def test_rejects_when_depleted(self):
        offer = make_offer(resources={"cpu": 8})
        capacity = OfferCapacity([offer])
        full = make_request(request_id="full", resources={"cpu": 8}, duration=10,
                            )
        # 10/24*8 = 3.33 three times exceeds 8
        for i in range(2):
            assert capacity.can_host(full, offer)
            capacity.consume(full, offer)
        third = make_request(request_id="third", resources={"cpu": 8}, duration=10)
        assert not capacity.can_host(third, offer)

    def test_flexible_needs_less(self):
        offer = make_offer(resources={"cpu": 10})
        capacity = OfferCapacity([offer])
        # strict twin would need 24/24*10 = 10; flexible needs 8.
        flexible = make_request(
            resources={"cpu": 10},
            significance={"cpu": 0.5},
            flexibility=0.8,
            duration=10,
        )
        big = make_request(
            request_id="blocker", resources={"cpu": 10}, duration=20,
            window=TimeWindow(0, 24),
        )
        capacity.consume(big, offer)  # 20/24*10 = 8.33 -> 1.67 left
        assert not capacity.can_host(
            make_request(request_id="strict2", resources={"cpu": 10}, duration=10), offer
        )
        assert not capacity.can_host(flexible, offer)  # needs 10/24*8=3.33 > 1.67
        small = make_request(request_id="tiny", resources={"cpu": 1}, duration=2)
        assert capacity.can_host(small, offer)

    def test_restore_inverts_consume(self):
        offer = make_offer(resources={"cpu": 8, "ram": 32})
        capacity = OfferCapacity([offer])
        request = make_request(resources={"cpu": 4, "ram": 8}, duration=12, window=TimeWindow(0, 24))
        before = capacity.remaining(offer.offer_id)
        capacity.consume(request, offer)
        capacity.restore(offer, request)
        assert capacity.remaining(offer.offer_id) == before

    def test_unknown_offer_cannot_host(self):
        capacity = OfferCapacity([])
        assert not capacity.can_host(make_request(), make_offer())


class TestSortedOrders:
    def test_requests_descending_value(self):
        requests = [
            make_request(request_id="lo", bid=1.0),
            make_request(request_id="hi", bid=5.0),
        ]
        offers = [make_offer()]
        economics = compute_economics(requests, offers, CONFIG)
        ordered = sorted_requests(requests, economics)
        assert [r.request_id for r in ordered] == ["hi", "lo"]

    def test_request_tie_breaks_by_time(self):
        requests = [
            make_request(request_id="late", bid=2.0, submit_time=5.0),
            make_request(request_id="early", bid=2.0, submit_time=1.0),
        ]
        offers = [make_offer()]
        economics = compute_economics(requests, offers, CONFIG)
        assert sorted_requests(requests, economics)[0].request_id == "early"

    def test_offers_ascending_cost(self):
        offers = [
            make_offer(offer_id="dear", bid=9.0),
            make_offer(offer_id="cheap", bid=1.0),
        ]
        requests = [make_request()]
        economics = compute_economics(requests, offers, CONFIG)
        ordered = sorted_offers(offers, economics)
        assert [o.offer_id for o in ordered] == ["cheap", "dear"]


class TestGreedyFit:
    def _setup(self, requests, offers):
        economics = compute_economics(requests, offers, CONFIG)
        return (
            sorted_requests(requests, economics),
            sorted_offers(offers, economics),
            economics,
            OfferCapacity(offers),
        )

    def test_cheapest_feasible_offer_wins(self):
        requests = [make_request(bid=5.0)]
        offers = [
            make_offer(offer_id="cheap", bid=1.0),
            make_offer(offer_id="dear", bid=5.0),
        ]
        rs, os_, eco, cap = self._setup(requests, offers)
        matches = greedy_fit(rs, os_, eco, cap, set())
        assert matches[0][1].offer_id == "cheap"

    def test_unprofitable_pair_skipped(self):
        requests = [make_request(bid=0.001, duration=1.0)]
        offers = [make_offer(bid=50.0)]
        rs, os_, eco, cap = self._setup(requests, offers)
        assert greedy_fit(rs, os_, eco, cap, set()) == []

    def test_taken_requests_skipped(self):
        requests = [make_request(request_id="r1", bid=5.0)]
        offers = [make_offer()]
        rs, os_, eco, cap = self._setup(requests, offers)
        assert greedy_fit(rs, os_, eco, cap, {"r1"}) == []

    def test_min_value_filter(self):
        requests = [make_request(bid=1.0, duration=4.0)]
        offers = [make_offer(bid=0.1)]
        rs, os_, eco, cap = self._setup(requests, offers)
        v_hat = eco.v_hat("req-0")
        assert greedy_fit(rs, os_, eco, cap, set(), min_value=v_hat * 2) == []
        assert greedy_fit(rs, os_, eco, cap, set(), min_value=v_hat / 2) != []

    def test_max_cost_filter(self):
        requests = [make_request(bid=5.0)]
        offers = [make_offer(bid=1.0)]
        rs, os_, eco, cap = self._setup(requests, offers)
        c_hat = eco.c_hat("off-0")
        assert greedy_fit(rs, os_, eco, cap, set(), max_cost=c_hat / 2) == []

    def test_uniform_price_invariant(self):
        # Without the invariant, hi lands on the expensive big machine and
        # lo on the cheap small one, leaving min(v) < max(c) — no common
        # price.  With it, lo is skipped.
        requests = [
            make_request(request_id="hi", resources={"cpu": 8}, bid=60.0, duration=4),
            make_request(request_id="lo", resources={"cpu": 1}, bid=0.8, duration=4),
        ]
        offers = [
            make_offer(offer_id="small", resources={"cpu": 1}, bid=1.0),
            make_offer(offer_id="big", resources={"cpu": 8}, bid=48.0),
        ]
        rs, os_, eco, cap = self._setup(requests, offers)
        matches = greedy_fit(rs, os_, eco, cap, set(), uniform_price=True)
        min_v = min(eco.v_hat(r.request_id) for r, _ in matches)
        max_c = max(eco.c_hat(o.offer_id) for _, o in matches)
        assert min_v >= max_c - 1e-9


class TestAllocateCluster:
    def test_indices_consistent(self):
        requests = [
            make_request(request_id=f"r{i}", bid=1.0 + i, duration=4)
            for i in range(4)
        ]
        offers = [
            make_offer(offer_id="cheap", resources={"cpu": 4, "ram": 16, "disk": 100}, bid=0.5),
            make_offer(offer_id="dear", resources={"cpu": 4, "ram": 16, "disk": 100}, bid=20.0),
        ]
        allocation = allocate_cluster(
            _cluster_for(requests, offers), requests, offers, CONFIG
        )
        assert allocation.has_trades
        eco = allocation.economics
        assert allocation.v_z == min(
            eco.v_hat(r.request_id) for r, _ in allocation.matches
        )
        assert allocation.c_z == max(
            eco.c_hat(o.offer_id) for _, o in allocation.matches
        )
        assert allocation.v_z >= allocation.c_z - 1e-9

    def test_z_plus_1_is_cheapest_unused(self):
        requests = [make_request(bid=10.0, duration=4)]
        offers = [
            make_offer(offer_id="used", bid=0.5),
            make_offer(offer_id="next", bid=1.0),
            make_offer(offer_id="later", bid=2.0),
        ]
        allocation = allocate_cluster(
            _cluster_for(requests, offers), requests, offers, CONFIG
        )
        assert allocation.z_plus_1_offer is not None
        assert allocation.z_plus_1_offer.offer_id == "next"

    def test_no_unused_offer_gives_infinite(self):
        requests = [make_request(bid=10.0, duration=4)]
        offers = [make_offer(offer_id="only", bid=0.5)]
        allocation = allocate_cluster(
            _cluster_for(requests, offers), requests, offers, CONFIG
        )
        assert allocation.z_plus_1_offer is None
        assert math.isinf(allocation.c_z_plus_1)

    def test_empty_market_no_trades(self):
        requests = [make_request(bid=0.0001, duration=1)]
        offers = [make_offer(bid=100.0)]
        allocation = allocate_cluster(
            _cluster_for(requests, offers), requests, offers, CONFIG
        )
        assert not allocation.has_trades
        assert math.isnan(allocation.v_z)

    def test_tentative_welfare_positive(self):
        requests = [make_request(bid=5.0)]
        offers = [make_offer(bid=0.2)]
        allocation = allocate_cluster(
            _cluster_for(requests, offers), requests, offers, CONFIG
        )
        assert allocation.tentative_welfare > 0


class TestPairChecks:
    """The per-clear memo of ``greedy_fit``'s capacity-independent checks."""

    @staticmethod
    def _record_calls(monkeypatch):
        asked = Counter()

        def feasible(request, offer):
            asked["feasible", request.request_id, offer.offer_id] += 1
            return is_feasible(request, offer)

        def fraction(request, offer):
            asked["fraction", request.request_id, offer.offer_id] += 1
            return resource_fraction(request, offer)

        monkeypatch.setattr(cluster_allocation, "is_feasible", feasible)
        monkeypatch.setattr(cluster_allocation, "resource_fraction", fraction)
        return asked

    def test_answers_are_the_direct_ones_for_every_pair_a_refit_asks(
        self, monkeypatch
    ):
        requests, offers = generate_market(40, seed=5)
        request_by_id = {r.request_id: r for r in requests}
        offer_by_id = {o.offer_id: o for o in offers}
        economics = compute_economics(requests, offers, CONFIG)
        asked = self._record_calls(monkeypatch)
        pairs = PairChecks()
        fits = [
            greedy_fit(
                sorted_requests(requests, economics),
                sorted_offers(offers, economics),
                economics, OfferCapacity(offers), set(), pairs=pairs,
            )
            for _ in range(3)
        ]
        assert fits[0] and fits[0] == fits[1] == fits[2]
        assert set(asked.values()) == {1}  # the re-fits asked the memo
        for check, request_id, offer_id in asked:
            request, offer = request_by_id[request_id], offer_by_id[offer_id]
            if check == "feasible":
                assert pairs.feasible(request, offer) is is_feasible(request, offer)
            else:
                assert pairs.fraction(request, offer) == resource_fraction(
                    request, offer
                )
        assert set(asked.values()) == {1}  # ... and so did the loop above

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    @pytest.mark.parametrize("workers", [0, 1])
    def test_one_evaluation_per_pair_per_run_and_runs_share_nothing(
        self, monkeypatch, engine, workers
    ):
        requests, offers = generate_market(60, seed=11)
        asked = self._record_calls(monkeypatch)
        auction = DecloudAuction(
            AuctionConfig(engine=engine, miniauction_workers=workers)
        )
        first = auction.run(requests, offers)
        once = dict(asked)
        assert first.matches
        if engine == "reference":
            assert once and set(once.values()) == {1}
        else:
            # The vectorized clear is fed its pairs' facts by the match
            # stage and asks nothing; the pairs a fed instance still has
            # to ask are the next test's.
            assert not once
        second = auction.run(requests, offers)
        assert asked == {key: 2 for key in once}
        assert canonical_outcome(second) == canonical_outcome(first)

    def test_a_fed_instance_asks_once_about_each_pair_it_was_not_fed(
        self, monkeypatch
    ):
        """The scalar fallback under the vectorized engine: a pair
        outside the fed best-offer sets is evaluated once per clear,
        a fed one never."""
        requests, offers = generate_market(40, seed=5)
        economics = compute_economics(requests, offers, CONFIG)

        def fit(pairs):
            return greedy_fit(
                sorted_requests(requests, economics),
                sorted_offers(offers, economics),
                economics, OfferCapacity(offers), set(), pairs=pairs,
            )

        expected = fit(PairChecks())
        # Feed only the pairs the fit ends up matching (feasible, as fed
        # pairs must be): every other pair it visits was not fed.
        host = {r.request_id: o.offer_id for r, o in expected}
        narrow = [
            frozenset({host[r.request_id]} if r.request_id in host else ())
            for r in requests
        ]
        fed = set(host.items())
        block = BlockArrays(requests, offers, block_maxima(requests, offers))
        asked = self._record_calls(monkeypatch)
        pairs = PairChecks()
        pairs.feed(block, narrow)
        assert [fit(pairs) for _ in range(3)] == [expected] * 3
        assert asked and set(asked.values()) == {1}
        assert fed and not fed & {(rid, oid) for _, rid, oid in asked}
