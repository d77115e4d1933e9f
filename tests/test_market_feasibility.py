"""Unit tests for feasibility (constraints 8, 10, 11 + flexibility)."""

from repro.common.timewindow import TimeWindow
from repro.market.feasibility import (
    feasible_offers,
    is_feasible,
    required_amount,
    resource_feasible,
    temporally_feasible,
)
from tests.conftest import make_offer, make_request


class TestTemporal:
    def test_window_contained(self):
        request = make_request(window=TimeWindow(2, 8), duration=3)
        offer = make_offer(window=TimeWindow(0, 10))
        assert temporally_feasible(request, offer)

    def test_window_overhang_fails(self):
        request = make_request(window=TimeWindow(2, 30), duration=3)
        offer = make_offer(window=TimeWindow(0, 10))
        assert not temporally_feasible(request, offer)

    def test_exact_window_ok(self):
        request = make_request(window=TimeWindow(0, 10), duration=10)
        offer = make_offer(window=TimeWindow(0, 10))
        assert temporally_feasible(request, offer)


class TestResources:
    def test_sufficient(self):
        request = make_request(resources={"cpu": 2, "ram": 4})
        offer = make_offer(resources={"cpu": 4, "ram": 8})
        assert resource_feasible(request, offer)

    def test_insufficient_strict(self):
        request = make_request(resources={"cpu": 8})
        offer = make_offer(resources={"cpu": 4})
        assert not resource_feasible(request, offer)

    def test_missing_strict_resource(self):
        request = make_request(resources={"cpu": 2, "sgx": 1.0})
        offer = make_offer(resources={"cpu": 4})
        assert not resource_feasible(request, offer)

    def test_missing_soft_resource_tolerated(self):
        request = make_request(
            resources={"cpu": 2, "gpu": 1.0},
            significance={"gpu": 0.3},
            flexibility=0.8,
        )
        offer = make_offer(resources={"cpu": 4})
        assert resource_feasible(request, offer)

    def test_no_common_types(self):
        request = make_request(resources={"gpu": 1.0}, significance={"gpu": 0.5}, flexibility=0.9)
        offer = make_offer(resources={"cpu": 4})
        assert not resource_feasible(request, offer)

    def test_flexibility_discounts_soft_resources(self):
        request = make_request(
            resources={"cpu": 10},
            significance={"cpu": 0.5},
            flexibility=0.8,
        )
        # 0.8 * 10 = 8 <= 8: feasible flexible, infeasible strict
        offer = make_offer(resources={"cpu": 8})
        assert resource_feasible(request, offer)
        assert not resource_feasible(request.strict_view(), offer)

    def test_zero_amount_request_ignored(self):
        request = make_request(resources={"cpu": 2, "disk": 0.0})
        offer = make_offer(resources={"cpu": 4, "ram": 8})
        # disk demanded at 0 -> no constraint even though offer lacks disk
        assert resource_feasible(request, offer)


class TestRequiredAmount:
    def test_strict_full(self):
        request = make_request(resources={"cpu": 4})
        assert required_amount(request, "cpu") == 4

    def test_soft_discounted(self):
        request = make_request(
            resources={"cpu": 4}, significance={"cpu": 0.5}, flexibility=0.75
        )
        assert required_amount(request, "cpu") == 3.0

    def test_unknown_resource_zero(self):
        assert required_amount(make_request(), "zz") == 0.0


class TestIsFeasibleAndHelpers:
    def test_full_check(self):
        assert is_feasible(make_request(), make_offer())

    def test_feasible_offers_filters(self):
        request = make_request(resources={"cpu": 6})
        offers = [
            make_offer(offer_id="small", resources={"cpu": 4}),
            make_offer(offer_id="big", resources={"cpu": 8}),
        ]
        assert [o.offer_id for o in feasible_offers(request, offers)] == ["big"]
