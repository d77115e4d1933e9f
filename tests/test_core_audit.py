"""Unit tests for the outcome auditor."""

import pytest

from repro.core.audit import audit_outcome
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.core.outcome import AuctionOutcome, Match
from repro.experiments.sweeps import eval_config
from repro.workloads.generators import MarketScenario
from tests.conftest import make_offer, make_request


class TestCleanOutcomes:
    @pytest.mark.parametrize("seed", range(3))
    def test_mechanism_outcomes_pass(self, seed):
        requests, offers = MarketScenario(n_requests=30, seed=seed).generate()
        outcome = DecloudAuction(eval_config()).run(requests, offers)
        report = audit_outcome(requests, offers, outcome)
        assert report.ok, str(report)

    def test_benchmark_outcomes_pass(self):
        requests, offers = MarketScenario(n_requests=30, seed=5).generate()
        outcome = DecloudAuction(AuctionConfig.benchmark()).run(
            requests, offers
        )
        report = audit_outcome(requests, offers, outcome)
        assert report.ok, str(report)

    def test_empty_outcome_with_all_unmatched(self):
        requests = [make_request()]
        outcome = AuctionOutcome(unmatched_requests=list(requests))
        report = audit_outcome(requests, [], outcome)
        assert report.ok


class TestViolationsDetected:
    def _base(self):
        request = make_request(request_id="r1", client_id="c1", bid=2.0)
        offer = make_offer(offer_id="o1", provider_id="p1", bid=1.0)
        return request, offer

    def test_unknown_request_detected(self):
        request, offer = self._base()
        outcome = AuctionOutcome(
            matches=[Match(request=request, offer=offer, payment=1.0, unit_price=1.0)]
        )
        report = audit_outcome([], [offer], outcome)
        assert not report.ok
        assert any("unknown request" in v.message for v in report.violations)

    def test_altered_bid_detected(self):
        request, offer = self._base()
        forged = request.replace_bid(99.0)
        outcome = AuctionOutcome(
            matches=[Match(request=forged, offer=offer, payment=1.0, unit_price=1.0)],
        )
        report = audit_outcome([request], [offer], outcome)
        assert any("alters the bid" in v.message for v in report.violations)

    def test_double_allocation_detected(self):
        request, offer = self._base()
        match = Match(request=request, offer=offer, payment=0.5, unit_price=0.5)
        outcome = AuctionOutcome(matches=[match, match])
        report = audit_outcome([request], [offer], outcome)
        assert any("Const. 5" in v.message for v in report.violations)

    def test_overcharge_detected(self):
        request, offer = self._base()
        outcome = AuctionOutcome(
            matches=[Match(request=request, offer=offer, payment=5.0, unit_price=1.0)],
        )
        report = audit_outcome([request], [offer], outcome)
        assert any("(IR)" in v.message for v in report.violations)

    def test_infeasible_match_detected(self):
        request = make_request(request_id="r1", resources={"cpu": 64}, bid=9.0)
        offer = make_offer(offer_id="o1", resources={"cpu": 4}, bid=0.1)
        outcome = AuctionOutcome(
            matches=[Match(request=request, offer=offer, payment=0.1, unit_price=0.1)],
        )
        report = audit_outcome([request], [offer], outcome)
        assert any("infeasible" in v.message for v in report.violations)

    def test_oversubscription_detected(self):
        offer = make_offer(offer_id="o1", resources={"cpu": 4}, bid=0.1)
        requests = [
            make_request(
                request_id=f"r{i}",
                client_id=f"c{i}",
                resources={"cpu": 4},
                duration=10.0,
                bid=5.0,
            )
            for i in range(8)
        ]
        matches = [
            Match(request=r, offer=offer, payment=0.01, unit_price=0.01)
            for r in requests
        ]
        outcome = AuctionOutcome(matches=matches)
        report = audit_outcome(requests, [offer], outcome)
        assert any("Const. 7" in v.message for v in report.violations)

    def test_unaccounted_request_detected(self):
        request, offer = self._base()
        outcome = AuctionOutcome()  # request missing from every bucket
        report = audit_outcome([request], [offer], outcome)
        assert any("unaccounted" in v.message for v in report.violations)

    def test_bucket_overlap_detected(self):
        request, offer = self._base()
        outcome = AuctionOutcome(
            matches=[Match(request=request, offer=offer, payment=0.1, unit_price=0.1)],
            unmatched_requests=[request],
        )
        report = audit_outcome([request], [offer], outcome)
        assert any("two buckets" in v.message for v in report.violations)

    def test_str_lists_violations(self):
        request, offer = self._base()
        report = audit_outcome([request], [offer], AuctionOutcome())
        assert "audit:" in str(report)
        assert not report.ok
