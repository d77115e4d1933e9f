"""Unit tests for the full auction pipeline (Alg. 1)."""

import tracemalloc

import pytest

from repro.common.errors import AuctionError
from repro.core.auction import DecloudAuction
from repro.core.candidates import NetworkZoneGenerator
from repro.core.config import AuctionConfig, ShardPlan
from repro.core.matching import block_maxima
from repro.core.matching_vectorized import IncrementalMatcher, best_offer_sets
from repro.core.outcome import canonical_outcome
from repro.workloads.generators import generate_market, generate_zone_market
from tests.conftest import make_offer, make_request


def _market(n_requests=6, n_offers=3):
    offers = [
        make_offer(
            offer_id=f"off-{i}",
            provider_id=f"prov-{i}",
            submit_time=0.01 * i,
            resources={"cpu": 4 + 4 * i, "ram": 16 + 16 * i, "disk": 200},
            bid=1.0 + 0.5 * i,
        )
        for i in range(n_offers)
    ]
    requests = [
        make_request(
            request_id=f"req-{i}",
            client_id=f"cli-{i}",
            submit_time=1.0 + 0.01 * i,
            resources={"cpu": 1 + (i % 3), "ram": 2 + (i % 4), "disk": 20},
            duration=3.0 + (i % 2),
            bid=1.0 + 0.3 * i,
        )
        for i in range(n_requests)
    ]
    return requests, offers


class TestRun:
    def test_accounts_for_every_request(self):
        requests, offers = _market()
        outcome = DecloudAuction().run(requests, offers)
        ids = (
            {m.request.request_id for m in outcome.matches}
            | {r.request_id for r in outcome.reduced_requests}
            | {r.request_id for r in outcome.unmatched_requests}
        )
        assert ids == {r.request_id for r in requests}

    def test_no_request_in_two_buckets(self):
        requests, offers = _market()
        outcome = DecloudAuction().run(requests, offers)
        matched = {m.request.request_id for m in outcome.matches}
        reduced = {r.request_id for r in outcome.reduced_requests}
        unmatched = {r.request_id for r in outcome.unmatched_requests}
        assert not matched & reduced
        assert not matched & unmatched
        assert not reduced & unmatched

    def test_each_request_matched_once(self):
        requests, offers = _market(n_requests=10)
        outcome = DecloudAuction().run(requests, offers)
        matched = [m.request.request_id for m in outcome.matches]
        assert len(matched) == len(set(matched))

    def test_deterministic_given_evidence(self):
        requests, offers = _market(n_requests=10)
        a = DecloudAuction().run(requests, offers, evidence=b"E1")
        b = DecloudAuction().run(requests, offers, evidence=b"E1")
        assert a.to_payload() == b.to_payload()

    def test_empty_market(self):
        outcome = DecloudAuction().run([], [])
        assert outcome.num_trades == 0
        assert outcome.welfare == 0.0

    def test_only_requests(self):
        requests, _ = _market()
        outcome = DecloudAuction().run(requests, [])
        assert outcome.num_trades == 0
        assert len(outcome.unmatched_requests) == len(requests)

    def test_only_offers(self):
        _, offers = _market()
        outcome = DecloudAuction().run([], offers)
        assert outcome.num_trades == 0
        assert len(outcome.unmatched_offers) == len(offers)

    def test_duplicate_request_id_rejected(self):
        requests, offers = _market()
        with pytest.raises(AuctionError):
            DecloudAuction().run(requests + [requests[0]], offers)

    def test_duplicate_offer_id_rejected(self):
        requests, offers = _market()
        with pytest.raises(AuctionError):
            DecloudAuction().run(requests, offers + [offers[0]])

    def test_strong_budget_balance(self):
        requests, offers = _market(n_requests=12, n_offers=4)
        outcome = DecloudAuction().run(requests, offers)
        assert outcome.total_payments == pytest.approx(
            sum(outcome.revenues().values())
        )

    def test_individual_rationality_clients(self):
        requests, offers = _market(n_requests=12, n_offers=4)
        outcome = DecloudAuction().run(requests, offers)
        for match in outcome.matches:
            assert match.payment <= match.request.bid + 1e-9

    def test_matches_are_feasible(self):
        from repro.market.feasibility import is_feasible

        requests, offers = _market(n_requests=12, n_offers=4)
        outcome = DecloudAuction().run(requests, offers)
        assert outcome.num_trades > 0
        for match in outcome.matches:
            assert is_feasible(match.request, match.offer)

    def test_unit_price_supports_all_trading_offers(self):
        requests, offers = _market(n_requests=12, n_offers=4)
        outcome = DecloudAuction().run(requests, offers)
        # every trading offer earns at least its proportional cost at the
        # cluster's normalized scale (provider-side IR per §IV-E)
        for match in outcome.matches:
            assert match.unit_price >= 0

    def test_infeasible_requests_unmatched(self):
        requests, offers = _market()
        monster = make_request(
            request_id="monster", resources={"cpu": 10_000}, bid=99.0
        )
        outcome = DecloudAuction().run(requests + [monster], offers)
        assert any(
            r.request_id == "monster" for r in outcome.unmatched_requests
        )

    def test_capacity_never_oversubscribed(self):
        requests, offers = _market(n_requests=30, n_offers=2)
        outcome = DecloudAuction().run(requests, offers)
        for offer in offers:
            matched = [
                m.request for m in outcome.matches if m.offer is offer
            ]
            for key in offer.resources:
                load = sum(
                    (r.duration / offer.span) * r.resources.get(key, 0.0)
                    for r in matched
                )
                assert load <= offer.resources[key] + 1e-6


class TestConfigVariants:
    def test_benchmark_at_least_as_many_trades(self):
        requests, offers = _market(n_requests=16, n_offers=4)
        truthful = DecloudAuction().run(requests, offers)
        benchmark = DecloudAuction(AuctionConfig.benchmark()).run(
            requests, offers
        )
        assert benchmark.num_trades >= truthful.num_trades

    def test_mini_auctions_off_still_clears(self):
        requests, offers = _market(n_requests=8)
        config = AuctionConfig(enable_mini_auctions=False)
        outcome = DecloudAuction(config).run(requests, offers)
        assert outcome.num_trades >= 0  # functional, possibly fewer trades

    def test_breadth_one(self):
        requests, offers = _market()
        config = AuctionConfig(cluster_breadth=1)
        outcome = DecloudAuction(config).run(requests, offers)
        assert outcome.num_trades >= 1


def _zone_market(n_requests, locality="strong", n_zones=6):
    return generate_zone_market(
        n_requests, n_zones=n_zones, seed=3, kind="network",
        locality=locality, cross_zone_fraction=0.05,
    )[:2]


@pytest.fixture
def cache_calls(monkeypatch):
    """Names of the ``IncrementalMatcher`` entry points called, in order."""
    calls = []
    for name in ("matrices", "gather", "scorer"):
        def spy(self, *args, _real=getattr(IncrementalMatcher, name),
                _name=name, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(IncrementalMatcher, name, spy)
    return calls


class TestMatchPath:
    """A fresh instance's first block is a one-shot clear; the row cache
    engages from the instance's second block on."""

    def test_first_block_one_shot_then_the_row_cache(self, cache_calls):
        requests, offers = generate_market(40, seed=5)
        auction = DecloudAuction(AuctionConfig(engine="vectorized"))
        seen = []
        for round_index in range(3):
            block = requests[round_index * 4 : round_index * 4 + 30]
            evidence = b"path-%d" % round_index
            outcome = auction.run(block, offers, evidence=evidence)
            seen.append(list(cache_calls))
            fresh = DecloudAuction(AuctionConfig(engine="reference")).run(
                block, offers, evidence=evidence
            )
            assert canonical_outcome(outcome) == canonical_outcome(fresh)
        assert seen[0] == []
        assert seen[1] == ["matrices"]
        assert seen[2] == ["matrices", "matrices"]

    def test_candidate_stage_follows_the_same_rule(self, cache_calls):
        requests, offers = _zone_market(120, n_zones=4)
        auction = DecloudAuction(
            AuctionConfig(
                engine="vectorized", candidates=NetworkZoneGenerator()
            )
        )
        first = auction.run(requests, offers, evidence=b"cand")
        assert cache_calls == []
        second = auction.run(requests, offers, evidence=b"cand")
        assert cache_calls[0] == "scorer" and "gather" in cache_calls
        assert canonical_outcome(first) == canonical_outcome(second)

    def test_shards_and_spillover_never_touch_the_cache(self, cache_calls):
        requests, offers = _zone_market(200, n_zones=4)
        auction = DecloudAuction(
            AuctionConfig(
                engine="vectorized",
                sharding=ShardPlan(kind="network", shard_workers=0),
            )
        )
        for _ in range(2):  # the outer instance holds no block state
            outcome = auction.run(requests, offers, evidence=b"shards")
            assert outcome.matches
            assert auction.last_shard_stats["shards"] == 4
            assert auction.last_shard_stats["spillover_ran"]
        assert cache_calls == []


def _one_shot_peak(requests, offers):
    maxima = block_maxima(requests, offers)
    tracemalloc.start()
    try:
        best_offer_sets(requests, offers, maxima, 3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneShotMemory:
    def test_zone_block_holds_a_fraction_of_one_full_matrix(self):
        requests, offers = _zone_market(1500)
        matrix = len(requests) * len(offers) * 8  # one R x O float64
        # Six components of ~250 x 250: 3.3 MB of an 18 MB matrix (the
        # full-matrix ranking held several such matrices at once).
        assert _one_shot_peak(requests, offers) < matrix / 3

    def test_one_component_block_is_bounded_by_the_strip(self):
        """Weak locality shares every type, so the block is a single
        component; doubling it quadruples the matrix (8 -> 32 MB) but
        only lengthens the walk over fixed-size strips (14.0 -> 14.4)."""
        small = _one_shot_peak(*_zone_market(1000, locality="weak"))
        large = _one_shot_peak(*_zone_market(2000, locality="weak"))
        assert large < 1.25 * small
