"""Unit tests for the full auction pipeline (Alg. 1)."""

import tracemalloc

import numpy as np
import pytest

from repro.common.errors import AuctionError
from repro.core.auction import DecloudAuction
from repro.core.candidates import NetworkZoneGenerator, ResourceVectorGenerator
from repro.core.config import AuctionConfig, ShardPlan
from repro.core.matching import best_offer_set, block_maxima
from repro.core.matching_vectorized import best_offer_sets
from repro.core.outcome import canonical_outcome
from repro.market.bids import Offer, Request
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


def _held_block_data(value, bid_ids, seen=None):
    """Every bid, array or bid id reachable from ``value`` through
    containers and instance attributes."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, (Request, Offer, np.ndarray)):
        return [value]
    if isinstance(value, str):
        return [value] if value in bid_ids else []
    if isinstance(value, dict):
        children = list(value) + list(value.values())
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    else:
        children = list(getattr(value, "__dict__", {}).values())
    return [
        found
        for child in children
        for found in _held_block_data(child, bid_ids, seen)
    ]


_LAYOUTS = {
    "dense": dict,
    "candidates": lambda: {"candidates": NetworkZoneGenerator()},
    "sharded": lambda: {
        "sharding": ShardPlan(kind="network", shard_workers=0)
    },
}


class TestNoBlockState:
    """``run`` is a function of its arguments: an instance that has
    cleared other blocks clears a block exactly as a fresh one does."""

    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_overlapping_blocks_on_one_instance(self, layout, engine):
        requests, offers = _zone_market(150, n_zones=4)
        bid_ids = {r.request_id for r in requests} | {
            o.offer_id for o in offers
        }
        # A sliding window over both pools: B overlaps A, A' is A again.
        blocks = {
            "A": (requests[:100], offers[:120], b"block-a"),
            "B": (requests[40:150], offers[30:], b"block-b"),
        }

        def config(engine=engine):
            return AuctionConfig(engine=engine, **_LAYOUTS[layout]())

        def clear(auction, name):
            block_requests, block_offers, evidence = blocks[name]
            outcome = canonical_outcome(
                auction.run(block_requests, block_offers, evidence=evidence)
            )
            assert _held_block_data(vars(auction), bid_ids) == []
            if layout == "sharded":
                assert auction.last_shard_stats["shards"] == 4
                assert auction.last_shard_stats["spillover_ran"]
            return outcome

        fresh = {
            name: clear(DecloudAuction(config("reference")), name)
            for name in blocks
        }
        assert fresh["A"]["matches"] and fresh["A"] != fresh["B"]
        auction = DecloudAuction(config())
        for name in ("A", "B", "A"):
            assert clear(auction, name) == fresh[name]
        reversed_order = DecloudAuction(config())
        for name in ("B", "A"):
            assert clear(reversed_order, name) == fresh[name]

    def test_candidate_masks_across_online_rounds(self):
        """One generator across overlapping rounds (an identical round,
        then late arrivals on both sides) keeps every best set equal to
        the stateless scalar computation."""
        generator = ResourceVectorGenerator(group_size=3, verify="full")

        def round_requests(n):
            return [
                make_request(
                    request_id=f"r{i:02d}",
                    submit_time=float(i),
                    resources={"cpu": 1.0 + i % 4, "ram": 2.0 + i % 3},
                )
                for i in range(n)
            ]

        def round_offers(n, prefix="o"):
            return [
                make_offer(
                    offer_id=f"{prefix}{j:02d}",
                    submit_time=float(j),
                    resources={"cpu": 8.0 + j % 5, "ram": 16.0 + j % 7},
                )
                for j in range(n)
            ]

        for rnd, n_requests in enumerate((6, 6, 8)):
            requests = round_requests(n_requests)
            offers = round_offers(9)
            if rnd == 2:
                offers += round_offers(2, prefix="late")
            maxima = block_maxima(requests, offers)
            result = generator.generate(requests, offers, maxima, 3)
            expected = [
                best_offer_set(request, offers, maxima, 3)
                for request in requests
            ]
            assert result.best_sets == expected, f"round {rnd}"


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
