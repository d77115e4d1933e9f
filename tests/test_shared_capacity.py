"""Cross-cluster capacity sharing inside a mini-auction.

An offer that appears in several (nested) clusters of the same
mini-auction exposes ONE pool of capacity; the clearing logic must not
double-book it, and a request present in several clusters must win at
most once — the Const. (5)/(7) story at auction scope rather than
cluster scope.
"""

import hashlib
import random

import pytest

from repro.core.auction import DecloudAuction, _index_offers, _index_requests
from repro.core.cluster_allocation import (
    OfferCapacity,
    allocate_cluster,
    greedy_fit,
)
from repro.core.clustering import Cluster
from repro.core.config import AuctionConfig
from repro.core.miniauctions import MiniAuction
from repro.core.normalization import compute_economics
from repro.core.trade_reduction import clear_mini_auction
from repro.common.timewindow import TimeWindow
from repro.obs import Observability
from repro.obs.monitors import MonitorSuite, violation_total
from repro.workloads.generators import generate_zone_market
from tests.conftest import make_offer, make_request

CONFIG = AuctionConfig()


class TestSharedOfferCapacity:
    def test_offer_in_two_clusters_not_double_booked(self):
        # One small machine shared by two clusters; total demand exceeds
        # its capacity: the auction may fill it once, not twice.
        shared = make_offer(
            offer_id="shared",
            resources={"cpu": 4, "ram": 8, "disk": 50},
            bid=0.2,
        )
        other = make_offer(
            offer_id="other",
            resources={"cpu": 4, "ram": 8, "disk": 50},
            bid=0.25,
        )
        # Each request consumes (12/24)*4 = 2 cpu of budget; capacity 4
        # fits exactly two of them per machine.
        requests = [
            make_request(
                request_id=f"r{i}",
                client_id=f"c{i}",
                resources={"cpu": 4, "ram": 4, "disk": 10},
                duration=12.0,
                window=TimeWindow(0, 24),
                bid=3.0 + 0.1 * i,
            )
            for i in range(6)
        ]
        cluster_a = Cluster(
            offer_ids=frozenset({"shared", "other"}),
            request_ids={"r0", "r1", "r2"},
        )
        cluster_b = Cluster(
            offer_ids=frozenset({"shared"}),
            request_ids={"r3", "r4", "r5"},
        )
        request_by_id = _index_requests(requests)
        offer_by_id = _index_offers([shared, other])
        alloc_a = allocate_cluster(
            cluster_a,
            [request_by_id[r] for r in sorted(cluster_a.request_ids)],
            [shared, other],
            CONFIG,
        )
        alloc_b = allocate_cluster(
            cluster_b,
            [request_by_id[r] for r in sorted(cluster_b.request_ids)],
            [shared],
            CONFIG,
        )
        auction = MiniAuction(allocations=[alloc_a, alloc_b])
        result = clear_mini_auction(
            auction,
            request_by_id,
            offer_by_id,
            set(),
            set(),
            CONFIG,
            random.Random(0),
        )
        # Capacity audit: time-weighted load per machine within budget.
        for offer in (shared, other):
            load = sum(
                (m.request.duration / offer.span)
                * m.request.resources["cpu"]
                for m in result.matches
                if m.offer.offer_id == offer.offer_id
            )
            assert load <= offer.resources["cpu"] + 1e-9
        # No request matched twice across the two clusters.
        matched = [m.request.request_id for m in result.matches]
        assert len(matched) == len(set(matched))

    def test_request_in_two_clusters_wins_once(self):
        offer_a = make_offer(offer_id="a", bid=0.2)
        offer_b = make_offer(offer_id="b", bid=0.3)
        wanted = make_request(
            request_id="hot", client_id="hot", bid=5.0, duration=4.0
        )
        fillers = [
            make_request(
                request_id=f"f{i}", client_id=f"f{i}", bid=2.0, duration=4.0
            )
            for i in range(2)
        ]
        requests = [wanted] + fillers
        request_by_id = _index_requests(requests)
        offer_by_id = _index_offers([offer_a, offer_b])
        cluster_a = Cluster(
            offer_ids=frozenset({"a"}), request_ids={"hot", "f0"}
        )
        cluster_b = Cluster(
            offer_ids=frozenset({"b"}), request_ids={"hot", "f1"}
        )
        alloc_a = allocate_cluster(
            cluster_a, [wanted, fillers[0]], [offer_a], CONFIG
        )
        alloc_b = allocate_cluster(
            cluster_b, [wanted, fillers[1]], [offer_b], CONFIG
        )
        auction = MiniAuction(allocations=[alloc_a, alloc_b])
        result = clear_mini_auction(
            auction,
            request_by_id,
            offer_by_id,
            set(),
            set(),
            CONFIG,
            random.Random(0),
        )
        assert (
            sum(1 for m in result.matches if m.request.request_id == "hot")
            <= 1
        )


class TestAdmissionVersusBooking:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2(b): OfferCapacity.can_host admits on the "
        "flexibility-discounted required_amount, consume books "
        "min(request, offer) at the full amount and clamps at 0.0",
    )
    def test_a_flexible_request_cannot_overdraw_the_offer(self):
        # A strict request takes 3 of 8 ram.  A flexible 8-ram request
        # (flexibility 0.5: it needs 4) is then admitted on the remaining
        # 5, booked at 8, and the books read 0.0 with 11 of 8 committed.
        # The fix changes outcomes, so it belongs to item 2's one golden
        # regeneration; until then greedy_fit reproduces this exactly.
        offer = make_offer(resources={"ram": 8.0}, window=TimeWindow(0, 10))
        requests = [
            make_request(
                request_id="strict", resources={"ram": 3.0}, bid=9.0,
                window=TimeWindow(0, 10), duration=10.0,
            ),
            make_request(
                request_id="flexible", resources={"ram": 8.0}, bid=8.0,
                significance={"ram": 0.5}, flexibility=0.5,
                window=TimeWindow(0, 10), duration=10.0,
            ),
        ]
        capacity = OfferCapacity([offer])
        matches = greedy_fit(
            requests, [offer], compute_economics(requests, [offer], CONFIG),
            capacity, set(),
        )
        committed = sum(
            (r.duration / o.span) * min(r.resources["ram"], o.resources["ram"])
            for r, o in matches
        )
        assert committed <= offer.resources["ram"]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2b")
    def test_the_monitor_sees_no_overdraw_on_a_large_zone_market(self):
        # Const. 7 is audited on what the matches book, so the monitor
        # raises one resource_conservation alert per overdrawn resource
        # (15 on this block) until item 2b books what it admits.
        requests, offers, _ = generate_zone_market(1500, n_zones=6, seed=4)
        obs = Observability("zone1500", monitors=MonitorSuite())
        DecloudAuction(AuctionConfig(engine="vectorized")).run(
            requests, offers, evidence=hashlib.sha256(b"zone1500 s4").digest(),
            obs=obs,
        )
        assert violation_total(obs.registry) == 0


class TestFullAuctionCapacityStress:
    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_no_offer_oversubscribed_under_pressure(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        offers = [
            make_offer(
                offer_id=f"o{j}",
                provider_id=f"p{j}",
                resources={"cpu": 4, "ram": 8, "disk": 40},
                bid=float(rng.uniform(0.2, 0.6)),
            )
            for j in range(3)
        ]
        requests = [
            make_request(
                request_id=f"r{i}",
                client_id=f"c{i}",
                resources={
                    "cpu": float(rng.uniform(1, 4)),
                    "ram": float(rng.uniform(1, 8)),
                    "disk": 5.0,
                },
                duration=float(rng.uniform(2, 9)),
                bid=float(rng.uniform(0.5, 4.0)),
            )
            for i in range(25)
        ]
        outcome = DecloudAuction(CONFIG).run(
            requests, offers, evidence=bytes([seed])
        )
        for offer in offers:
            for key in offer.resources:
                load = sum(
                    (m.request.duration / offer.span)
                    * min(m.request.resources.get(key, 0.0), offer.resources[key])
                    for m in outcome.matches
                    if m.offer.offer_id == offer.offer_id
                )
                assert load <= offer.resources[key] + 1e-6
