"""Unit tests for pricing and trade reduction (Alg. 4, Eq. 19-20)."""

import random

import pytest

from repro.core import normalization_vectorized
from repro.core.auction import DecloudAuction, _index_offers, _index_requests
from repro.core.cluster_allocation import allocate_cluster
from repro.core.clustering import Cluster
from repro.core.config import AuctionConfig
from repro.core.miniauctions import MiniAuction
from repro.core.normalization import compute_economics
from repro.core.trade_reduction import (
    _live_allocations,
    clear_mini_auction,
    pooled_price,
)
from repro.workloads.generators import generate_market
from tests.conftest import make_offer, make_request

CONFIG = AuctionConfig()


def _allocation(requests, offers):
    cluster = Cluster(
        offer_ids=frozenset(o.offer_id for o in offers),
        request_ids={r.request_id for r in requests},
    )
    return allocate_cluster(cluster, requests, offers, CONFIG)


def _clear(requests, offers, config=CONFIG, rng=None):
    allocation = _allocation(requests, offers)
    auction = MiniAuction(allocations=[allocation])
    return clear_mini_auction(
        auction,
        _index_requests(requests),
        _index_offers(offers),
        set(),
        set(),
        config,
        rng or random.Random(0),
    )


class TestPooledPrice:
    def test_price_from_next_offer(self):
        requests = [make_request(bid=10.0, duration=4)]
        offers = [
            make_offer(offer_id="used", bid=0.5),
            make_offer(offer_id="next", bid=1.0),
        ]
        allocation = _allocation(requests, offers)
        price, z_request, z1_offer = pooled_price([allocation])
        assert z_request is None
        assert z1_offer.offer_id == "next"
        assert price == pytest.approx(allocation.c_z_plus_1)

    def test_price_from_marginal_request(self):
        requests = [make_request(bid=10.0, duration=4)]
        offers = [make_offer(offer_id="only", bid=0.5)]
        allocation = _allocation(requests, offers)
        price, z_request, z1_offer = pooled_price([allocation])
        assert z1_offer is None
        assert z_request.request_id == "req-0"
        assert price == pytest.approx(allocation.v_z)

    def test_expensive_next_offer_ignored(self):
        # c_{z'+1} above v_z cannot be the price (Eq. 20 takes the min).
        requests = [make_request(bid=10.0, duration=4)]
        offers = [
            make_offer(offer_id="used", bid=0.5),
            make_offer(offer_id="too-dear", bid=500.0),
        ]
        allocation = _allocation(requests, offers)
        price, z_request, _ = pooled_price([allocation])
        assert price == pytest.approx(allocation.v_z)
        assert z_request is not None

    def test_no_trades_gives_none(self):
        requests = [make_request(bid=0.0001, duration=1)]
        offers = [make_offer(bid=100.0)]
        assert pooled_price([_allocation(requests, offers)]) == (None, None, None)


class TestClearMiniAuction:
    def test_offer_determined_price_loses_no_trades(self):
        requests = [
            make_request(request_id=f"r{i}", bid=5.0 + i, duration=4)
            for i in range(3)
        ]
        offers = [
            make_offer(offer_id="used", bid=0.5),
            make_offer(offer_id="next", bid=1.0),
        ]
        result = _clear(requests, offers)
        assert result.tentative_trades == 3
        assert len(result.matches) == 3
        assert result.reduced_requests == []

    def test_request_determined_price_excludes_client(self):
        requests = [
            make_request(request_id="hi", client_id="c-hi", bid=9.0, duration=4),
            make_request(request_id="lo", client_id="c-lo", bid=5.0, duration=4),
        ]
        offers = [make_offer(offer_id="only", bid=0.5)]
        result = _clear(requests, offers)
        # z = "lo" (lowest winner); its client is excluded.
        matched_ids = {m.request.request_id for m in result.matches}
        assert "lo" not in matched_ids
        assert "hi" in matched_ids
        assert any(r.request_id == "lo" for r in result.reduced_requests)

    def test_all_client_requests_excluded(self):
        requests = [
            make_request(request_id="hi", client_id="c-other", bid=9.0, duration=4),
            make_request(request_id="z1", client_id="c-z", bid=5.0, duration=4),
            make_request(request_id="z2", client_id="c-z", bid=8.0, duration=4),
        ]
        offers = [make_offer(offer_id="only", bid=0.5)]
        result = _clear(requests, offers)
        matched_clients = {m.request.client_id for m in result.matches}
        assert "c-z" not in matched_clients

    def test_common_price_for_all_matches(self):
        requests = [
            make_request(request_id=f"r{i}", bid=5.0 + i, duration=4)
            for i in range(3)
        ]
        offers = [
            make_offer(offer_id="used", bid=0.5),
            make_offer(offer_id="next", bid=1.0),
        ]
        result = _clear(requests, offers)
        prices = {m.unit_price for m in result.matches}
        assert len(prices) == 1
        assert result.price in prices

    def test_payments_ir(self):
        requests = [
            make_request(request_id=f"r{i}", bid=3.0 + i, duration=4)
            for i in range(4)
        ]
        offers = [make_offer(offer_id=f"o{i}", bid=0.4 + 0.2 * i) for i in range(3)]
        result = _clear(requests, offers)
        for match in result.matches:
            assert match.payment <= match.request.bid + 1e-9

    def test_benchmark_mode_keeps_all_trades(self):
        requests = [
            make_request(request_id="hi", bid=9.0, duration=4),
            make_request(request_id="lo", bid=5.0, duration=4),
        ]
        offers = [make_offer(offer_id="only", bid=0.5)]
        result = _clear(requests, offers, config=AuctionConfig.benchmark())
        assert len(result.matches) == result.tentative_trades == 2
        assert result.price is None
        assert result.reduced_requests == []

    def test_consumed_participants_skipped(self):
        requests = [make_request(bid=9.0, duration=4)]
        offers = [make_offer(bid=0.5)]
        allocation = _allocation(requests, offers)
        auction = MiniAuction(allocations=[allocation])
        result = clear_mini_auction(
            auction,
            _index_requests(requests),
            _index_offers(offers),
            {"req-0"},  # already consumed in an earlier auction
            set(),
            CONFIG,
            random.Random(0),
        )
        assert result.tentative_trades == 0
        assert result.matches == []

    def test_participants_recorded(self):
        requests = [
            make_request(request_id=f"r{i}", bid=5.0 + i, duration=4)
            for i in range(2)
        ]
        offers = [
            make_offer(offer_id="used", bid=0.5),
            make_offer(offer_id="next", bid=1.0),
        ]
        result = _clear(requests, offers)
        assert result.participant_requests == {
            m.request.request_id for m in result.matches
        }
        assert result.participant_offers == {
            m.offer.offer_id for m in result.matches
        }

    def test_randomization_deterministic_per_evidence(self):
        requests = [
            make_request(request_id=f"r{i}", client_id=f"c{i}", bid=4.0, duration=4)
            for i in range(6)
        ]
        # One small offer: surplus of eligible requests -> randomization.
        offers = [
            make_offer(offer_id="tiny", resources={"cpu": 2, "ram": 4, "disk": 20}, bid=0.2),
            make_offer(offer_id="next", resources={"cpu": 2, "ram": 4, "disk": 20}, bid=0.4),
        ]
        a = _clear(requests, offers, rng=random.Random(42))
        b = _clear(requests, offers, rng=random.Random(42))
        assert [m.request.request_id for m in a.matches] == [
            m.request.request_id for m in b.matches
        ]

    def test_request_and_offer_sharing_an_id_are_both_reduced(self):
        # Ids are unique per side only.  The lone request sets the price,
        # so its client leaves and the one tentative trade is reduced on
        # both sides — the offer must not vanish from ``reduced_offers``
        # because a request called "x1" was recorded first.
        requests = [make_request(request_id="x1", bid=9.0, duration=4)]
        offers = [make_offer(offer_id="x1", bid=0.5)]
        result = _clear(requests, offers)
        assert result.tentative_trades == 1 and result.matches == []
        assert [r.request_id for r in result.reduced_requests] == ["x1"]
        assert [o.offer_id for o in result.reduced_offers] == ["x1"]

        outcome = DecloudAuction(CONFIG).run(requests, offers)
        assert [o.offer_id for o in outcome.reduced_offers] == ["x1"]
        assert outcome.unmatched_offers == []


class TestLiveAllocationsReuseEconomics:
    """§IV-C economics are a pure function of cluster membership, so the
    live re-fit recomputes them only for clusters that lost a member."""

    @staticmethod
    def _auction(config):
        requests, offers = generate_market(30, seed=9)
        request_by_id = _index_requests(requests)
        offer_by_id = _index_offers(offers)
        allocations = []
        for lo in range(0, 30, 10):
            members = requests[lo : lo + 10]
            cluster = Cluster(
                offer_ids=frozenset(o.offer_id for o in offers),
                request_ids={r.request_id for r in members},
            )
            allocations.append(
                allocate_cluster(cluster, members, offers, config)
            )
        return MiniAuction(allocations=allocations), request_by_id, offer_by_id

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        real = normalization_vectorized.compute_economics_batch

        def spy(clusters, config, block=None):
            calls.append([
                (
                    [r.request_id for r in requests],
                    [o.offer_id for o in offers],
                )
                for requests, offers in clusters
            ])
            return real(clusters, config, block)

        monkeypatch.setattr(
            normalization_vectorized, "compute_economics_batch", spy
        )
        return calls

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_intact_clusters_keep_the_tentative_object(
        self, monkeypatch, engine
    ):
        config = AuctionConfig(engine=engine)
        auction, request_by_id, offer_by_id = self._auction(config)
        calls = self._spy(monkeypatch)
        live = _live_allocations(
            auction, request_by_id, offer_by_id, set(), set(), config
        )
        assert calls == []
        for before, after in zip(auction.allocations, live):
            assert after.economics is before.economics

    def test_only_the_clusters_that_lost_a_member_are_batched(
        self, monkeypatch
    ):
        config = AuctionConfig(engine="vectorized")
        auction, request_by_id, offer_by_id = self._auction(config)
        calls = self._spy(monkeypatch)
        lost = sorted(auction.allocations[1].cluster.request_ids)[0]
        live = _live_allocations(
            auction, request_by_id, offer_by_id, {lost}, set(), config
        )
        survivors = sorted(auction.allocations[1].cluster.request_ids - {lost})
        assert calls == [[(survivors, sorted(offer_by_id))]]
        assert live[0].economics is auction.allocations[0].economics
        assert live[2].economics is auction.allocations[2].economics
        assert live[1].economics == compute_economics(
            [request_by_id[rid] for rid in survivors],
            [offer_by_id[oid] for oid in sorted(offer_by_id)],
            config,
        )

        # A consumed offer is a lost member of every cluster holding it.
        del calls[:]
        gone = sorted(offer_by_id)[0]
        _live_allocations(
            auction, request_by_id, offer_by_id, set(), {gone}, config
        )
        assert [len(batch) for batch in calls] == [3]
