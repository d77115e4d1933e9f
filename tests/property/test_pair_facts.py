"""Array-fed pair facts == the scalar functions, pair for pair.

The vectorized clear answers ``greedy_fit``'s capacity-independent
questions from the match stage's arrays: ``PairChecks.feed`` takes the
block's :class:`BlockArrays` and best-offer sets and tabulates, for every
(request, ``best_r`` member) pair, Eq. (6)'s fraction, and per request
the ``required_amount`` of each declared type; membership in ``best_r``
*is* feasibility there.  Any other pair still goes to ``is_feasible`` /
``resource_fraction`` / ``required_amount``.  These properties pin

* the answers, on whole request x offer grids (fed and fallback pairs,
  flexible and strict requests, offer types at amount 0, pairs sharing
  no type, where ``InfeasibleMatchError`` must still surface);
* the invariant the shortcut rests on — every cluster's offers are a
  subset of ``best_r`` for each of its requests — on dense,
  candidate-stage and sharded blocks;
* that a vectorized ``DecloudAuction.run`` never calls the scalar
  functions and the reference engine still does.

CI re-runs this file under ``PYTHONHASHSEED`` 0 and 1: the fed tables
are filled from frozensets, whose order must not reach a float.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InfeasibleMatchError
from repro.common.timewindow import TimeWindow
from repro.core import cluster_allocation
from repro.core.auction import DecloudAuction
from repro.core.candidates import NetworkZoneGenerator
from repro.core.cluster_allocation import PairChecks
from repro.core.clustering import build_clusters
from repro.core.config import AuctionConfig, ShardPlan
from repro.core.matching import best_offer_set, block_maxima
from repro.core.matching_vectorized import BlockArrays, best_offer_sets
from repro.core.sharding import partition_block
from repro.core.welfare import resource_fraction
from repro.market.bids import Offer, Request
from repro.market.feasibility import is_feasible, required_amount
from repro.workloads.generators import generate_market, generate_zone_market

TYPES = ("cpu", "disk", "gpu", "ram", "sgx")
AMOUNTS = (0.0, 0.1, 1 / 3, 0.7, 1.0, 2.7, 8.0)


@st.composite
def _grids(draw):
    requests = []
    for i in range(draw(st.integers(1, 6))):
        types = draw(st.lists(st.sampled_from(TYPES), min_size=1, max_size=4, unique=True))
        requests.append(
            Request(
                request_id=f"r{i}",
                client_id=f"c{i}",
                submit_time=float(draw(st.integers(0, 2))),
                resources={t: draw(st.sampled_from(AMOUNTS)) for t in types},
                significance={t: 0.5 for t in types if draw(st.booleans())},
                window=TimeWindow(0.0, draw(st.sampled_from((3.0, 4.0)))),
                duration=draw(st.sampled_from((1.0, 2.0, 3.0))),
                bid=draw(st.sampled_from((0.5, 1.0, 4.0))),
                flexibility=draw(st.sampled_from((0.3, 0.8, 1.0))),
            )
        )
    offers = []
    for j in range(draw(st.integers(1, 6))):
        types = draw(st.lists(st.sampled_from(TYPES), min_size=1, max_size=4, unique=True))
        offers.append(
            Offer(
                offer_id=f"o{j}",
                provider_id=f"p{j}",
                submit_time=float(draw(st.integers(0, 2))),
                resources={t: draw(st.sampled_from(AMOUNTS)) for t in types},
                window=TimeWindow(0.0, draw(st.sampled_from((2.0, 4.0, 7.0)))),
                bid=draw(st.sampled_from((0.5, 1.0, 4.0))),
            )
        )
    return requests, offers


def _fed(requests, offers, breadth):
    maxima = block_maxima(requests, offers)
    block = BlockArrays(requests, offers, maxima)
    best = best_offer_sets(requests, offers, maxima, breadth, block)
    pairs = PairChecks()
    pairs.feed(block, best)
    return pairs, best


def _record_scalar_calls(monkeypatch):
    asked = Counter()
    for name in ("is_feasible", "resource_fraction", "required_amount"):
        original = getattr(cluster_allocation, name)

        def spy(*args, _name=name, _original=original):
            asked[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cluster_allocation, name, spy)
    return asked


class TestFedAnswers:
    @given(grid=_grids(), breadth=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_every_grid_pair_answers_as_the_scalar_functions(self, grid, breadth):
        requests, offers = grid
        pairs, best = _fed(requests, offers, breadth)
        for request, best_r in zip(requests, best):
            assert pairs.amounts(request) == tuple(
                (key, required_amount(request, key), amount)
                for key, amount in request.resources.items()
            )
            for offer in offers:
                feasible = is_feasible(request, offer)
                assert pairs.feasible(request, offer) is feasible
                if offer.offer_id in best_r:
                    assert feasible  # what the shortcut rests on
                if set(request.resources) & set(offer.resources):
                    assert (
                        pairs.fraction(request, offer).hex()
                        == resource_fraction(request, offer).hex()
                    )
                else:
                    with pytest.raises(InfeasibleMatchError):
                        resource_fraction(request, offer)
                    with pytest.raises(InfeasibleMatchError):
                        pairs.fraction(request, offer)

    @given(grid=_grids())
    @settings(max_examples=50, deadline=None)
    def test_fed_pairs_never_reach_the_scalar_functions(self, grid):
        requests, offers = grid
        pairs, best = _fed(requests, offers, 3)
        with pytest.MonkeyPatch.context() as monkeypatch:
            asked = _record_scalar_calls(monkeypatch)
            for request, best_r in zip(requests, best):
                pairs.amounts(request)
                for offer in offers:
                    if offer.offer_id in best_r:
                        assert pairs.feasible(request, offer)
                        pairs.fraction(request, offer)
            assert not asked

    def test_an_unfed_instance_asks_the_scalar_functions_once_per_pair(
        self, monkeypatch
    ):
        requests, offers = generate_market(12, seed=2)
        asked = _record_scalar_calls(monkeypatch)
        pairs = PairChecks()
        for _ in range(2):
            for request in requests:
                pairs.amounts(request)
                for offer in offers:
                    if pairs.feasible(request, offer):
                        pairs.fraction(request, offer)
        n_feasible = sum(is_feasible(r, o) for r in requests for o in offers)
        assert asked["is_feasible"] == len(requests) * len(offers)
        assert asked["resource_fraction"] == n_feasible
        assert asked["required_amount"] == sum(len(r.resources) for r in requests)


def _zone_block(seed, n_requests=150, n_zones=5):
    return generate_zone_market(
        n_requests, n_zones=n_zones, seed=seed, kind="network",
        locality="strong", cross_zone_fraction=0.1,
    )[:2]


def _assert_clusters_inside_best_sets(requests, offers, config):
    maxima = block_maxima(requests, offers)
    best = {
        r.request_id: best_offer_set(r, offers, maxima, config.cluster_breadth)
        for r in requests
    }
    clusters, orphans = build_clusters(requests, offers, config)
    assert clusters
    for cluster in clusters:
        for request_id in cluster.request_ids:
            assert cluster.offer_ids <= best[request_id]
    assert all(not best[r.request_id] for r in orphans)


class TestClustersStayInsideBestSets:
    """Alg. 2's invariant: a request only ever joins a cluster whose
    offers are a subset of its own ``best_r`` (folded supersets and
    materialized intersections included)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_dense_blocks(self, seed, engine):
        requests, offers = generate_market(80, seed=seed)
        _assert_clusters_inside_best_sets(
            requests, offers, AuctionConfig(engine=engine)
        )
        _assert_clusters_inside_best_sets(
            *_zone_block(seed), AuctionConfig(engine=engine, cluster_breadth=4)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_candidate_stage_blocks(self, seed):
        _assert_clusters_inside_best_sets(
            *_zone_block(seed),
            AuctionConfig(engine="vectorized", candidates=NetworkZoneGenerator()),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sharded_blocks(self, seed):
        requests, offers = _zone_block(seed, n_requests=200, n_zones=4)
        shards = partition_block(requests, offers, ShardPlan(kind="network"))
        assert len(shards) == 4
        for shard in shards:
            _assert_clusters_inside_best_sets(
                list(shard.requests), list(shard.offers),
                AuctionConfig(engine="vectorized"),
            )


class TestWhoAsksTheScalarFunctions:
    @pytest.mark.parametrize(
        "config",
        [
            AuctionConfig(engine="vectorized"),
            AuctionConfig(engine="vectorized", candidates=NetworkZoneGenerator()),
            AuctionConfig(engine="vectorized", sharding=ShardPlan(kind="network")),
        ],
        ids=["dense", "candidates", "sharded"],
    )
    def test_a_vectorized_run_never_does(self, monkeypatch, config):
        requests, offers = _zone_block(3)
        asked = _record_scalar_calls(monkeypatch)
        outcome = DecloudAuction(config).run(requests, offers, evidence=b"pairs")
        assert outcome.matches
        assert not asked

    def test_the_reference_engine_still_does(self, monkeypatch):
        requests, offers = _zone_block(3)
        asked = _record_scalar_calls(monkeypatch)
        reference = DecloudAuction(AuctionConfig(engine="reference")).run(
            requests, offers, evidence=b"pairs"
        )
        assert reference.matches
        assert asked["is_feasible"] and asked["resource_fraction"]
        assert asked["required_amount"]
