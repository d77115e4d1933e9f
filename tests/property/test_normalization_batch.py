"""Batched §IV-C normalization == scalar normalization, bit for bit.

``compute_economics_batch`` pads every cluster of a block into one set
of masked NumPy arrays; these properties drive it with adversarial
cluster mixes — zero-magnitude virtual maxima, single-bid clusters,
exact grid ties, clusters with disjoint type universes side by side —
and require the result to match per-cluster ``compute_economics``
float-for-float (compared via ``float.hex``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AuctionError
from repro.common.timewindow import TimeWindow
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.core.normalization import compute_economics
from repro.core.normalization_vectorized import compute_economics_batch
from repro.market.bids import Offer, Request

TYPES = ("cpu", "ram", "disk", "gpu")
AMOUNTS = (0.0, 0.5, 1.0, 2.0, 8.0)
BIDS = (0.25, 1.0, 3.0)


@st.composite
def _cluster(draw, index: int):
    """One (requests, offers) cluster; may be degenerate on purpose.

    ``zero_maximum`` zeroes every offer amount on the cluster's types —
    the virtual maximum has zero magnitude and the scalar path prices
    every offer at ``inf`` and values every request at 0.0; the batch
    must do exactly the same.  Single-bid clusters (one request, one
    offer) exercise the reduceat segments of length one.
    """
    n_types = draw(st.integers(min_value=1, max_value=3))
    types = draw(
        st.lists(
            st.sampled_from(TYPES),
            min_size=n_types,
            max_size=n_types,
            unique=True,
        )
    )
    single_bid = draw(st.booleans())
    n_req = 1 if single_bid else draw(st.integers(min_value=1, max_value=4))
    n_off = 1 if single_bid else draw(st.integers(min_value=1, max_value=4))
    zero_maximum = draw(st.booleans())

    offers = []
    for j in range(n_off):
        amounts = {
            t: 0.0 if zero_maximum else draw(st.sampled_from(AMOUNTS))
            for t in types
        }
        offers.append(
            Offer(
                offer_id=f"c{index}-o{j}",
                provider_id=f"c{index}-p{j}",
                submit_time=0.0,
                resources=amounts,
                window=TimeWindow(0.0, draw(st.sampled_from((2.0, 8.0)))),
                bid=draw(st.sampled_from(BIDS)),
            )
        )
    requests = []
    for i in range(n_req):
        requests.append(
            Request(
                request_id=f"c{index}-r{i}",
                client_id=f"c{index}-c{i}",
                submit_time=0.0,
                resources={t: draw(st.sampled_from(AMOUNTS)) for t in types},
                significance={
                    t: 0.9 for t in types if draw(st.booleans())
                },
                window=TimeWindow(0.0, 4.0),
                duration=draw(st.sampled_from((1.0, 2.0))),
                bid=draw(st.sampled_from(BIDS)),
            )
        )
    return requests, offers


@st.composite
def _cluster_batches(draw, max_clusters: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_clusters))
    return [draw(_cluster(index=i)) for i in range(n)]


def _hexed(economics):
    """ClusterEconomics reduced to an exactly-comparable structure."""

    def hex_map(mapping):
        return {k: float(v).hex() for k, v in mapping.items()}

    return {
        "common_types": sorted(economics.common_types),
        "virtual_maximum": hex_map(economics.virtual_maximum),
        "nu_offers": hex_map(economics.nu_offers),
        "nu_requests": hex_map(economics.nu_requests),
        "normalized_costs": hex_map(economics.normalized_costs),
        "normalized_values": hex_map(economics.normalized_values),
    }


class TestBatchedNormalization:
    @given(clusters=_cluster_batches())
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_scalar_bitwise(self, clusters):
        config = AuctionConfig()
        batched = compute_economics_batch(clusters, config)
        for (requests, offers), result in zip(clusters, batched):
            scalar = compute_economics(requests, offers, config)
            assert _hexed(result) == _hexed(scalar)

    @given(clusters=_cluster_batches(max_clusters=3))
    @settings(max_examples=30, deadline=None)
    def test_single_cluster_batches(self, clusters):
        """Each cluster batched alone must equal the full batch — the
        shared type universe and padding never leak between clusters."""
        config = AuctionConfig()
        full = compute_economics_batch(clusters, config)
        for cluster, from_full in zip(clusters, full):
            alone = compute_economics_batch([cluster], config)[0]
            assert _hexed(alone) == _hexed(from_full)

    def test_empty_batch(self):
        assert compute_economics_batch([], AuctionConfig()) == []

    def test_empty_side_raises_like_scalar(self):
        config = AuctionConfig()
        good = (
            [
                Request(
                    request_id="r0",
                    client_id="c0",
                    submit_time=0.0,
                    resources={"cpu": 1.0},
                    window=TimeWindow(0.0, 4.0),
                    duration=1.0,
                    bid=1.0,
                )
            ],
            [
                Offer(
                    offer_id="o0",
                    provider_id="p0",
                    submit_time=0.0,
                    resources={"cpu": 1.0},
                    window=TimeWindow(0.0, 4.0),
                    bid=1.0,
                )
            ],
        )
        with pytest.raises(AuctionError, match="at least one of each side"):
            compute_economics_batch([good, ([], good[1])], config)

    def test_no_common_types_raises_like_scalar(self):
        config = AuctionConfig()
        requests = [
            Request(
                request_id="r0",
                client_id="c0",
                submit_time=0.0,
                resources={"cpu": 1.0},
                window=TimeWindow(0.0, 4.0),
                duration=1.0,
                bid=1.0,
            )
        ]
        offers = [
            Offer(
                offer_id="o0",
                provider_id="p0",
                submit_time=0.0,
                resources={"gpu": 1.0},
                window=TimeWindow(0.0, 4.0),
                bid=1.0,
            )
        ]
        with pytest.raises(AuctionError, match="no common resource types"):
            compute_economics_batch([(requests, offers)], config)


class TestPhaseSpanIntegration:
    def test_auction_reports_all_phases(self):
        from repro.obs import Observability
        from repro.obs.trace import span_seconds
        from repro.workloads.generators import generate_market

        requests, offers = generate_market(40, seed=9)
        obs = Observability()
        DecloudAuction(AuctionConfig(engine="vectorized")).run(
            requests, offers, obs=obs
        )
        phases = span_seconds(obs.tracer.records)
        assert {"match", "cluster", "normalize", "assemble", "clear"} <= set(
            phases
        )
        assert phases["auction"]["seconds"] > 0.0
