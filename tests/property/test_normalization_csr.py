"""CSR-fed §IV-C normalization == scalar normalization, on whole blocks.

``compute_economics_batch`` reads its clusters' bids through the
block's :class:`BlockArrays` rows and reduces flat entries keyed by
(cluster, type).  ``test_normalization_batch.py`` drives it with
self-contained cluster mixes; here the clusters are cut from one block
of many zones — a type universe far wider than any cluster's own, bids
that sit in several clusters, types only one side declares, zero
amounts, zero-magnitude virtual maxima — with and without the block's
arrays handed in, and every ``ClusterEconomics`` field must equal the
scalar ``compute_economics`` (floats by ``float.hex()``).
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AuctionError
from repro.common.timewindow import TimeWindow
from repro.core.config import AuctionConfig
from repro.core.matching_vectorized import BlockArrays
from repro.core.normalization import compute_economics
from repro.core.normalization_vectorized import compute_economics_batch
from repro.market.bids import Offer, Request

#: amounts whose squares and ratios round differently in another order
AMOUNTS = (0.0, 0.1, 1 / 3, 0.7, 1.0, 2.7, 8.0, 1e-9, 3e7)
BIDS = (0.25, 1.0, 3.0)
CONFIG = AuctionConfig()


def _hexed(economics):
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


def _request(rid, resources, draw=None, flexible=()):
    return Request(
        request_id=rid,
        client_id=f"c-{rid}",
        submit_time=0.0,
        resources=resources,
        significance={t: 0.9 for t in flexible},
        window=TimeWindow(0.0, 4.0),
        duration=draw(st.sampled_from((1.0, 2.0, 3.0))) if draw else 1.0,
        bid=draw(st.sampled_from(BIDS)) if draw else 1.0,
    )


def _offer(oid, resources, draw=None):
    return Offer(
        offer_id=oid,
        provider_id=f"p-{oid}",
        submit_time=0.0,
        resources=resources,
        window=TimeWindow(0.0, draw(st.sampled_from((4.0, 7.0))) if draw else 4.0),
        bid=draw(st.sampled_from(BIDS)) if draw else 1.0,
    )


@st.composite
def _zone_blocks(draw):
    """``(requests, offers, clusters)``: one block over 1-40 zones, each
    zone's bids on its own zone-qualified types, cut into overlapping
    clusters (every bid of a multi-cluster zone sits in two or three)."""
    n_zones = draw(st.integers(min_value=1, max_value=40))
    requests, offers, clusters = [], [], []
    for z in range(n_zones):
        shared = [f"cpu@z{z}", f"ram@z{z}"][: draw(st.integers(1, 2))]
        if draw(st.booleans()):
            shared.append("cpu")  # a configured critical, in several zones
        degenerate = draw(st.integers(0, 5)) == 0
        zone_offers = []
        for j in range(draw(st.integers(1, 3))):
            resources = {
                t: 0.0 if degenerate else draw(st.sampled_from(AMOUNTS))
                for t in shared
                if j == 0 or draw(st.booleans())
            } or {shared[0]: 0.0 if degenerate else 1.0}
            if draw(st.booleans()):
                resources[f"sgx@z{z}"] = 1.0  # no request declares it
            zone_offers.append(_offer(f"z{z}-o{j}", resources, draw))
        zone_requests = []
        for i in range(draw(st.integers(1, 4))):
            resources = {
                t: draw(st.sampled_from(AMOUNTS))
                for t in shared
                if i == 0 or draw(st.booleans())
            } or {shared[-1]: draw(st.sampled_from(AMOUNTS))}
            if draw(st.booleans()):
                resources[f"gpu@z{z}"] = 2.0  # no offer carries it
            zone_requests.append(
                _request(
                    f"z{z}-r{i}", resources, draw,
                    flexible=[t for t in resources if draw(st.booleans())],
                )
            )
        requests += zone_requests
        offers += zone_offers
        clusters.append((zone_requests, zone_offers))
        if draw(st.booleans()):
            clusters.append((zone_requests[:1], zone_offers))
            clusters.append((zone_requests, zone_offers[:1]))
    return requests, offers, clusters


def _has_common_types(cluster):
    requests, offers = cluster
    return bool(
        set().union(*(r.resources for r in requests))
        & set().union(*(o.resources for o in offers))
    )


class TestBlockFedNormalization:
    @given(block=_zone_blocks())
    @settings(max_examples=120, deadline=None)
    def test_every_field_matches_scalar_bitwise(self, block):
        requests, offers, clusters = block
        clusters = [c for c in clusters if _has_common_types(c)]
        arrays = BlockArrays(requests, offers, {})
        fed = compute_economics_batch(clusters, CONFIG, arrays)
        alone = compute_economics_batch(clusters, CONFIG)
        assert len(fed) == len(alone) == len(clusters)
        for (cluster_requests, cluster_offers), a, b in zip(clusters, fed, alone):
            scalar = _hexed(
                compute_economics(cluster_requests, cluster_offers, CONFIG)
            )
            assert _hexed(a) == scalar
            assert _hexed(b) == scalar

    def test_long_rows_accumulate_in_sorted_type_order(self):
        """Twelve types per bid: summing the twelve squares in any
        other order than the scalar's left-to-right one moves a bit."""
        types = [f"t{k:02d}" for k in range(12)]
        amounts = [0.1, 0.7, 1 / 3, 1.9, 2.7, 0.3, 8.1, 1.3, 0.9, 5.3, 7.1, 1.7]
        offers = [
            _offer("o0", dict(zip(types, amounts))),
            _offer("o1", dict(zip(reversed(types), amounts))),
        ]
        requests = [
            _request("r0", dict(zip(types, amounts[3:] + amounts[:3]))),
            _request("r1", dict(zip(reversed(types), amounts[5:] + amounts[:5]))),
        ]
        scalar = _hexed(compute_economics(requests, offers, CONFIG))
        assert _hexed(compute_economics_batch([(requests, offers)], CONFIG)[0]) == scalar
        # ... and the rows really are order-sensitive at this length.
        squares = [a**2 for a in amounts]
        assert sum(squares) != sum(reversed(squares))

    def test_first_offending_cluster_decides_the_error(self):
        good = ([_request("r0", {"cpu": 1.0})], [_offer("o0", {"cpu": 2.0})])
        disjoint = ([_request("r1", {"cpu": 1.0})], [_offer("o1", {"gpu": 1.0})])
        one_sided = ([], [_offer("o2", {"cpu": 1.0})])
        arrays = BlockArrays(
            [good[0][0], disjoint[0][0]],
            [good[1][0], disjoint[1][0], one_sided[1][0]],
            {},
        )
        for block in (None, arrays):
            with pytest.raises(AuctionError, match="no common resource types"):
                compute_economics_batch([good, disjoint, one_sided], CONFIG, block)
            with pytest.raises(AuctionError, match="at least one of each side"):
                compute_economics_batch([good, one_sided, disjoint], CONFIG, block)
            with pytest.raises(AuctionError, match="at least one of each side"):
                compute_economics_batch([one_sided], CONFIG, block)
            for batch in ([good, disjoint, one_sided], [good, one_sided, disjoint]):
                with pytest.raises(AuctionError) as batched:
                    compute_economics_batch(batch, CONFIG, block)
                with pytest.raises(AuctionError) as looped:
                    for cluster_requests, cluster_offers in batch:
                        compute_economics(cluster_requests, cluster_offers, CONFIG)
                assert str(batched.value) == str(looped.value)


def _zoned_batch(n_zones, n_requests=1200, n_offers=240):
    """The same number of participants whatever ``n_zones``: one
    cluster per zone over that zone's two types."""
    requests = [
        _request(
            f"r{i}",
            {f"cpu@z{i % n_zones}": 1.0 + i % 7, f"ram@z{i % n_zones}": 2.0 + i % 5},
        )
        for i in range(n_requests)
    ]
    offers = [
        _offer(
            f"o{j}",
            {f"cpu@z{j % n_zones}": 8.0 + j % 3, f"ram@z{j % n_zones}": 16.0},
        )
        for j in range(n_offers)
    ]
    clusters = [
        (requests[z::n_zones], offers[z::n_zones]) for z in range(n_zones)
    ]
    return clusters, BlockArrays(requests, offers, {})


def _batch_peak(n_zones):
    clusters, arrays = _zoned_batch(n_zones)
    compute_economics_batch(clusters, CONFIG, arrays)  # warm
    tracemalloc.start()
    try:
        compute_economics_batch(clusters, CONFIG, arrays)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_follows_entries_not_zones():
    """No array has a types-sized axis: twice the zones (and types) at a
    fixed participant count must not grow the batch's peak by more than
    1.2x.  The dense participants x types matrices it replaced doubled."""
    narrow, wide = _batch_peak(30), _batch_peak(60)
    assert wide <= 1.2 * narrow, (narrow, wide)
