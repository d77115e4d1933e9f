"""Alg. 4's live re-fit hands back an untouched tentative fit unchanged.

``_live_allocations`` re-fits every cluster of a mini-auction against a
capacity and a taken-request set shared across the auction's clusters.
A cluster that lost no member, none of whose requests an earlier cluster
matched and none of whose offers an earlier cluster booked is re-fitted
on exactly the inputs of its tentative fit, so the tentative allocation
is handed back and its post-fit capacity rows loaded instead.

Every ``_live_allocations`` call of a real clear is checked here against
a forced re-fit of the same auction (its tentative allocations stripped
of their rows): the live allocations must agree on the matches, the
break-even indices and the tentative welfare, and the shared capacity
must hold the same rows afterwards, floats compared by ``float.hex``.
Each market family must exercise both branches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.common.timewindow import TimeWindow
from repro.core import trade_reduction
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.core.miniauctions import MiniAuction
from repro.workloads.generators import generate_zone_market

from tests.conftest import make_offer, make_request
from tests.differential.test_engine_equivalence import markets


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _facts(allocation):
    return {
        "matches": [(r.request_id, o.offer_id) for r, o in allocation.matches],
        "v_z": _hex(allocation.v_z),
        "c_z": _hex(allocation.c_z),
        "c_z_plus_1": _hex(allocation.c_z_plus_1),
        "z_request": getattr(allocation.z_request, "request_id", None),
        "z_plus_1_offer": getattr(allocation.z_plus_1_offer, "offer_id", None),
        "tentative_welfare": _hex(allocation.tentative_welfare),
    }


def _watch(monkeypatch, seen: Counter):
    """Check every live re-fit of the clears that follow against a forced
    one; count the clusters handed back and the clusters re-fitted."""
    real = trade_reduction._live_allocations

    def live_and_rows(auction, *args):
        capacities = []

        class Recording(trade_reduction.OfferCapacity):
            def __init__(self, offers):
                super().__init__(offers)
                capacities.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(trade_reduction, "OfferCapacity", Recording)
            live = real(auction, *args)
        rows = {
            oid: {key: left.hex() for key, left in row.items()}
            for capacity in capacities
            for oid, row in capacity._remaining.items()
        }
        return live, rows

    def checked(auction, *args):
        # Another auction of the block may share a cluster: the call must
        # load copies of its rows, never book into them.
        kept = [
            {oid: dict(row) for oid, row in a.rows_after_fit.items()}
            for a in auction.allocations
        ]
        live, rows = live_and_rows(auction, *args)
        assert [a.rows_after_fit for a in auction.allocations] == kept
        forced = MiniAuction(
            [replace(a, rows_after_fit=None) for a in auction.allocations]
        )
        refit, refit_rows = live_and_rows(forced, *args)
        assert [_facts(a) for a in live] == [_facts(a) for a in refit]
        assert rows == refit_rows
        tentative = {id(a) for a in auction.allocations}
        for allocation in live:
            seen["reused" if id(allocation) in tentative else "refit"] += 1
        return live

    monkeypatch.setattr(trade_reduction, "_live_allocations", checked)


CONFIGS = {
    "vectorized": AuctionConfig(engine="vectorized"),
    "reference": AuctionConfig(engine="reference"),
    "unrandomized": AuctionConfig(
        engine="vectorized", enable_randomization=False
    ),
}


@pytest.mark.parametrize("cross_zone", [0.05, 0.3])
@pytest.mark.parametrize("locality", ["strong", "weak"])
def test_zone_markets(monkeypatch, locality, cross_zone):
    seen = Counter()
    _watch(monkeypatch, seen)
    for seed in (1, 2):
        requests, offers = generate_zone_market(
            200, n_zones=5, seed=seed, kind="network",
            locality=locality, cross_zone_fraction=cross_zone,
        )[:2]
        for config in CONFIGS.values():
            DecloudAuction(config).run(requests, offers, evidence=b"reuse")
    assert seen["reused"] and seen["refit"], seen


def test_hypothesis_markets(monkeypatch):
    seen = Counter()
    _watch(monkeypatch, seen)

    @settings(max_examples=150, deadline=None)
    @given(markets())
    def clear(market):
        for config in (
            CONFIGS["vectorized"],
            AuctionConfig(cluster_breadth=1),
            AuctionConfig(cluster_breadth=5),
        ):
            DecloudAuction(config).run(*market, evidence=b"reuse")

    clear()
    assert seen["reused"] and seen["refit"], seen


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
def test_a_request_an_earlier_cluster_matched_forces_a_re_fit(
    monkeypatch, engine
):
    """``r01`` sits in the clusters on ``{o00, o01}`` and on ``{o01}``;
    the auction's first cluster matches it to ``o00``, which the second
    does not hold, so the second, intact and with no offer booked, must
    still be re-fitted without ``r01``."""
    seen = Counter()
    _watch(monkeypatch, seen)
    window = TimeWindow(0.0, 1.0)
    requests = [
        make_request(
            request_id=f"r0{i}", client_id="c0", resources=resources,
            significance=significance, window=window, duration=1.0, bid=0.25,
        )
        for i, (resources, significance) in enumerate([
            ({"cpu": 1.0}, {"cpu": 1.0}),
            (
                {"cpu": 1.0, "ram": 0.0, "disk": 0.0},
                {"cpu": 0.5, "ram": 1.0, "disk": 1.0},
            ),
        ])
    ]
    offers = [
        make_offer(
            offer_id=f"o0{j}", provider_id="p0", resources={kind: 1.0},
            window=TimeWindow(0.0, 4.0), bid=0.25,
        )
        for j, kind in enumerate(["ram", "cpu"])
    ]
    DecloudAuction(AuctionConfig(engine=engine, cluster_breadth=5)).run(
        requests, offers, evidence=b"reuse"
    )
    assert seen == Counter(reused=1, refit=1)
