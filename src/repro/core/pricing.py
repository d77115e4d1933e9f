"""SBBA pooled pricing (paper Alg. 4, Eq. 19-20).

The clearing price of a mini-auction pools Eq. (20) over its clusters:

    p = min over clusters of min(v_hat_z, c_hat_{z'+1})

The participant *determining* the price never trades (the McAfee/SBBA
sacrifice that buys truthfulness): a price set by request ``z`` excludes
that client from the auction, a price set by offer ``z'+1`` excludes that
provider.

:func:`pooled_price` is the one implementation (moved verbatim from
``repro.core.trade_reduction``, which re-exports it for compatibility):
``clear_mini_auction`` prices every mini-auction of either engine
through it.

:func:`payment_for` (Eq. 19) stays in :mod:`repro.core.normalization`
and is re-exported here so pricing callers find the whole price/payment
surface in one module.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.core.cluster_allocation import ClusterAllocation
from repro.core.normalization import payment_for  # noqa: F401  (re-export)
from repro.market.bids import Offer, Request

PriceResult = Tuple[Optional[float], Optional[Request], Optional[Offer]]


def pooled_price(
    allocations: Sequence[ClusterAllocation],
    epsilon: float = 1e-9,
) -> PriceResult:
    """Eq. (20) pooled over the auction's clusters.

    Returns ``(price, z_request, z_plus_1_offer)`` where exactly one of
    the two participants is the price-determiner (the other is ``None``).

    A common price must be *feasible for every cluster*: at least the
    highest used cost (``c_hat_z'``) and at most the lowest winning value
    (``v_hat_z``) across the auction — pairwise price compatibility
    (Alg. 3) guarantees this band is non-empty.  An unused offer
    ``z'+1`` cheaper than another cluster's traded offers therefore
    cannot determine the price (its cost lies outside the band and would
    void that cluster's trades); the qualifying ``c_hat_{z'+1}``
    candidates are those at or above the band floor.  On an exact tie
    the offer side wins — excluding a non-trading offer costs no welfare,
    excluding a winning request does.
    """
    trading = [a for a in allocations if a.has_trades]
    if not trading:
        return None, None, None
    v_candidates = [(a.v_z, a.z_request) for a in trading]
    min_v, z_request = min(v_candidates, key=lambda item: item[0])
    band_floor = max(a.c_z for a in trading)
    c_candidates = [
        (a.c_z_plus_1, a.z_plus_1_offer)
        for a in allocations
        if a.z_plus_1_offer is not None
        and math.isfinite(a.c_z_plus_1)
        and a.c_z_plus_1 >= band_floor - epsilon
    ]
    if c_candidates:
        min_c, z1_offer = min(c_candidates, key=lambda item: item[0])
        if min_c <= min_v:
            return min_c, None, z1_offer
    return min_v, z_request, None
