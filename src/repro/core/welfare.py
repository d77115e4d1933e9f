"""Welfare accounting (paper Eq. 3–6, 15).

Welfare of a matched pair is the buyer's value minus the cost of the
*fraction* of the offer actually consumed:

    w_(r,o) = v_r - phi_(r,o) * c_o

with the fraction given by Eq. (6):

    phi_(r,o) = d_r / (t_o^+ - t_o^-) * (1/|K_(r,o)|) *
                sum over k in K_(r,o) of rho_(r,k) / rho_(o,k)
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.common.errors import InfeasibleMatchError
from repro.market.bids import Offer, Request
from repro.market.resources import common_types


def resource_fraction(request: Request, offer: Offer) -> float:
    """Eq. (6): fraction of ``offer`` consumed by ``request``.

    Resource types the offer reports as zero are skipped in the mean (they
    would divide by zero and represent capabilities without capacity,
    e.g., boolean tags).  The ratios are summed in sorted type order, so
    the (non-associative) float sum cannot vary with set iteration order
    across interpreter runs.
    """
    shared = sorted(common_types(request.resources, offer.resources))
    if not shared:
        raise InfeasibleMatchError(
            f"request {request.request_id} and offer {offer.offer_id} share "
            "no resource types"
        )
    if offer.span <= 0:
        raise InfeasibleMatchError(f"offer {offer.offer_id} has zero span")
    ratios = [
        request.resources[k] / offer.resources[k]
        for k in shared
        if offer.resources[k] > 0
    ]
    if not ratios:
        return 0.0
    time_share = request.duration / offer.span
    return time_share * sum(ratios) / len(ratios)


def pair_welfare(
    request: Request,
    offer: Offer,
    value: float | None = None,
    cost: float | None = None,
) -> float:
    """Welfare of one matched pair, ``v_r - phi * c_o``.

    ``value``/``cost`` default to the reported bids — correct under
    truthful bidding; evaluation code passes true values when simulating
    misreports.
    """
    value = request.bid if value is None else value
    cost = offer.bid if cost is None else cost
    return value - resource_fraction(request, offer) * cost


def total_welfare(matches: Iterable[Tuple[Request, Offer]]) -> float:
    """Eq. (3): block welfare over matched pairs."""
    return sum(pair_welfare(request, offer) for request, offer in matches)


def satisfaction(num_allocated: int, num_requests: int) -> float:
    """Evaluation metric: fraction of requests allocated (0 when empty)."""
    if num_requests <= 0:
        return 0.0
    return num_allocated / num_requests
