"""Dot-product matching baseline (the heuristic the paper rejects).

§IV-B: "Normally, a similarity measure like the dot product could be
used to determine the allocation, but it does not work well when clients
can specify weights for their requests."  To make that claim testable we
implement the dot-product ranking as a drop-in alternative to Eq. 18 and
an ablation harness compares the two on weighted workloads.

The dot product rewards *big* offers regardless of fit — a 64 GB machine
dominates the score of a 4 GB request even when a snug 8 GB machine is
available — and significance weights scale scores uniformly instead of
expressing trade-offs, which is exactly the failure mode the paper calls
out.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.matching import block_maxima
from repro.market.bids import Offer, Request
from repro.market.feasibility import is_feasible
from repro.market.resources import common_types


def dot_product_quality(
    request: Request, offer: Offer, maxima: Dict[str, float]
) -> float:
    """Weighted dot product of normalized resource vectors, accumulated
    in sorted type order (a float sum must not follow set order)."""
    score = 0.0
    for key in sorted(common_types(request.resources, offer.resources)):
        top = maxima.get(key, 0.0)
        if top <= 0:
            continue
        rho_o = offer.resources[key] / top
        rho_r = request.resources[key] / top
        score += request.sigma(key) * rho_o * rho_r
    return score


def rank_offers_dot(
    request: Request,
    offers: Sequence[Offer],
    maxima: Dict[str, float],
) -> List[Tuple[float, Offer]]:
    """Feasible offers ranked by dot-product similarity, best first."""
    scored = [
        (dot_product_quality(request, offer, maxima), offer)
        for offer in offers
        if is_feasible(request, offer)
    ]
    scored.sort(key=lambda item: (-item[0], item[1].submit_time, item[1].offer_id))
    return scored


def best_match_fit_error(
    requests: Sequence[Request],
    offers: Sequence[Offer],
    ranker,
) -> float:
    """Mean oversize factor of each request's best-ranked offer.

    Fit error 0 means the chosen machine exactly matches the request; a
    large value means the ranker keeps sending small tasks to huge
    machines.  Used by the matching ablation to quantify the paper's
    "does not work well" claim.
    """
    maxima = block_maxima(requests, offers)
    errors: List[float] = []
    for request in requests:
        ranked = ranker(request, list(offers), maxima)
        if not ranked:
            continue
        _, best = ranked[0]
        ratios = [
            best.resources[key] / request.resources[key]
            for key in sorted(
                common_types(request.resources, best.resources)
            )
            if request.resources[key] > 0 and best.resources.get(key, 0) > 0
        ]
        if ratios:
            oversize = sum(ratios) / len(ratios) - 1.0
            errors.append(max(0.0, oversize))
    return sum(errors) / len(errors) if errors else 0.0
