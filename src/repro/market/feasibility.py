"""Feasibility of (request, offer) pairings.

Encodes the hard constraints of the welfare program (§IV-A):

* Const. (8): the offer holds enough of every strictly-required resource;
  resources with significance < 1 only need ``flexibility`` of the
  requested amount (the evaluation's flexible-matching knob).
* Const. (10)–(11): the offer's availability window contains the request
  window.
* There must be at least one common resource type, otherwise the quality
  of match (Eq. 18) is undefined for the pair.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.market.bids import Offer, Request
from repro.market.resources import common_types


def required_amount(request: Request, resource_type: str) -> float:
    """Amount of ``resource_type`` the offer must actually provide.

    Strict resources need the full declared amount; flexible ones are
    discounted by the request's ``flexibility``.
    """
    amount = request.resources.get(resource_type, 0.0)
    if request.is_strict(resource_type):
        return amount
    return amount * request.flexibility


def temporally_feasible(request: Request, offer: Offer) -> bool:
    """Constraints (10)-(11): offer window contains the request window."""
    return offer.window.contains(request.window)


def resource_feasible(request: Request, offer: Offer) -> bool:
    """Constraint (8) with flexibility discounting."""
    shared = common_types(request.resources, offer.resources)
    if not shared:
        return False
    for key, amount in request.resources.items():
        if amount <= 0:
            continue
        available = offer.resources.get(key, 0.0)
        needed = required_amount(request, key)
        if request.is_strict(key) and key not in offer.resources:
            return False
        if key in offer.resources and available < needed:
            return False
    return True


def is_feasible(request: Request, offer: Offer) -> bool:
    """Full hard-constraint check for matching ``request`` onto ``offer``."""
    return temporally_feasible(request, offer) and resource_feasible(
        request, offer
    )


def feasible_offers(request: Request, offers: Iterable[Offer]) -> List[Offer]:
    """Filter ``offers`` down to those that can host ``request``."""
    return [offer for offer in offers if is_feasible(request, offer)]

