"""Clearing a mini-auction: pricing, trade reduction, randomization (Alg. 4).

The clearing price pools Eq. (20) over the auction's clusters:

    p = min over clusters of min(v_hat_z, c_hat_{z'+1})

The participant *determining* the price never trades: if ``p`` comes from
a request ``z``, every request of that client leaves the auction; if it
comes from an offer ``z'+1``, every offer of that provider leaves.  When a
price-eligible surplus remains on both sides after the deterministic
re-fit, the allocation of that cluster is randomized with the
evidence-seeded PRNG so that no infra-marginal participant can steer who
wins by shading bids (paper §IV-D).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.rng import block_evidence_rng
from repro.core.cluster_allocation import (
    ClusterAllocation,
    Fit,
    OfferCapacity,
    PairChecks,
    allocate_cluster,
    greedy_fit,
)
from repro.core.config import AuctionConfig
from repro.core.miniauctions import MiniAuction
from repro.core.normalization import ClusterEconomics, payment_for

# Pricing moved to repro.core.pricing; re-exported here because public
# API and tests import it from this module.
from repro.core.pricing import PriceResult, pooled_price  # noqa: F401
from repro.core.outcome import Match
from repro.market.bids import Offer, Request


@dataclass
class ClearingResult:
    """What one mini-auction produced."""

    matches: List[Match] = field(default_factory=list)
    reduced_requests: List[Request] = field(default_factory=list)
    reduced_offers: List[Offer] = field(default_factory=list)
    participant_requests: Set[str] = field(default_factory=set)
    participant_offers: Set[str] = field(default_factory=set)
    price: Optional[float] = None
    tentative_trades: int = 0
    #: the Eq. (6) fraction of each of ``matches``, as the fit found it
    fractions: List[float] = field(default_factory=list)


def _live_allocations(
    auction: MiniAuction,
    request_by_id: Dict[str, Request],
    offer_by_id: Dict[str, Offer],
    consumed_requests: Set[str],
    consumed_offers: Set[str],
    config: AuctionConfig,
    pairs: Optional[PairChecks] = None,
) -> List[ClusterAllocation]:
    """Re-run greedy allocation on still-available participants.

    Capacity and the taken-request set are shared across the auction's
    clusters: an offer appearing in two nested clusters exposes one pool
    of capacity, and a request wins at most once (Const. 5).

    A cluster that lost no member, none of whose requests an earlier
    cluster matched and none of whose offers an earlier cluster booked
    would be re-fitted on exactly the inputs of its tentative fit: its
    tentative allocation is handed back and its post-fit capacity rows
    loaded instead.
    """
    survivors = []
    economics_list: List[Optional[ClusterEconomics]] = []
    for allocation in auction.allocations:
        cluster = allocation.cluster
        requests = [
            request_by_id[rid]
            for rid in sorted(cluster.request_ids)
            if rid not in consumed_requests
        ]
        offers = [
            offer_by_id[oid]
            for oid in sorted(cluster.offer_ids)
            if oid not in consumed_offers
        ]
        if not requests or not offers:
            continue
        # §IV-C economics are a pure function of membership: a cluster
        # that lost no member keeps its tentative allocation's.
        intact = len(requests) == len(allocation.requests) and len(
            offers
        ) == len(allocation.offers)
        survivors.append((allocation, requests, offers, intact))
        economics_list.append(allocation.economics if intact else None)

    changed = [i for i, known in enumerate(economics_list) if known is None]
    if config.engine == "vectorized" and changed:
        # Batch §IV-C over the clusters that did lose a member at once —
        # bit-identical to the per-cluster scalar computation.
        from repro.core.normalization_vectorized import (
            compute_economics_batch,
        )

        for i, economics in zip(
            changed,
            compute_economics_batch(
                [survivors[i][1:3] for i in changed], config,
                pairs.block if pairs is not None else None,
            ),
        ):
            economics_list[i] = economics

    live: List[ClusterAllocation] = []
    capacity: Optional[OfferCapacity] = None
    taken: Set[str] = set()
    booked: Set[str] = set()
    for (allocation, requests, offers, intact), economics in zip(
        survivors, economics_list
    ):
        if capacity is None:
            capacity = OfferCapacity(offers)
        else:
            for offer in offers:
                capacity.add_offer(offer)
        cluster = allocation.cluster
        if (
            intact
            and allocation.rows_after_fit is not None
            and taken.isdisjoint(cluster.request_ids)
            and booked.isdisjoint(cluster.offer_ids)
        ):
            capacity.load(allocation.rows_after_fit)
            taken.update(r.request_id for r, _ in allocation.matches)
        else:
            allocation = allocate_cluster(
                cluster, requests, offers, config, capacity=capacity,
                taken_requests=taken, economics=economics, pairs=pairs,
            )
        booked.update(o.offer_id for _, o in allocation.matches)
        live.append(allocation)
    return live


def _final_fit(
    allocation: ClusterAllocation,
    price: float,
    excluded_client: Optional[str],
    excluded_provider: Optional[str],
    capacity: OfferCapacity,
    taken: Set[str],
    config: AuctionConfig,
    rng: random.Random,
    pairs: PairChecks,
) -> Fit:
    """Re-fit one cluster at the clearing price (with randomization)."""
    epsilon = config.price_epsilon
    economics = allocation.economics
    requests = [
        r for r in allocation.requests if r.client_id != excluded_client
    ]
    offers = [
        o for o in allocation.offers if o.provider_id != excluded_provider
    ]
    for offer in offers:
        capacity.add_offer(offer)

    matches = greedy_fit(
        requests,
        offers,
        economics,
        capacity,
        taken,
        min_value=price,
        max_cost=price,
        epsilon=epsilon,
        pairs=pairs,
    )
    if not config.enable_randomization:
        return matches

    matched_requests = {r.request_id for r, _ in matches}
    matched_offers = {o.offer_id for _, o in matches}
    leftover_requests = [
        r
        for r in requests
        if r.request_id not in matched_requests
        and r.request_id not in taken
        and economics.v_hat(r.request_id) >= price - epsilon
    ]
    leftover_offers = [
        o
        for o in offers
        if o.offer_id not in matched_offers
        and economics.c_hat(o.offer_id) <= price + epsilon
    ]
    if not leftover_requests and not leftover_offers:
        return matches

    # A price-eligible surplus remains (paper §IV-D): on a supply
    # shortage the *requests* that win are drawn verifiably at random;
    # on a demand shortage the redundant *offers* are excluded at random
    # (requests spread over a random offer order).  Otherwise an
    # infra-marginal participant could steer who wins by shading its bid.
    for (request, offer), booked in zip(matches, matches.booked):
        taken.discard(request.request_id)
        capacity.unbook(offer, booked)
    eligible_requests = [
        r
        for r in requests
        if r.request_id not in taken
        and economics.v_hat(r.request_id) >= price - epsilon
    ]
    eligible_offers = [
        o for o in offers if economics.c_hat(o.offer_id) <= price + epsilon
    ]
    if leftover_requests:
        rng.shuffle(eligible_requests)
    if leftover_offers:
        rng.shuffle(eligible_offers)
    return greedy_fit(
        eligible_requests,
        eligible_offers,
        economics,
        capacity,
        taken,
        min_value=price,
        max_cost=price,
        epsilon=epsilon,
        pairs=pairs,
    )


def clear_mini_auction(
    auction: MiniAuction,
    request_by_id: Dict[str, Request],
    offer_by_id: Dict[str, Offer],
    consumed_requests: Set[str],
    consumed_offers: Set[str],
    config: AuctionConfig,
    rng: random.Random,
    pairs: Optional[PairChecks] = None,
) -> ClearingResult:
    """Run Alg. 4 for one mini-auction against live participants.

    ``pairs`` is the enclosing clear's :class:`PairChecks`; a call
    without one builds its own.
    """
    result = ClearingResult()
    if pairs is None:
        pairs = PairChecks()
    live = _live_allocations(
        auction, request_by_id, offer_by_id, consumed_requests,
        consumed_offers, config, pairs,
    )
    tentative: List[Tuple[ClusterAllocation, Request, Offer]] = [
        (allocation, request, offer)
        for allocation in live
        for request, offer in allocation.matches
    ]
    result.tentative_trades = len(tentative)
    if not tentative:
        return result  # nothing cleared; participants stay available

    if not config.enable_trade_reduction:
        # Non-truthful benchmark: keep every tentative trade; each pair
        # trades at the midpoint of its own normalized value/cost.
        for allocation, request, offer in tentative:
            economics = allocation.economics
            unit = 0.5 * (
                economics.v_hat(request.request_id)
                + economics.c_hat(offer.offer_id)
            )
            result.matches.append(
                Match(
                    request=request,
                    offer=offer,
                    payment=payment_for(economics, request, unit),
                    unit_price=unit,
                )
            )
            result.fractions.append(pairs.fraction(request, offer))
        result.participant_requests.update(
            m.request.request_id for m in result.matches
        )
        result.participant_offers.update(
            m.offer.offer_id for m in result.matches
        )
        return result

    price, z_request, z1_offer = pooled_price(live)
    assert price is not None  # tentative trades exist, so v_candidates did
    result.price = price
    excluded_client = z_request.client_id if z_request is not None else None
    excluded_provider = z1_offer.provider_id if z1_offer is not None else None

    capacity: Optional[OfferCapacity] = None
    taken: Set[str] = set()
    final: List[Tuple[ClusterAllocation, Request, Offer]] = []
    for allocation in live:
        if capacity is None:
            capacity = OfferCapacity([])
        fit = _final_fit(
            allocation, price, excluded_client, excluded_provider,
            capacity, taken, config, rng, pairs,
        )
        final.extend((allocation, request, offer) for request, offer in fit)
        result.fractions.extend(fit.fractions)

    for allocation, request, offer in final:
        result.matches.append(
            Match(
                request=request,
                offer=offer,
                payment=payment_for(allocation.economics, request, price),
                unit_price=price,
            )
        )

    final_request_ids = {r.request_id for _, r, _ in final}
    final_offer_ids = {o.offer_id for _, _, o in final}
    # Ids are unique per side only: a request and an offer may share one.
    seen_requests: Set[str] = set(final_request_ids)
    seen_offers: Set[str] = set(final_offer_ids)
    for _, request, offer in tentative:
        if request.request_id not in seen_requests:
            result.reduced_requests.append(request)
            seen_requests.add(request.request_id)
        if offer.offer_id not in seen_offers:
            result.reduced_offers.append(offer)
            seen_offers.add(offer.offer_id)

    # Alg. 1 removes the auction's participants from the remaining
    # auctions.  We consume the participants whose allocation this
    # auction decided — the matched winners (Const. 5: a request trades
    # once; a matched offer's residual capacity is not re-offered).
    # Trade-reduction exclusion is scoped to "the same mini-auction"
    # (§IV-C), so excluded and unallocated participants remain available
    # to later mini-auctions, mirroring the protocol's resubmission of
    # unallocated bids (§III-B).
    result.participant_requests.update(final_request_ids)
    result.participant_offers.update(final_offer_ids)
    return result


def clear_auctions(
    auctions: Sequence[MiniAuction],
    request_by_id: Dict[str, Request],
    offer_by_id: Dict[str, Offer],
    config: AuctionConfig,
    evidence: bytes,
    pairs: Optional[PairChecks] = None,
) -> List[ClearingResult]:
    """Alg. 1's clear loop: every mini-auction in order, one RNG stream.

    Auctions clear in the order given (Alg. 3's descending welfare), and
    each removes its winners before the next one re-fits.  All
    randomization draws from the single stream seeded by the block
    ``evidence``, so every miner re-executing the block draws the same
    numbers in the same order.  Results are in auction order.
    """
    rng = block_evidence_rng(evidence)
    consumed_requests: Set[str] = set()
    consumed_offers: Set[str] = set()
    results: List[ClearingResult] = []
    for auction in auctions:
        result = clear_mini_auction(
            auction, request_by_id, offer_by_id, consumed_requests,
            consumed_offers, config, rng, pairs=pairs,
        )
        results.append(result)
        consumed_requests |= result.participant_requests
        consumed_offers |= result.participant_offers
    return results
