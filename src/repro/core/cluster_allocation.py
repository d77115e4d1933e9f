"""Greedy in-cluster allocation and break-even indices (paper §IV-C).

Within a cluster, requests are ranked by normalized valuation ``v_hat``
(descending) and offers by normalized cost ``c_hat`` (ascending); the
greedy fit pairs the highest-value requests with the cheapest capacity,
subject to:

* Const. (7): per offer and resource type, the time-weighted fractions of
  allocated requests sum to at most 1 — tracked by :class:`OfferCapacity`;
* Const. (8): instantaneous amounts fit the device (checked by market
  feasibility);
* Const. (9): the request's value covers the cost of the fraction it uses;
* normalized profitability ``v_hat_r >= c_hat_o`` (a McAfee-style trade
  must not destroy welfare in virtual-maximum units).

The resulting indices ``z`` (last winning request), ``z'`` (last used
offer) and ``z'+1`` (cheapest unused offer) feed pricing and trade
reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.clustering import Cluster
from repro.core.config import AuctionConfig
from repro.core.matching_vectorized import BlockArrays, locate, segment_sums
from repro.core.normalization import ClusterEconomics, compute_economics
from repro.core.welfare import pair_welfare, resource_fraction
from repro.market.bids import Offer, Request
from repro.market.feasibility import is_feasible, required_amount


class OfferCapacity:
    """Tracks remaining time-weighted capacity per offer (Const. 7)."""

    def __init__(self, offers: Sequence[Offer]) -> None:
        self._remaining: Dict[str, Dict[str, float]] = {}
        self._offers: Dict[str, Offer] = {}
        for offer in offers:
            self.add_offer(offer)

    def add_offer(self, offer: Offer) -> None:
        if offer.offer_id not in self._remaining:
            self._remaining[offer.offer_id] = dict(offer.resources)
            self._offers[offer.offer_id] = offer

    def remaining(self, offer_id: str) -> Dict[str, float]:
        return dict(self._remaining[offer_id])

    def _demand(self, request: Request, offer: Offer) -> Dict[str, float]:
        """Time-weighted consumption of each shared resource type."""
        time_share = request.duration / offer.span
        demand: Dict[str, float] = {}
        for key in request.resources:
            if key not in offer.resources:
                continue
            amount = min(
                request.resources[key], offer.resources[key]
            )  # flexible requests consume what exists
            demand[key] = time_share * amount
        return demand

    def can_host(self, request: Request, offer: Offer) -> bool:
        """True when remaining capacity covers the request's demand."""
        remaining = self._remaining.get(offer.offer_id)
        if remaining is None:
            return False
        time_share = request.duration / offer.span
        for key in request.resources:
            if key not in offer.resources:
                continue
            needed = time_share * required_amount(request, key)
            if remaining[key] + 1e-12 < needed:
                return False
        return True

    def consume(self, request: Request, offer: Offer) -> None:
        remaining = self._remaining[offer.offer_id]
        for key, amount in self._demand(request, offer).items():
            remaining[key] = max(0.0, remaining[key] - amount)

    def restore(self, offer: Offer, request: Request) -> None:
        """Undo a prior :meth:`consume` (used by the exact solver)."""
        self.unbook(offer, self._demand(request, offer).items())

    def unbook(self, offer: Offer, booked) -> None:
        """Hand back ``(type, amount)`` bookings (a :class:`Fit`'s
        ``booked`` entry), capped at what the offer declares."""
        remaining = self._remaining[offer.offer_id]
        ceiling = offer.resources
        for key, amount in booked:
            remaining[key] = min(ceiling[key], remaining[key] + amount)

    def load(self, rows: Dict[str, Dict[str, float]]) -> None:
        """Set each listed offer's remaining capacity to a copy of its row."""
        for offer_id, row in rows.items():
            self._remaining[offer_id] = dict(row)


class PairChecks:
    """The capacity-independent checks of :func:`greedy_fit`, evaluated
    once per distinct (request, offer) pair.

    ``is_feasible`` and ``resource_fraction`` depend on the two bids
    alone, and a request's per-type amounts on the request alone, yet
    one clear fits the same pairs several times over (the tentative fit,
    each mini-auction's live re-fit, the final fit and its randomized
    re-draw).  An instance belongs to the one clear that created it —
    ``DecloudAuction.run``, or a pooled worker task, which builds its
    own — and is keyed by the bid ids that clear indexed.

    The vectorized match stage :meth:`feed`-s it the block's arrays; a
    pair it was not fed (the reference engine: all) asks the scalar ones.
    """

    def __init__(self) -> None:
        #: the clear's arrays, once fed: normalize reads its bids there too
        self.block: Optional[BlockArrays] = None
        self._best_sets: Optional[Sequence[frozenset]] = None
        #: request id -> {offer id: Eq. (6) fraction} over its ``best_r``
        self._fed: Dict[str, Dict[str, float]] = {}
        self._feasible: Dict[Tuple[str, str], bool] = {}
        self._fraction: Dict[Tuple[str, str], float] = {}
        self._amounts: Dict[str, Tuple[Tuple[str, float, float], ...]] = {}

    def feed(self, block: BlockArrays, best_sets: Sequence[frozenset]) -> None:
        """Take the block's arrays and its best-offer sets (one per
        request row); the first fit tabulates them (:meth:`tables`)."""
        self.block, self._best_sets = block, best_sets

    def tables(self):
        """``(amount rows, fed fractions)`` by request id, first taking
        the facts of every fed (request, ``best_r`` member) pair from the
        block in one array pass.  Alg. 2 only puts a request in clusters
        whose offers are a subset of its ``best_r``, which holds feasible
        offers only: these are all the pairs the clear's fits visit, each
        already found feasible by the match stage's mask.  Eq. (6) sums a
        pair's ratios in sorted-type order and divides ``(time_share *
        sum) / count`` as :func:`resource_fraction` does.
        """
        if self._best_sets is None:
            return self._amounts, self._fed
        block, best_sets, self._best_sets = self.block, self._best_sets, None
        req, off, k_types = block.req, block.off, len(block.types)
        names = [block.types[k] for k in req.type.tolist()]
        entries = list(zip(names, req.needed.tolist(), req.amount.tolist()))
        ptr = req.ptr.tolist()
        self._amounts = {
            rid: tuple(entries[lo:hi])
            for rid, lo, hi in zip(block.req_row, ptr, ptr[1:])
        }
        sizes = [len(best) for best in best_sets]
        members = [oid for best in best_sets for oid in best]
        pair_req = np.repeat(np.arange(len(sizes)), sizes)
        pair_off = np.array([block.off_row[oid] for oid in members], dtype=np.intp)
        # Every request entry of every pair looks its type up among the
        # offer entries, sorted by (offer, type) key.
        of, pos = req.gather(pair_req)
        off_key = np.repeat(np.arange(len(off.ptr) - 1), np.diff(off.ptr))
        off_key = off_key * k_types + off.type
        by_key = np.argsort(off_key)
        at, found = locate(
            off_key[by_key], pair_off[of] * k_types + req.type[pos]
        )
        held = off.amount[by_key[at]]
        counted = (found & (held > 0)).nonzero()[0]
        counted = counted[np.argsort(req.type[pos[counted]], kind="stable")]
        total = segment_sums(
            req.amount[pos[counted]] / held[counted], of[counted], len(members)
        )
        count = np.bincount(of[counted], minlength=len(members))
        time_share = req.duration[pair_req] / (off.win_end - off.win_start)[pair_off]
        fraction = np.where(
            count > 0, (time_share * total) / np.maximum(count, 1), 0.0
        ).tolist()
        cuts = np.cumsum([0] + sizes).tolist()
        self._fed = {
            rid: dict(zip(members[lo:hi], fraction[lo:hi]))
            for rid, lo, hi in zip(block.req_row, cuts, cuts[1:])
        }
        return self._amounts, self._fed

    def amounts(self, request: Request) -> Tuple[Tuple[str, float, float], ...]:
        """``(type, required_amount, declared amount)`` per declared type:
        what :meth:`OfferCapacity.can_host` admits on and what
        :meth:`OfferCapacity.consume` books."""
        known = self.tables()[0].get(request.request_id)
        if known is None:
            known = self._amounts[request.request_id] = tuple(
                (key, required_amount(request, key), amount)
                for key, amount in request.resources.items()
            )
        return known

    def _fed_fraction(self, request: Request, offer: Offer) -> Optional[float]:
        """The pair's Eq. (6) fraction if the match stage fed it — which
        also says it is feasible (see :meth:`tables`)."""
        return self.tables()[1].get(request.request_id, {}).get(offer.offer_id)

    def feasible(self, request: Request, offer: Offer) -> bool:
        if self._fed_fraction(request, offer) is not None:
            return True
        key = (request.request_id, offer.offer_id)
        known = self._feasible.get(key)
        if known is None:
            known = self._feasible[key] = is_feasible(request, offer)
        return known

    def fraction(self, request: Request, offer: Offer) -> float:
        known = self._fed_fraction(request, offer)
        if known is not None:
            return known
        key = (request.request_id, offer.offer_id)
        known = self._fraction.get(key)
        if known is None:
            known = self._fraction[key] = resource_fraction(request, offer)
        return known


@dataclass
class ClusterAllocation:
    """Tentative greedy allocation of one cluster with McAfee indices."""

    cluster: Cluster
    requests: List[Request]
    offers: List[Offer]
    economics: ClusterEconomics
    matches: List[Tuple[Request, Offer]] = field(default_factory=list)
    #: v_hat of the last (lowest-value) winning request — the paper's z.
    v_z: float = math.nan
    #: c_hat of the most expensive used offer — the paper's z'.
    c_z: float = math.nan
    #: c_hat of the cheapest unused offer — the paper's z'+1 (inf if none).
    c_z_plus_1: float = math.inf
    z_request: Optional[Request] = None
    z_plus_1_offer: Optional[Offer] = None
    #: Remaining capacity per offer after the fit, kept when the fit
    #: started from full capacity and no taken request (the tentative
    #: fit): a live re-fit that would read the same inputs loads these
    #: instead of re-fitting.
    rows_after_fit: Optional[Dict[str, Dict[str, float]]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def has_trades(self) -> bool:
        return bool(self.matches)

    @cached_property
    def tentative_welfare(self) -> float:
        """Summed once: ``matches`` is final when the allocation is
        built (:func:`allocate_cluster` fills it in from the fractions
        its fit recorded)."""
        return sum(pair_welfare(r, o) for r, o in self.matches)

    @property
    def price_range(self) -> Tuple[float, float]:
        """``[c_hat_z', v_hat_z]`` — the cluster's viable price interval."""
        return (self.c_z, self.v_z)


def sorted_requests(
    requests: Sequence[Request], economics: ClusterEconomics
) -> List[Request]:
    """Descending v_hat; ties by earlier submission then id (§IV-D)."""
    values = economics.normalized_values
    return sorted(
        requests,
        key=lambda r: (-values[r.request_id], r.submit_time, r.request_id),
    )


def sorted_offers(
    offers: Sequence[Offer], economics: ClusterEconomics
) -> List[Offer]:
    """Ascending c_hat; ties by earlier submission then id."""
    costs = economics.normalized_costs
    return sorted(
        offers, key=lambda o: (costs[o.offer_id], o.submit_time, o.offer_id)
    )


class Fit(list):
    """:func:`greedy_fit`'s ``(request, offer)`` matches, with what the
    fit found for each: the Eq. (6) fraction Const. (9) tested
    (``fractions``) and the ``(type, amount)`` pairs it booked
    (``booked``, what :meth:`OfferCapacity.unbook` hands back)."""

    def __init__(self) -> None:
        super().__init__()
        self.fractions: List[float] = []
        self.booked: List[List[Tuple[str, float]]] = []


def greedy_fit(
    requests: Sequence[Request],
    offers: Sequence[Offer],
    economics: ClusterEconomics,
    capacity: OfferCapacity,
    taken_requests: Set[str],
    min_value: Optional[float] = None,
    max_cost: Optional[float] = None,
    epsilon: float = 1e-9,
    uniform_price: bool = False,
    pairs: Optional[PairChecks] = None,
) -> Fit:
    """Assign requests (given order) to offers (given order).

    ``taken_requests`` is shared across the clusters of a mini-auction so
    a request matched in one cluster is skipped in the next; capacity is
    likewise shared.  ``min_value``/``max_cost`` restrict admission to
    participants compatible with an already-determined clearing price.

    With ``uniform_price`` the fill maintains the invariant that every
    winner's value covers every used offer's cost (``min v_hat`` of
    winners >= ``max c_hat`` of used offers), so a single clearing price
    in ``[c_hat_z', v_hat_z]`` supports all trades — the assumption of
    the paper's IR proof (§IV-E).

    ``pairs`` is the enclosing clear's :class:`PairChecks`.
    """
    if pairs is None:
        pairs = PairChecks()
    # Everything the inner loop reads of an offer, extracted once per
    # call.  ``remaining`` is the capacity's own mutable row, so booking
    # a match below is :meth:`OfferCapacity.consume` and is seen by every
    # later fit that shares ``capacity``; ``None`` (an offer the capacity
    # never saw) hosts nothing, as in :meth:`OfferCapacity.can_host`.
    costs, values = economics.normalized_costs, economics.normalized_values
    rows = []
    for offer in offers:
        c_hat = costs[offer.offer_id]
        if not math.isfinite(c_hat):
            continue
        if max_cost is not None and c_hat > max_cost + epsilon:
            continue
        rows.append((
            c_hat, c_hat - epsilon, offer.span, offer.resources,
            capacity._remaining.get(offer.offer_id), offer,
        ))
    # The clear's pair tables, read in place; a pair the match stage
    # did not feed goes through the :class:`PairChecks` methods.
    amounts_of, fed = pairs.tables()
    matches = Fit()
    max_used_cost = -math.inf
    for request in requests:
        rid = request.request_id
        if rid in taken_requests:
            continue
        v_hat = values[rid]
        if min_value is not None and v_hat < min_value - epsilon:
            continue
        if uniform_price and v_hat < max_used_cost - epsilon:
            # Admitting this winner would push the price band below an
            # offer already in use; no common price could support both.
            continue
        amounts = amounts_of.get(rid) or pairs.amounts(request)
        best = fed.get(rid, {})
        duration = request.duration
        for c_hat, c_floor, span, resources, remaining, offer in rows:
            if v_hat < c_floor:
                # Offers are cost-ascending: no later offer can be
                # profitable either.
                break
            if remaining is None:
                continue
            # Const. (7) goes first: it is the check most pairs fail.  It
            # admits on the flexibility-discounted amount and books
            # min(request, offer) clamped at zero — the asymmetry of
            # ROADMAP item 2(b), kept bit for bit.
            # (``remaining`` has the offer's keys; min/max are spelt out.)
            time_share = duration / span
            for key, needed, _ in amounts:
                left = remaining.get(key)
                if left is not None and left + 1e-12 < time_share * needed:
                    break
            else:
                fraction = best.get(offer.offer_id)
                if fraction is None:  # not fed: the memoised scalar checks
                    if not pairs.feasible(request, offer):
                        continue
                    fraction = pairs.fraction(request, offer)
                # Const. (9): value covers the cost of the consumed
                # fraction.
                if request.bid < fraction * offer.bid - epsilon:
                    continue
                booked = []
                for key, _, amount in amounts:
                    held = resources.get(key)
                    if held is not None:
                        used = time_share * (held if held < amount else amount)
                        left = remaining[key] - used
                        remaining[key] = left if left > 0.0 else 0.0
                        booked.append((key, used))
                taken_requests.add(rid)
                matches.append((request, offer))
                matches.fractions.append(fraction)
                matches.booked.append(booked)
                if uniform_price and c_hat > max_used_cost:
                    max_used_cost = c_hat
                break
    return matches


def allocate_cluster(
    cluster: Cluster,
    requests: Sequence[Request],
    offers: Sequence[Offer],
    config: AuctionConfig,
    capacity: Optional[OfferCapacity] = None,
    taken_requests: Optional[Set[str]] = None,
    economics: Optional[ClusterEconomics] = None,
    pairs: Optional[PairChecks] = None,
) -> ClusterAllocation:
    """Greedy-fit one cluster and derive its z / z' / z'+1 indices.

    ``economics`` may be precomputed — the vectorized engine batches
    §IV-C over many clusters (``compute_economics_batch``) and passes
    each cluster's result in; it is bit-identical to computing here.
    """
    if economics is None:
        economics = compute_economics(list(requests), list(offers), config)
    if pairs is None:
        pairs = PairChecks()
    request_order = sorted_requests(requests, economics)
    offer_order = sorted_offers(offers, economics)
    tentative = capacity is None and taken_requests is None
    if capacity is None:
        capacity = OfferCapacity(offers)
    if taken_requests is None:
        taken_requests = set()

    fit = greedy_fit(
        request_order,
        offer_order,
        economics,
        capacity,
        taken_requests,
        epsilon=config.price_epsilon,
        uniform_price=config.enforce_price_consistency,
        pairs=pairs,
    )

    # A plain list: the fit's records stay on this side of a pool's
    # pickle boundary.
    allocation = ClusterAllocation(
        cluster=cluster,
        requests=request_order,
        offers=offer_order,
        economics=economics,
        matches=list(fit),
        rows_after_fit=capacity._remaining if tentative else None,
    )
    # pair_welfare(), with the Eq. (6) fraction Const. (9) tested.
    allocation.tentative_welfare = sum(
        r.bid - fraction * o.bid for (r, o), fraction in zip(fit, fit.fractions)
    )
    if fit:
        values, costs = economics.normalized_values, economics.normalized_costs
        allocation.v_z = min(values[r.request_id] for r, _ in fit)
        allocation.z_request = max(
            (r for r, _ in fit if values[r.request_id] == allocation.v_z),
            key=lambda r: (r.submit_time, r.request_id),
        )
        used_ids = {o.offer_id for _, o in fit}
        allocation.c_z = max(costs[offer_id] for offer_id in used_ids)
        allocation.z_plus_1_offer = next(
            (
                o
                for o in offer_order
                if o.offer_id not in used_ids
                and math.isfinite(costs[o.offer_id])
            ),
            None,
        )
        if allocation.z_plus_1_offer is not None:
            allocation.c_z_plus_1 = costs[allocation.z_plus_1_offer.offer_id]
    return allocation
