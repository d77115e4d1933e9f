"""The hoisted ``greedy_fit`` against the per-pair loop it replaced.

:func:`repro.core.cluster_allocation.greedy_fit` extracts each offer's
``(c_hat, span, resources, remaining)`` row once per call, reads each
request's required amounts from the clear's ``PairChecks`` and tests
Const. (7) before the memoised feasibility check.  The loop it replaced
called ``OfferCapacity.can_host`` / ``consume``, ``required_amount``,
``Offer.span`` and ``Request.sigma`` once per pair; it lives on *here
only*, as the oracle.  The markets cover what the two loops could
disagree on: flexible and strict requests (``can_host`` admits on the
discounted amount, ``consume`` books the full one — ROADMAP item 2(b),
reproduced, not fixed), capacity and ``taken`` shared across a chain of
fits, ``min_value`` / ``max_cost`` bands, ``uniform_price``, shuffled
offer orders, unpriceable offers, and offers the capacity only learns
of after construction (or never).
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.timewindow import TimeWindow
from repro.core.cluster_allocation import (
    OfferCapacity,
    PairChecks,
    greedy_fit,
    sorted_offers,
    sorted_requests,
)
from repro.core.normalization import ClusterEconomics

from tests.conftest import make_offer, make_request


def _per_pair_greedy_fit(
    requests, offers, economics, capacity, taken_requests,
    min_value=None, max_cost=None, epsilon=1e-9, uniform_price=False,
    pairs=None,
):
    """``greedy_fit`` as it stood before the loop was hoisted."""
    if pairs is None:
        pairs = PairChecks()
    matches = []
    max_used_cost = -math.inf
    for request in requests:
        if request.request_id in taken_requests:
            continue
        v_hat = economics.v_hat(request.request_id)
        if min_value is not None and v_hat < min_value - epsilon:
            continue
        if uniform_price and v_hat < max_used_cost - epsilon:
            continue
        for offer in offers:
            c_hat = economics.c_hat(offer.offer_id)
            if not math.isfinite(c_hat):
                continue
            if max_cost is not None and c_hat > max_cost + epsilon:
                continue
            if v_hat < c_hat - epsilon:
                break
            if not pairs.feasible(request, offer):
                continue
            if not capacity.can_host(request, offer):
                continue
            if request.bid < pairs.fraction(request, offer) * offer.bid - epsilon:
                continue
            capacity.consume(request, offer)
            taken_requests.add(request.request_id)
            matches.append((request, offer))
            if uniform_price:
                max_used_cost = max(max_used_cost, c_hat)
            break
    return matches


TYPES = ("cpu", "ram", "gpu")
request_amounts = st.sampled_from([0.0, 1.0, 2.0, 3.0, 8.0])
offer_amounts = st.sampled_from([0.0, 2.0, 4.0, 8.0])
unit_prices = st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0])


@st.composite
def _requests(draw):
    out = []
    for i in range(draw(st.integers(1, 7))):
        types = draw(
            st.lists(st.sampled_from(TYPES), min_size=1, max_size=3, unique=True)
        )
        out.append(
            make_request(
                request_id=f"r{i}",
                submit_time=float(draw(st.integers(0, 3))),
                resources={t: draw(request_amounts) for t in types},
                significance={
                    t: draw(st.sampled_from([0.5, 1.0])) for t in types
                },
                flexibility=draw(st.sampled_from([0.25, 0.5, 1.0])),
                window=TimeWindow(*draw(st.sampled_from([(0, 10), (2, 8)]))),
                duration=draw(st.sampled_from([2.0, 4.0, 6.0])),
                bid=draw(st.sampled_from([0.0, 1.0, 4.0, 9.0])),
            )
        )
    return out


@st.composite
def _offers(draw):
    out = []
    for j in range(draw(st.integers(1, 5))):
        types = draw(
            st.lists(st.sampled_from(TYPES), min_size=1, max_size=3, unique=True)
        )
        out.append(
            make_offer(
                offer_id=f"o{j}",
                submit_time=float(draw(st.integers(0, 3))),
                resources={t: draw(offer_amounts) for t in types},
                window=TimeWindow(*draw(st.sampled_from([(0, 10), (0, 24)]))),
                bid=draw(st.sampled_from([0.0, 0.5, 2.0])),
            )
        )
    return out


def _subsets(bids, min_size=0):
    return st.lists(st.sampled_from(bids), min_size=min_size, unique_by=id)


@st.composite
def _fit_chains(draw):
    """A market, drawn economics and a chain of fits sharing one capacity
    and one ``taken`` set — a mini-auction's clusters in miniature."""
    requests, offers = draw(_requests()), draw(_offers())
    economics = ClusterEconomics(
        common_types=frozenset(TYPES),
        virtual_maximum={},
        nu_offers={},
        nu_requests={},
        normalized_costs={
            o.offer_id: draw(st.one_of(unit_prices, st.just(math.inf)))
            for o in offers
        },
        normalized_values={r.request_id: draw(unit_prices) for r in requests},
    )
    known = draw(st.integers(0, len(offers)))
    fits = []
    for _ in range(draw(st.integers(1, 3))):
        members = draw(_subsets(requests, min_size=1))
        machines = draw(_subsets(offers, min_size=1))
        fits.append(
            {
                "requests": sorted_requests(members, economics),
                "offers": (
                    sorted_offers(machines, economics)
                    if draw(st.booleans())
                    else machines  # the randomized re-draw's shuffled order
                ),
                "late": draw(_subsets(offers)),
                "kwargs": {
                    "min_value": draw(st.one_of(st.none(), unit_prices)),
                    "max_cost": draw(st.one_of(st.none(), unit_prices)),
                    "uniform_price": draw(st.booleans()),
                    "epsilon": draw(st.sampled_from([1e-9, 0.5])),
                },
            }
        )
    return economics, offers[:known], fits, draw(st.integers(0, 2**16))


def _run_chain(fit, economics, initial, fits, seed):
    capacity, taken, pairs = OfferCapacity(initial), set(), PairChecks()
    rng = random.Random(seed)
    history = []
    for step in fits:
        for offer in step["late"]:  # offers added after construction
            capacity.add_offer(offer)
        matches = fit(
            step["requests"], step["offers"], economics,
            capacity, taken, pairs=pairs, **step["kwargs"],
        )
        # _final_fit's re-draw hands some capacity back between fits.
        for request, offer in matches:
            if rng.random() < 0.3:
                taken.discard(request.request_id)
                capacity.restore(offer, request)
        history.append([(r.request_id, o.offer_id) for r, o in matches])
    books = {oid: capacity.remaining(oid) for oid in sorted(capacity._remaining)}
    return history, sorted(taken), books


@settings(max_examples=300, deadline=None)
@given(_fit_chains())
def test_hoisted_fit_equals_the_per_pair_loop(chain):
    assert _run_chain(greedy_fit, *chain) == _run_chain(
        _per_pair_greedy_fit, *chain
    )
