"""The type-sparse match kernel against the K-pass formulation it replaced.

:mod:`repro.core.matching_vectorized` visits, per resource type, only
the sub-block (requests declaring it) x (offers carrying it).  The
formulation it replaced made one full R x O pass per type of the block's
type universe; it lives on *here only*, as the oracle.  The markets mix
every declaration pattern the choice between sub-block and full pass
depends on: types declared by all / some / one / no request, offers
carrying a type at amount 0, ``sigma < 1``, a type missing from
``maxima``, and empty sides.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import best_offer_set, block_maxima
from repro.core.matching_vectorized import (
    _OfferArrays,
    _RequestArrays,
    _type_universe,
    best_offer_sets,
    feasibility_matrix,
    score_matrix,
)
from repro.common.timewindow import TimeWindow
from repro.market.feasibility import is_feasible

from tests.conftest import make_offer, make_request

TYPES = ("all", "some", "one", "none", "zero")


def _kpass_scores(requests, offers, maxima) -> np.ndarray:
    """Eq. (18) with one masked full-matrix pass per type (the oracle)."""
    types = _type_universe(requests, offers)
    req = _RequestArrays(requests, types)
    off = _OfferArrays(offers, types)
    scores = np.zeros((len(requests), len(offers)))
    for col, t in enumerate(types):
        top = maxima.get(t, 0.0)
        if top <= 0:
            continue
        rho_o = off.amount[:, col] / top
        rho_r = req.amount[:, col] / top
        gap = rho_o[None, :] - rho_r[:, None]
        term = (req.sigma[:, col][:, None] * rho_o[None, :]) / (gap * gap + 1.0)
        np.add(scores, term, out=scores, where=req.present[:, col][:, None])
    return scores


def _kpass_feasible(requests, offers) -> np.ndarray:
    """``is_feasible`` with one full-matrix pass per type (the oracle)."""
    types = _type_universe(requests, offers)
    req = _RequestArrays(requests, types)
    off = _OfferArrays(offers, types)
    n_req, n_off = len(requests), len(offers)
    if n_req == 0 or n_off == 0:
        return np.zeros((n_req, n_off), dtype=bool)
    temporal = (off.win_start[None, :] <= req.win_start[:, None]) & (
        off.win_end[None, :] >= req.win_end[:, None]
    )
    req_present = req.present.astype(np.float64)
    off_present = off.present.astype(np.float64)
    shared = (req_present @ off_present.T) > 0
    strict_demand = (req.present & req.strict & req.positive).astype(np.float64)
    strict_missing = (strict_demand @ (1.0 - off_present).T) > 0
    violated = np.zeros((n_req, n_off), dtype=bool)
    for col in range(len(types)):
        short = off.amount[:, col][None, :] < req.needed[:, col][:, None]
        relevant = req.positive[:, col][:, None] & off.present[:, col][None, :]
        violated |= short & relevant
    return temporal & shared & ~strict_missing & ~violated


amounts = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.5])
sigmas = st.sampled_from([0.25, 0.5, 1.0])
windows = st.sampled_from([(0, 10), (0, 6), (2, 8), (4, 10)])


@st.composite
def patterned_markets(draw, max_requests=7, max_offers=7):
    """Markets over :data:`TYPES`: every request declares ``all``, a
    drawn subset declares ``some``, request 0 alone declares ``one``,
    nobody declares ``none``; offers carry any subset, ``zero`` always at
    amount 0."""
    requests = []
    for i in range(draw(st.integers(0, max_requests))):
        declared = {"all"}
        if draw(st.booleans()):
            declared.add("some")
        if i == 0:
            declared.add("one")
        if draw(st.booleans()):
            declared.add("zero")
        resources = {t: draw(amounts) for t in sorted(declared)}
        start, end = draw(windows)
        requests.append(
            make_request(
                f"r{i}",
                submit_time=draw(st.sampled_from([0.0, 1.0])),
                resources=resources,
                significance={t: draw(sigmas) for t in resources},
                window=TimeWindow(start, end),
                duration=1.0,
                flexibility=draw(st.sampled_from([0.5, 1.0])),
            )
        )
    offers = []
    for j in range(draw(st.integers(0, max_offers))):
        carried = draw(
            st.sets(st.sampled_from(TYPES), min_size=1).map(sorted)
        )
        resources = {
            t: 0.0 if t == "zero" else draw(amounts) for t in carried
        }
        start, end = draw(windows)
        offers.append(
            make_offer(
                f"o{j}",
                submit_time=draw(st.sampled_from([0.0, 1.0])),
                resources=resources,
                window=TimeWindow(start, end),
            )
        )
    return requests, offers


@settings(max_examples=300, deadline=None)
@given(patterned_markets(), st.sampled_from(TYPES + (None,)), st.integers(1, 4))
def test_sparse_kernel_matches_kpass_oracle(market, dropped, breadth):
    requests, offers = market
    maxima = block_maxima(requests, offers)
    maxima.pop(dropped, None)  # a type absent from ``maxima`` scores nothing

    scores = score_matrix(requests, offers, maxima)
    feasible = feasibility_matrix(requests, offers)
    assert scores.tobytes() == _kpass_scores(requests, offers, maxima).tobytes()
    assert np.array_equal(feasible, _kpass_feasible(requests, offers))
    assert feasible.tolist() == [
        [is_feasible(r, o) for o in offers] for r in requests
    ]
    assert best_offer_sets(requests, offers, maxima, breadth) == [
        best_offer_set(r, offers, maxima, breadth) for r in requests
    ]


def test_full_pass_and_sub_block_agree_on_the_same_pairs():
    """Adding one request that skips a type flips that type from the full
    in-place pass to the sub-block path; the other rows cannot move."""
    requests = [
        make_request(f"r{i}", resources={"cpu": 1.0 + i, "ram": 2.0})
        for i in range(4)
    ]
    offers = [
        make_offer(f"o{j}", resources={"cpu": 2.0 + j, "ram": 4.0})
        for j in range(5)
    ]
    odd = make_request("odd", resources={"ram": 1.0})
    maxima = block_maxima(requests + [odd], offers)
    dense = score_matrix(requests, offers, maxima)
    mixed = score_matrix(requests + [odd], offers, maxima)
    assert mixed[:4].tobytes() == dense.tobytes()
    assert (
        mixed.tobytes()
        == _kpass_scores(requests + [odd], offers, maxima).tobytes()
    )
