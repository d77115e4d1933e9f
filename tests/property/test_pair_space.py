"""The component-sparse, strip-bounded ``best_offer_sets`` against the
full-matrix ranking it replaced.

:func:`repro.core.matching_vectorized.best_offer_sets` scores only the
pairs inside one connected component of resource types, a strip of rows
at a time.  The ranking it replaced — score and mask the whole R x O
matrix, rank every row over every column — lives on *here only*, as the
oracle, beside the scalar ``best_offer_set``.  The markets are built to
hit what the decomposition could get wrong: disjoint type groups, a bid
that bridges two of them, requests whose types nobody offers, components
with fewer offers than ``breadth``, types declared at amount 0 (they
connect and can make a pair feasible without scoring anything), score
ties at the boundary, and a strip budget small enough that every strip
edge is crossed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.common.timewindow import TimeWindow
from repro.core import matching_vectorized
from repro.core.matching import best_offer_set, block_maxima
from repro.core.matching_vectorized import (
    BlockArrays,
    _bid_components,
    best_offer_sets,
    feasibility_matrix,
    score_matrix,
)
from repro.workloads.generators import generate_zone_market

from tests.conftest import make_offer, make_request

GROUPS = (("a1", "a2"), ("b1", "b2"), ("c1",))
#: declared by requests only: a component that holds no offer
UNOFFERED = "x1"


def _full_matrix_best_sets(requests, offers, maxima, breadth):
    """``best_r`` ranked over the whole R x O matrix (the oracle)."""
    if not offers:
        return [frozenset() for _ in requests]
    scores = score_matrix(requests, offers, maxima)
    feasible = feasibility_matrix(requests, offers)
    n_req, n_off = scores.shape
    if breadth >= n_off:
        contender = feasible
        boundary = np.full(n_req, np.inf)
    else:
        key = np.where(feasible, -scores, np.inf)
        boundary = np.partition(key, breadth - 1, axis=1)[:, breadth - 1]
        contender = (key <= boundary[:, None]) & feasible
    perm = np.array(
        sorted(
            range(n_off),
            key=lambda j: (offers[j].submit_time, offers[j].offer_id),
        )
    )
    rows, ranked_cols = np.nonzero(contender[:, perm])
    cols = perm[ranked_cols]
    chosen = -scores[rows, cols] < boundary[rows]
    places = np.minimum(breadth, np.bincount(rows, minlength=n_req))
    need = places - np.bincount(rows[chosen], minlength=n_req)
    ties = np.flatnonzero(~chosen)
    tie_rows = rows[ties]
    starts = np.searchsorted(tie_rows, np.arange(n_req))
    position = np.arange(len(ties)) - starts[tie_rows]
    chosen[ties[position < need[tie_rows]]] = True
    out = [[] for _ in requests]
    for i, j in zip(rows[chosen].tolist(), cols[chosen].tolist()):
        out[i].append(offers[j].offer_id)
    return [frozenset(members) for members in out]


def _scored_cells(monkeypatch):
    """Record the shape of every sub-block ``BlockArrays.score`` builds."""
    shapes = []
    real = BlockArrays.score

    def spy(self, rows, cols):
        shapes.append((len(rows), len(cols)))
        return real(self, rows, cols)

    monkeypatch.setattr(BlockArrays, "score", spy)
    return shapes


# Few distinct values, so equal scores at the boundary are common.
amounts = st.sampled_from([0.0, 1.0, 2.0, 4.0])
sigmas = st.sampled_from([0.5, 1.0])
windows = st.sampled_from([(0, 10), (0, 6), (2, 8)])


@st.composite
def _declared(draw, bridge):
    """The types one bid declares: a non-empty subset of one group, or —
    for a bridging bid — of two."""
    group = draw(st.sampled_from(GROUPS))
    types = set(draw(st.sets(st.sampled_from(group), min_size=1)))
    if bridge:
        other = draw(st.sampled_from(GROUPS))
        types.add(draw(st.sampled_from(other)))
    return sorted(types)


@st.composite
def grouped_markets(draw, max_requests=9, max_offers=9):
    """Markets over disjoint type groups; at most one bid bridges two."""
    n_req = draw(st.integers(0, max_requests))
    n_off = draw(st.integers(0, max_offers))
    bridge = draw(st.sampled_from(["none", "request", "offer"]))
    requests = []
    for i in range(n_req):
        if draw(st.integers(0, 7)) == 0:
            types = [UNOFFERED]
        else:
            types = draw(_declared(bridge == "request" and i == 0))
        start, end = draw(windows)
        requests.append(
            make_request(
                f"r{i}",
                submit_time=draw(st.sampled_from([0.0, 1.0])),
                resources={t: draw(amounts) for t in types},
                significance={t: draw(sigmas) for t in types},
                window=TimeWindow(start, end),
                duration=1.0,
                flexibility=draw(st.sampled_from([0.5, 1.0])),
            )
        )
    offers = []
    for j in range(n_off):
        types = draw(_declared(bridge == "offer" and j == 0))
        start, end = draw(windows)
        offers.append(
            make_offer(
                f"o{j}",
                submit_time=draw(st.sampled_from([0.0, 1.0])),
                resources={t: draw(amounts) for t in types},
                window=TimeWindow(start, end),
            )
        )
    return requests, offers


@settings(max_examples=300, deadline=None)
@given(
    grouped_markets(),
    st.integers(1, 4),
    st.sampled_from([1, 2, 3, 5, 7, 16, 40, 1 << 19]),
)
def test_component_strips_match_full_matrix_oracle(market, breadth, budget):
    requests, offers = market
    maxima = block_maxima(requests, offers)
    expected = _full_matrix_best_sets(requests, offers, maxima, breadth)
    assert expected == [
        best_offer_set(r, offers, maxima, breadth) for r in requests
    ]
    with mock.patch.object(matching_vectorized, "_STRIP_CELLS", budget):
        assert best_offer_sets(requests, offers, maxima, breadth) == expected


def _group_market(per_group=4, groups=("a", "b", "c")):
    requests, offers = [], []
    for g in groups:
        for i in range(per_group):
            requests.append(
                make_request(
                    f"r-{g}{i}",
                    submit_time=float(i),
                    resources={f"{g}1": 1.0 + i, f"{g}2": 2.0},
                )
            )
            offers.append(
                make_offer(
                    f"o-{g}{i}",
                    submit_time=float(i % 2),
                    resources={f"{g}1": 4.0 + i, f"{g}2": 8.0},
                )
            )
    return requests, offers


def test_disjoint_groups_score_only_their_own_pairs(monkeypatch):
    requests, offers = _group_market()
    maxima = block_maxima(requests, offers)
    expected = _full_matrix_best_sets(requests, offers, maxima, 2)
    shapes = _scored_cells(monkeypatch)
    assert best_offer_sets(requests, offers, maxima, 2) == expected
    assert sorted(shapes) == [(4, 4)] * 3  # 48 of the block's 144 pairs
    for request, best in zip(requests, expected):
        assert len(best) == 2
        assert {oid[2] for oid in best} == {request.request_id[2]}


@pytest.mark.parametrize("side", ["request", "offer"])
def test_a_bridging_bid_merges_two_components(side, monkeypatch):
    requests, offers = _group_market()
    if side == "request":
        requests.append(
            make_request(
                "r-bridge",
                resources={"a1": 1.0, "b2": 1.0},
                significance={"a1": 0.5, "b2": 0.5},
            )
        )
    else:
        offers.append(make_offer("o-bridge", resources={"a1": 9.0, "b2": 9.0}))
    maxima = block_maxima(requests, offers)
    req_label, off_label = _bid_components(
        BlockArrays(requests, offers, maxima)
    )
    # a and b are one component now, labelled by its smallest type id
    # ("a1" sorts first); c stays its own.
    assert len(set(req_label.tolist())) == 2
    assert set(req_label[:8].tolist()) == {0} == set(off_label[:8].tolist())
    shapes = _scored_cells(monkeypatch)
    best = best_offer_sets(requests, offers, maxima, 3)
    assert best == _full_matrix_best_sets(requests, offers, maxima, 3)
    assert best == [best_offer_set(r, offers, maxima, 3) for r in requests]
    merged = (9, 8) if side == "request" else (8, 9)
    assert sorted(shapes) == sorted([(4, 4), merged])
    if side == "request":
        # Flexible on both types, so offers of either group can host it.
        assert {oid[2] for oid in best[-1]} <= {"a", "b"} and best[-1]


def test_request_nobody_can_serve_gets_the_empty_set_without_a_matrix(
    monkeypatch,
):
    requests, offers = _group_market(groups=("a",))
    requests.insert(2, make_request("r-lonely", resources={"gpu": 1.0}))
    maxima = block_maxima(requests, offers)
    shapes = _scored_cells(monkeypatch)
    best = best_offer_sets(requests, offers, maxima, 2)
    assert best == _full_matrix_best_sets(requests, offers, maxima, 2)
    assert best[2] == frozenset()
    assert shapes == [(4, 4)]  # the lonely request was never scored


def test_component_with_fewer_offers_than_breadth():
    requests, offers = _group_market(per_group=3, groups=("a", "b"))
    offers = [o for o in offers if o.offer_id not in ("o-b0", "o-b1")]
    maxima = block_maxima(requests, offers)
    best = best_offer_sets(requests, offers, maxima, 3)
    assert best == _full_matrix_best_sets(requests, offers, maxima, 3)
    assert best == [best_offer_set(r, offers, maxima, 3) for r in requests]
    assert [len(b) for b in best] == [3, 3, 3, 1, 1, 1]


def test_zero_amount_declarations_connect_and_can_be_the_only_shared_type():
    """A type declared at amount 0 scores nothing, but it is a common
    type: it can make a pair feasible, so it must join components."""
    requests = [
        make_request(
            "r0",
            resources={"a1": 0.0, "b1": 1.0},
            significance={"a1": 1.0, "b1": 0.5},
        ),
        make_request("r1", resources={"b1": 1.0}),
    ]
    offers = [
        make_offer("o-a", resources={"a1": 3.0}),
        make_offer("o-b", resources={"b1": 3.0}),
        make_offer("o-zero", resources={"b1": 0.0, "c1": 2.0}),
    ]
    maxima = block_maxima(requests, offers)
    best = best_offer_sets(requests, offers, maxima, 3)
    assert best == _full_matrix_best_sets(requests, offers, maxima, 3)
    assert best == [best_offer_set(r, offers, maxima, 3) for r in requests]
    assert "o-a" in best[0]  # feasible through the zero-amount a1 alone
    req_label, off_label = _bid_components(
        BlockArrays(requests, offers, maxima)
    )
    assert len(set(req_label.tolist()) | set(off_label.tolist())) == 1


@pytest.mark.parametrize("strip_rows", [1, 2, 7])
def test_boundary_ties_on_both_sides_of_every_strip_edge(
    strip_rows, monkeypatch
):
    """Twenty identical requests over six offers that all score the same:
    the (submit_time, offer_id) fill must pick the same two offers for
    every row, whichever strip the row falls in."""
    requests = [
        make_request(f"r{i:02d}", resources={"cpu": 2.0, "ram": 4.0})
        for i in range(20)
    ]
    offers = [
        make_offer(
            f"o{j}",
            submit_time=float(j < 3),  # o3..o5 came first
            resources={"cpu": 8.0, "ram": 16.0},
        )
        for j in range(6)
    ]
    maxima = block_maxima(requests, offers)
    monkeypatch.setattr(
        matching_vectorized, "_STRIP_CELLS", strip_rows * len(offers)
    )
    shapes = _scored_cells(monkeypatch)
    best = best_offer_sets(requests, offers, maxima, 2)
    assert len(shapes) == -(-len(requests) // strip_rows)
    assert all(rows <= strip_rows for rows, _ in shapes)
    assert best == [frozenset({"o3", "o4"})] * len(requests)
    assert best == _full_matrix_best_sets(requests, offers, maxima, 2)


@pytest.mark.parametrize("locality", ["strong", "weak"])
def test_zone_market_matches_the_oracles(locality, monkeypatch):
    requests, offers = generate_zone_market(
        240, n_zones=6, seed=11, kind="network", locality=locality,
        cross_zone_fraction=0.05,
    )[:2]
    maxima = block_maxima(requests, offers)
    # Small enough that even one zone's 40-odd requests span strips.
    monkeypatch.setattr(matching_vectorized, "_STRIP_CELLS", 1 << 9)
    best = best_offer_sets(requests, offers, maxima, 3)
    assert best == _full_matrix_best_sets(requests, offers, maxima, 3)
    for i in range(0, len(requests), 7):
        assert best[i] == best_offer_set(requests[i], offers, maxima, 3)


def test_best_sets_do_not_depend_on_the_hash_seed():
    """Component labels come from sorted type ids, never from set or
    dict order: two interpreters with different string hashes agree."""
    code = (
        "from repro.core.matching import block_maxima\n"
        "from repro.core.matching_vectorized import best_offer_sets\n"
        "from repro.workloads.generators import generate_zone_market\n"
        "r, o = generate_zone_market(240, n_zones=6, seed=5, kind='network',"
        " locality='strong', cross_zone_fraction=0.05)[:2]\n"
        "for best in best_offer_sets(r, o, block_maxima(r, o), 3):\n"
        "    print(','.join(sorted(best)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 240
    assert any(outputs[0].splitlines())
