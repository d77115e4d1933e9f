"""Vectorized quality-of-match kernel (the fast path of Eq. 18).

The scalar reference in :mod:`repro.core.matching` walks every
(request, offer) pair in pure Python — O(R x O x K) interpreter work that
dominates block clearing from a few hundred participants up.  This module
computes the same quantities as NumPy array programs:

* :func:`score_matrix` — the full R x O quality-of-match matrix;
* :func:`feasibility_matrix` — the R x O hard-constraint mask
  (time-window containment, shared resource types, strict-resource
  presence, flexibility-discounted amounts);
* :func:`best_offer_sets` — every request's ``best_r`` of Alg. 2 for a
  block, scoring only pairs that can share a resource type;
* :class:`BlockArrays` — a block's bids read into flat arrays once,
  scored on any (requests x offers) subset: what the candidate stage
  (:mod:`repro.core.candidates`) scores its admitted groups with.

Everything here is a function of one block's bids: nothing is kept from
one block to the next.

Bit-identity contract
---------------------

Every float produced here is required to be *bit-identical* to the
scalar reference (``tests/differential/`` enforces it).  The kernel
therefore mirrors the reference's IEEE-754 operation order exactly:

* terms accumulate type-by-type in sorted resource-type order (one
  elementwise add per type), never via ``np.sum`` whose pairwise
  accumulation would round differently;
* each term is computed as ``(sigma * rho_o) / (gap * gap + 1.0)`` —
  the same multiply/divide sequence as the scalar code;
* each type touches only the sub-block (requests that declare it) x
  (offers that carry a non-zero amount of it), so a block costs
  ``sum_t R_t * O_t`` element operations rather than ``K * R * O``.
  The pairs a type skips are exactly those whose term the reference
  either never adds (the request does not declare the type, so it is
  outside ``K_(r,o)``) or adds as ``sigma * 0 / (gap^2 + 1) = +0.0``
  (the offer lacks the type or declares it at amount 0).  ``Request``/
  ``Offer`` construction validates ``sigma`` in (0, 1] and finite
  non-negative amounts, so that quotient is an exact ``+0.0``, and adding
  ``+0.0`` is the identity on the non-negative running sum: skipping it
  cannot move a bit, and the types a pair does accumulate still arrive in
  sorted order.  Which pairs a type touches depends only on the block's
  declaration pattern; a type every request declares and every offer
  carries is one in-place pass over the whole matrix.

The pair space
--------------

:func:`best_offer_sets` never forms the R x O matrix.  Resource types
are arbitrary strings (§II-C), and a pair with no common type is
infeasible (Eq. 18 is undefined on it), so the block splits into the
connected components of its types under "some bid declares both"
(:func:`_bid_components`): each bid's types lie in exactly one
component, and a request and an offer from different components share
no type.  Each component's requests are ranked against that
component's offers only, in row strips of at most ``_STRIP_CELLS``
cells.  The sets cannot differ from a ranking over the full matrix:

* a cross-component pair is infeasible, and ``best_r`` holds feasible
  offers only, so no skipped pair is a member of any set or displaces
  one; a request whose component holds no offer has no feasible offer
  at all and gets the empty set;
* the kernels are elementwise per pair, so the floats of a
  (strip x component offers) sub-block equal that slice of the full
  matrices (:class:`BlockArrays` carries the argument down to the
  subset's own type universe);
* a row's boundary score, its contenders and the
  (submit_time, offer_id) fill of its boundary ties read only that
  row's feasible columns — all inside its component, listed there in
  the same relative tie order as in the whole block — so where a strip
  or a component ends cannot reach them.

A block whose bids all share types (one machine taxonomy, a
weak-locality market) is one component and stays quadratic in time;
the strips still bound its memory.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.market.bids import Offer, Request


def _type_universe(
    requests: Sequence[Request], offers: Sequence[Offer]
) -> List[str]:
    """Sorted union of every resource type in the block."""
    types = set()
    for request in requests:
        types.update(request.resources)
    for offer in offers:
        types.update(offer.resources)
    return sorted(types)


class _Entries:
    """One side of a block as flat CSR rows: per bid, its declared
    ``(type id, amount[, sigma])`` entries, read off the bids in one pass.

    Type ids index the sorted ``types``, so ascending id *is* sorted-type
    order.  Dense tensors for any subset of the bids are scattered from
    these rows, so a bid's resource dict is walked once per block however
    many subsets it is scored in, and memory stays O(entries) where a
    dense bids x types tensor would grow with the number of zones.
    """

    def __init__(
        self, bids: Sequence, types: List[str], sigma: bool = False
    ) -> None:
        index = {t: k for k, t in enumerate(types)}
        self.bids = bids
        self.ptr = np.zeros(len(bids) + 1, dtype=np.intp)
        self.ptr[1:] = np.cumsum([len(b.resources) for b in bids])
        self.type = np.array(
            [index[t] for b in bids for t in b.resources], dtype=np.intp
        )
        self.amount = np.array(
            [a for b in bids for a in b.resources.values()], dtype=float
        )
        self.win_start = np.array([b.window.start for b in bids], dtype=float)
        self.win_end = np.array([b.window.end for b in bids], dtype=float)
        if sigma:  # the request side
            self.sigma = np.array(
                [b.significance[t] for b in bids for t in b.resources],
                dtype=float,
            )
            # required_amount(): strict resources need the full amount,
            # flexible ones ``amount * flexibility`` (same float multiply
            # as the scalar code).
            flex = np.array([b.flexibility for b in bids], dtype=float)
            self.needed = np.where(
                self.sigma >= 1.0,
                self.amount,
                self.amount * np.repeat(flex, np.diff(self.ptr)),
            )

    # Read by the back half only, so the match stage does not pay for them.
    @cached_property
    def bid(self) -> np.ndarray:
        return np.array([b.bid for b in self.bids], dtype=float)

    @cached_property
    def duration(self) -> np.ndarray:
        return np.array([b.duration for b in self.bids], dtype=float)

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(local row, entry position)`` of every entry of bids ``rows``."""
        starts = self.ptr[rows]
        counts = self.ptr[rows + 1] - starts
        shift = np.cumsum(counts) - counts - starts
        return (
            np.repeat(np.arange(len(rows)), counts),
            np.arange(counts.sum()) - np.repeat(shift, counts),
        )

    def by_type(self, start: int, stop: int):
        """Yield ``(type id, local rows, entry positions)`` per distinct
        type the bids ``start..stop`` declare, in ascending type order."""
        lo = self.ptr[start]
        types = self.type[lo : self.ptr[stop]]
        local = np.repeat(
            np.arange(stop - start), np.diff(self.ptr[start : stop + 1])
        )
        order = np.argsort(types, kind="stable")
        cuts = np.flatnonzero(np.diff(types[order])) + 1
        for part in np.split(order, cuts):
            if len(part):
                yield int(types[part[0]]), local[part], part + lo


class _OfferArrays:
    """Column-aligned per-offer tensors over a type universe."""

    _sigma = False

    def __init__(self, bids: Sequence, types: List[str]) -> None:
        entries = _Entries(bids, types, sigma=self._sigma)
        rows = np.arange(len(bids))
        self._fill(entries, rows, entries.gather(rows), np.arange(len(types)))

    @classmethod
    def of(cls, entries: _Entries, rows, gathered, universe: np.ndarray):
        """Tensors of bids ``rows`` (``gathered`` from ``entries``) over
        the sorted type ids ``universe``, which must cover every type
        those bids declare."""
        self = object.__new__(cls)
        self._fill(entries, rows, gathered, universe)
        return self

    def _fill(self, entries, rows, gathered, universe):
        local, pos = gathered
        cells = (local, np.searchsorted(universe, entries.type[pos]))
        shape = (len(rows), len(universe))
        self.amount = np.zeros(shape)
        self.amount[cells] = entries.amount[pos]
        self.present = np.zeros(shape, dtype=bool)
        self.present[cells] = True
        self.win_start = entries.win_start[rows]
        self.win_end = entries.win_end[rows]
        return cells, pos


class _RequestArrays(_OfferArrays):
    """Column-aligned per-request tensors over a type universe."""

    _sigma = True

    def _fill(self, entries, rows, gathered, universe):
        cells, pos = super()._fill(entries, rows, gathered, universe)
        self.sigma = np.ones(self.amount.shape)
        self.sigma[cells] = entries.sigma[pos]
        self.strict = self.sigma >= 1.0
        self.needed = np.zeros(self.amount.shape)
        self.needed[cells] = entries.needed[pos]
        self.positive = self.amount > 0
        return cells, pos


def _score_from_arrays(
    req: _RequestArrays,
    off: _OfferArrays,
    types: List[str],
    maxima: Dict[str, float],
) -> np.ndarray:
    """Eq. (18) for all pairs, accumulated in sorted-type order."""
    n_req, n_off = req.amount.shape[0], off.amount.shape[0]
    scores = np.zeros((n_req, n_off))
    # Two reusable scratch buffers shared across all types, viewed at
    # each type's sub-block shape: ``gap`` is squared and offset in place
    # to become the denominator and the numerator is divided in place.
    # Reuse keeps the kernel from allocating two temporaries per type,
    # and only the pages a sub-block reaches are ever touched.
    gap_buf = np.empty(n_req * n_off)
    term_buf = np.empty(n_req * n_off)
    for col, t in enumerate(types):
        top = maxima.get(t, 0.0)
        if top <= 0:
            continue
        # Everything outside this sub-block is outside K_(r,o) or adds
        # an exact +0.0 (see the module docstring).
        rows = np.flatnonzero(req.present[:, col])
        cols = np.flatnonzero(off.amount[:, col] > 0)
        size = len(rows) * len(cols)
        if not size:
            continue
        gap = gap_buf[:size].reshape(len(rows), len(cols))
        term = term_buf[:size].reshape(len(rows), len(cols))
        rho_o = off.amount[cols, col] / top
        rho_r = req.amount[rows, col] / top
        np.subtract(rho_o[None, :], rho_r[:, None], out=gap)
        np.multiply(gap, gap, out=gap)
        np.add(gap, 1.0, out=gap)
        np.multiply(req.sigma[rows, col][:, None], rho_o[None, :], out=term)
        np.divide(term, gap, out=term)
        if size == scores.size:
            np.add(scores, term, out=scores)
        else:
            scores[np.ix_(rows, cols)] += term
    return scores


def _feasibility_from_arrays(
    req: _RequestArrays, off: _OfferArrays
) -> np.ndarray:
    """Hard-constraint mask for all pairs (mirrors ``is_feasible``)."""
    n_req = req.amount.shape[0]
    n_off = off.amount.shape[0]
    if n_req == 0 or n_off == 0:
        return np.zeros((n_req, n_off), dtype=bool)

    # Constraints (10)-(11): the offer window contains the request window.
    feasible = (off.win_start[None, :] <= req.win_start[:, None]) & (
        off.win_end[None, :] >= req.win_end[:, None]
    )

    # The resource constraints only ever look at a type both sides
    # declare, so each type visits the sub-block (requests declaring it)
    # x (offers declaring it, at any amount).  There it clears the pairs
    # whose offer falls short of the flexibility-discounted requirement
    # (constraint (8b)) and counts, per pair, the types that ``counted``
    # marks: a request's strict, positive-amount types — the offer must
    # have every one of them (constraint (8a)), which also gives the pair
    # a shared type — or, for a request with no such type, every type it
    # declares, of which the offer must have at least one (else Eq. 18
    # is undefined).  Pure boolean/integer logic, so the mask is
    # trivially identical to a pass over every type for every pair.
    strict_demand = req.present & req.strict & req.positive
    wanted = strict_demand.sum(axis=1)
    counted = np.where((wanted > 0)[:, None], strict_demand, req.present)
    n_types = req.amount.shape[1]
    met = np.zeros((n_req, n_off), dtype=np.min_scalar_type(n_types))
    for col in range(n_types):
        rows = np.flatnonzero(req.present[:, col])
        cols = np.flatnonzero(off.present[:, col])
        size = len(rows) * len(cols)
        if not size:
            continue
        block = ... if size == met.size else np.ix_(rows, cols)
        short = (
            off.amount[cols, col][None, :] < req.needed[rows, col][:, None]
        ) & req.positive[rows, col][:, None]
        feasible[block] &= ~short
        met[block] += counted[rows, col][:, None]
    feasible &= met >= np.maximum(wanted, 1).astype(met.dtype)[:, None]
    return feasible


class BlockArrays:
    """A block's bids as CSR entries, built once; :meth:`score` runs the
    kernels on any subset of them.

    The tensors :meth:`score` hands the kernels span exactly the types
    the subset's own bids declare, in sorted order — element for element
    the arrays ``_RequestArrays(subset, _type_universe(subset))`` would
    build by walking the bids again, so the floats are bit-identical to
    the corresponding slice of the full matrices.
    """

    def __init__(
        self,
        requests: Sequence[Request],
        offers: Sequence[Offer],
        maxima: Dict[str, float],
    ) -> None:
        self.types = _type_universe(requests, offers)
        self.maxima = maxima
        self.req = _Entries(requests, self.types, sigma=True)
        self.off = _Entries(offers, self.types)

    # bid id -> CSR row: how the back half finds a cluster's bids (built
    # when it first asks; the match stage goes by position).
    @cached_property
    def req_row(self) -> Dict[str, int]:
        return {r.request_id: i for i, r in enumerate(self.req.bids)}

    @cached_property
    def off_row(self) -> Dict[str, int]:
        return {o.offer_id: j for j, o in enumerate(self.off.bids)}

    def score(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact (scores, feasible) of request ``rows`` x offer ``cols``."""
        of_rows, of_cols = self.req.gather(rows), self.off.gather(cols)
        universe = np.union1d(
            self.req.type[of_rows[1]], self.off.type[of_cols[1]]
        )
        req = _RequestArrays.of(self.req, rows, of_rows, universe)
        off = _OfferArrays.of(self.off, cols, of_cols, universe)
        types = [self.types[k] for k in universe.tolist()]
        return (
            _score_from_arrays(req, off, types, self.maxima),
            _feasibility_from_arrays(req, off),
        )


def segment_sums(
    values: np.ndarray, segment: np.ndarray, n_segments: int
) -> np.ndarray:
    """Per-segment sums of ``values``, each accumulated in input order:
    ``np.bincount`` with weights is one sequential C loop,
    ``out[segment[i]] += values[i]`` from ``0.0``, so a segment whose
    terms stand in sorted-type order gets the scalar ``sum()`` over
    sorted types bit for bit (``np.sum``/``np.add.reduceat`` pair terms
    up).  The ``float.hex`` property suites pin the order."""
    return np.bincount(segment, weights=values, minlength=n_segments)


def locate(sorted_keys: np.ndarray, keys: np.ndarray):
    """``(position, found)`` of each of ``keys`` in ``sorted_keys``
    (non-empty); where not found the position is some valid index."""
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return at, sorted_keys[at] == keys


def score_matrix(
    requests: Sequence[Request],
    offers: Sequence[Offer],
    maxima: Dict[str, float],
) -> np.ndarray:
    """Quality-of-match of every (request, offer) pair, bit-identical to
    :func:`repro.core.matching.quality_of_match`."""
    types = _type_universe(requests, offers)
    return _score_from_arrays(
        _RequestArrays(requests, types), _OfferArrays(offers, types),
        types, maxima,
    )


def feasibility_matrix(
    requests: Sequence[Request], offers: Sequence[Offer]
) -> np.ndarray:
    """Boolean mask equal to ``is_feasible`` on every pair."""
    types = _type_universe(requests, offers)
    return _feasibility_from_arrays(
        _RequestArrays(requests, types), _OfferArrays(offers, types)
    )


#: Most (request, offer) cells :func:`best_offer_sets` scores and ranks
#: at once: a component is walked in strips of this many cells, so peak
#: memory is a handful of strip-sized temporaries (4 MiB per float64
#: one) however large the block.  Budgets of 2**18..2**20 measure alike;
#: from 2**21 up the temporaries fall out of cache (+20-40 %).
_STRIP_CELLS = 1 << 19


def tie_order(offers: Sequence[Offer]) -> List[int]:
    """Offer positions in ascending (submit_time, offer_id) — the §IV-D
    tie rule's order."""
    return sorted(
        range(len(offers)),
        key=lambda j: (offers[j].submit_time, offers[j].offer_id),
    )


def _rank_members(
    scores: np.ndarray, feasible: np.ndarray, breadth: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(row, column)`` of every member of every row's ``best_r``.

    The columns must already stand in (submit_time, offer_id) order.
    ``best_r`` is a *set*, so the reference's full sort by
    (-quality, submit_time, offer_id) reduces to top-``breadth``
    membership: ``np.partition`` yields each row's boundary value (its
    ``breadth``-th smallest key = -score; ``inf`` with fewer feasible
    offers), and only the *contenders* — feasible pairs at or below
    the boundary — can be members.  Everything after that is sparse:
    contenders strictly below the boundary are in, and the ties *at*
    it fill the remaining places in column order, which ``np.nonzero``'s
    row-major output lists in exactly the order the tie rule admits.
    """
    n_req, n_off = scores.shape
    if breadth >= n_off:
        contender = feasible
        boundary = np.full(n_req, np.inf)
    else:
        key = np.where(feasible, -scores, np.inf)
        boundary = np.partition(key, breadth - 1, axis=1)[:, breadth - 1]
        contender = (key <= boundary[:, None]) & feasible
    rows, cols = np.nonzero(contender)
    chosen = -scores[rows, cols] < boundary[rows]
    places = np.minimum(breadth, np.bincount(rows, minlength=n_req))
    need = places - np.bincount(rows[chosen], minlength=n_req)
    ties = np.flatnonzero(~chosen)
    tie_rows = rows[ties]
    starts = np.searchsorted(tie_rows, np.arange(n_req))
    position = np.arange(len(ties)) - starts[tie_rows]
    chosen[ties[position < need[tie_rows]]] = True
    return rows[chosen], cols[chosen]


def _bid_components(block: BlockArrays) -> Tuple[np.ndarray, np.ndarray]:
    """Per request and per offer, the label of the connected component
    of resource types (under "some bid declares both") its types lie in.

    Union-find over the distinct (a bid's first type, each of its types)
    edges: which entry a bid lists first only picks the star that spans
    its types, never what ends up connected, and a component's label is
    its smallest sorted-type id — a function of the block's declaration
    pattern alone, not of dict or hash order.
    """
    n_types = len(block.types)
    parent = list(range(n_types))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    sides = (block.req, block.off)
    # Every bid declares at least one type (``validate_vector``), so
    # ``ptr[:-1]`` is each bid's first entry.
    firsts = [side.type[side.ptr[:-1]] for side in sides]
    edges = np.unique(
        np.concatenate(
            [
                np.repeat(first, np.diff(side.ptr)) * n_types + side.type
                for first, side in zip(firsts, sides)
            ]
        )
    )
    for a, b in zip((edges // n_types).tolist(), (edges % n_types).tolist()):
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
    label = np.array([find(k) for k in range(n_types)], dtype=np.intp)
    return label[firsts[0]], label[firsts[1]]


def _group_by_label(
    order: np.ndarray, labels: np.ndarray
) -> Dict[int, np.ndarray]:
    """The bids ``order`` (non-empty) split by ``labels``, each group in
    ``order``'s own sequence, groups in ascending label."""
    order = order[np.argsort(labels[order], kind="stable")]
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return {int(labels[part[0]]): part for part in np.split(order, cuts)}


def best_offer_sets(
    requests: Sequence[Request],
    offers: Sequence[Offer],
    maxima: Dict[str, float],
    breadth: int,
    block: "BlockArrays | None" = None,
) -> List[frozenset]:
    """``best_r`` of Alg. 2 for every request of a block (``block``:
    the same bids' arrays, if the caller has built them).

    Equivalent to ``best_offer_set(r, offers, maxima, breadth)`` per
    request: feasible offers ranked by (-quality, submit_time, offer_id).
    Only pairs inside one connected component of resource types are ever
    scored, in row strips of at most ``_STRIP_CELLS`` cells (see the
    module docstring for why neither can move a set).
    """
    if not (requests and offers):
        return [frozenset() for _ in requests]
    out: List[List[str]] = [[] for _ in requests]
    if block is None:
        block = BlockArrays(requests, offers, maxima)
    req_label, off_label = _bid_components(block)
    # Offers are grouped in tie order, so every strip's columns already
    # stand the way ``_rank_members`` needs them.
    offer_groups = _group_by_label(
        np.array(tie_order(offers), dtype=np.intp), off_label
    )
    for label, rows in _group_by_label(
        np.arange(len(requests)), req_label
    ).items():
        cols = offer_groups.get(label)
        if cols is None:
            continue  # nobody offers any type these requests declare
        step = max(1, _STRIP_CELLS // len(cols))
        for lo in range(0, len(rows), step):
            strip = rows[lo : lo + step]
            in_row, in_col = _rank_members(*block.score(strip, cols), breadth)
            for i, j in zip(strip[in_row].tolist(), cols[in_col].tolist()):
                out[i].append(offers[j].offer_id)
    return [frozenset(members) for members in out]
