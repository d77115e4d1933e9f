"""Pluggable candidate generation in front of the matcher.

The §IV-B gravity quality-of-match is an all-pairs request x offer
computation — vectorized, but O(R x O) in time and memory, which walls
block clearing off from six-figure bid counts.  This module puts a
*candidate-generation* stage in front of the ranking: every request is
matched only against a provably sufficient subset of the offers, and the
pruning is certified.

Safety model
------------

A request's ``best_r`` (Alg. 2) is the top-``breadth`` feasible offers
under the §IV-D total order ``(-quality, submit_time, offer_id)``.
Scores are computed pairwise-elementwise in both engines, so restricting
the ranking to any *superset of the true best set* yields bit-identical
sets, clusters and outcomes.  A pruned (request, offer) pair is safe
exactly when it provably cannot enter the best set:

* **window screen** — every offer in the pruned group fails the
  temporal containment of constraints (10)-(11) (the group's window
  hull cannot cover the request window);
* **resource screen** — a strictly-required, positive-amount resource
  exceeds the group's per-type maximum, so every offer in the group is
  infeasible under constraint (8);
* **score bound** — the group's quality-of-match upper bound
  ``UB(r, g) = sum_k sigma_(r,k) * max_(o in g) rho'_(o,k)`` is
  *strictly* below the request's ``breadth``-th best feasible score
  among admitted offers.  Each exact Eq. (18) term is
  ``(sigma * rho'_o) / (gap^2 + 1)`` with denominator >= 1, and IEEE-754
  multiplication/division/addition are monotone, so the bound — when
  accumulated in the same sorted-type order as the kernel — dominates
  every admitted-precision score in the group.  Strict ``<`` means ties
  on score (which the §IV-D rule breaks by submission time and id)
  are never pruned.

Every generator emits a per-request :class:`SafetyCertificate` recording
the admitted offers, the pruning threshold (the ``breadth``-th best
feasible rank key), and each pruned group with its reason and claimed
bound.  :func:`check_certificate` replays the certificate against the
*scalar* reference kernel — an independent oracle from the vectorized
scorer — and rejects any certificate whose pruned pairs could have
entered the best set (``tests/property/test_candidate_safety.py`` proves
the checker catches a deliberately over-pruning generator).

Generators
----------

* :class:`ResourceVectorGenerator` — offers sorted by normalized
  magnitude and sliced into sqrt-sized groups; examination order is the
  per-request score bound itself (pure top-k pruning, §IV-B's gravity
  means large offers are screened first).
* :class:`GeoBucketGenerator` — grid cells over
  :class:`~repro.market.location.GeoLocation` with neighbour-ring
  examination order, wrapped at the ±180° antimeridian.
* :class:`NetworkZoneGenerator` — zone-prefix buckets over
  :class:`~repro.market.location.NetworkLocation` hierarchies, examined
  by hop distance of the shared prefix.
* :class:`AllPairsGenerator` — one group holding every offer (the exact
  path expressed through the candidate machinery; mostly a test aid).

All grouping strategies share the same certified admission loop, so
they differ only in pruning *effectiveness*, never in outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import CertificateError, ValidationError
from repro.market.bids import Offer, Request
from repro.market.feasibility import is_feasible
from repro.market.location import (
    GeoLocation,
    NetworkLocation,
    grid_cell,
    grid_columns,
    zone_prefix,
)
from repro.core.matching import quality_of_match
from repro.core.matching_vectorized import BlockArrays, tie_order

#: Resolution codes of the (request, group) state matrix.
UNRESOLVED = 0
PRUNED_WINDOW = 1
PRUNED_RESOURCE = 2
PRUNED_SCORE = 3
ADMITTED = 4

REASON_NAMES = {
    PRUNED_WINDOW: "window",
    PRUNED_RESOURCE: "resource",
    PRUNED_SCORE: "score-bound",
}


def tie_rank_key(
    request: Request, offer: Offer, maxima: Dict[str, float]
) -> Tuple[float, float, str]:
    """The §IV-D total order as a comparable key (smaller = better)."""
    return (
        -quality_of_match(request, offer, maxima),
        offer.submit_time,
        offer.offer_id,
    )


@dataclass
class SafetyCertificate:
    """Machine-checkable proof that pruning could not change ``best_r``.

    ``threshold`` is the ``breadth``-th best feasible rank key
    ``(score, submit_time, offer_id)`` among the admitted offers (None
    when fewer than ``breadth`` feasible offers were admitted — in which
    case no score-bound pruning may have happened).  ``pruned_groups``
    / ``reasons`` / ``bounds`` are parallel arrays over the pruned
    groups; the group id indexes the generating
    :class:`CandidateResult`'s shared partition.
    """

    request_id: str
    breadth: int
    admitted_groups: np.ndarray
    pruned_groups: np.ndarray
    reasons: np.ndarray
    bounds: np.ndarray
    threshold: Optional[Tuple[float, float, str]]

    def to_payload(self, groups: List[np.ndarray]) -> Dict:
        """Canonical JSON-ready form (floats as ``hex()``) for equality
        and determinism assertions."""
        threshold = None
        if self.threshold is not None:
            score, submit, offer_id = self.threshold
            threshold = [float(score).hex(), float(submit).hex(), offer_id]
        return {
            "request_id": self.request_id,
            "breadth": self.breadth,
            "admitted": sorted(
                int(j) for g in self.admitted_groups for j in groups[g]
            ),
            "threshold": threshold,
            "pruned": [
                {
                    "offers": sorted(int(j) for j in groups[g]),
                    "reason": REASON_NAMES[int(reason)],
                    "bound": float(bound).hex()
                    if int(reason) == PRUNED_SCORE
                    else None,
                }
                for g, reason, bound in sorted(
                    zip(
                        self.pruned_groups.tolist(),
                        self.reasons.tolist(),
                        self.bounds.tolist(),
                    )
                )
            ],
        }


@dataclass
class CandidateResult:
    """Output of one :meth:`CandidateGenerator.generate` call."""

    groups: List[np.ndarray]
    best_sets: List[frozenset]
    certificates: List[SafetyCertificate]
    stats: Dict[str, int] = field(default_factory=dict)
    #: the block's arrays, as read for the screens (the clear reuses them)
    block: Optional[BlockArrays] = None

    def candidate_indices(self, i: int) -> np.ndarray:
        """Sorted offer indices admitted for the ``i``-th request."""
        certificate = self.certificates[i]
        if not len(certificate.admitted_groups):
            return np.empty(0, dtype=np.int64)
        return np.sort(
            np.concatenate(
                [self.groups[g] for g in certificate.admitted_groups]
            )
        )


def check_certificate(
    request: Request,
    offers: Sequence[Offer],
    maxima: Dict[str, float],
    certificate: SafetyCertificate,
    groups: List[np.ndarray],
) -> int:
    """Replay one certificate against the scalar reference kernel.

    Raises :class:`~repro.common.errors.CertificateError` when the
    certificate does not actually prove safety; returns the number of
    individual pair checks performed.  The checker recomputes every
    pruned pair's exact feasibility/score with
    :func:`~repro.core.matching.quality_of_match` — deliberately *not*
    the vectorized scorer the generator used — so a buggy or adversarial
    generator cannot vouch for itself.
    """
    checks = 0
    admitted = {
        int(j) for g in certificate.admitted_groups for j in groups[g]
    }
    pruned = {int(j) for g in certificate.pruned_groups for j in groups[g]}
    if admitted & pruned:
        raise CertificateError(
            f"{certificate.request_id}: offers both admitted and pruned: "
            f"{sorted(admitted & pruned)[:5]}"
        )
    if admitted | pruned != set(range(len(offers))):
        missing = set(range(len(offers))) - admitted - pruned
        raise CertificateError(
            f"{certificate.request_id}: certificate does not cover offers "
            f"{sorted(missing)[:5]}"
        )

    # The recorded threshold must be the breadth-th best feasible rank
    # key among the admitted offers (recomputed from scratch).
    feasible_keys = sorted(
        tie_rank_key(request, offers[j], maxima)
        for j in admitted
        if is_feasible(request, offers[j])
    )
    checks += len(admitted)
    expected = None
    if len(feasible_keys) >= certificate.breadth:
        neg_score, submit, offer_id = feasible_keys[certificate.breadth - 1]
        expected = (-neg_score, submit, offer_id)
    if certificate.threshold != expected:
        raise CertificateError(
            f"{certificate.request_id}: recorded threshold "
            f"{certificate.threshold!r} != recomputed {expected!r}"
        )

    for g, reason, bound in zip(
        certificate.pruned_groups.tolist(),
        certificate.reasons.tolist(),
        certificate.bounds.tolist(),
    ):
        for j in groups[g].tolist():
            offer = offers[j]
            checks += 1
            if reason in (PRUNED_WINDOW, PRUNED_RESOURCE):
                if is_feasible(request, offer):
                    raise CertificateError(
                        f"{certificate.request_id}: offer "
                        f"{offer.offer_id} pruned as infeasible "
                        f"({REASON_NAMES[reason]}) but is feasible"
                    )
                continue
            if reason != PRUNED_SCORE:
                raise CertificateError(
                    f"{certificate.request_id}: unknown prune reason "
                    f"{reason!r} for group {g}"
                )
            if expected is None:
                raise CertificateError(
                    f"{certificate.request_id}: score-bound pruning with "
                    f"fewer than breadth={certificate.breadth} feasible "
                    "admitted offers"
                )
            score = quality_of_match(request, offer, maxima)
            if not (score <= bound):
                raise CertificateError(
                    f"{certificate.request_id}: claimed bound "
                    f"{bound!r} does not dominate exact score {score!r} "
                    f"of pruned offer {offer.offer_id}"
                )
            if not (bound < expected[0]):
                raise CertificateError(
                    f"{certificate.request_id}: bound {bound!r} is not "
                    f"strictly below threshold score {expected[0]!r} "
                    f"(offer {offer.offer_id})"
                )
    return checks


class _GroupStats:
    """Per-group screening statistics, one column per type of the
    block's universe, reduced from the block's offer entries."""

    def __init__(self, groups: List[np.ndarray], block: BlockArrays) -> None:
        off = block.off
        self.raw_max = np.zeros((len(groups), len(block.types)))
        self.win_start_min = np.empty(len(groups))
        self.win_end_max = np.empty(len(groups))
        for g, indices in enumerate(groups):
            _, pos = off.gather(indices)
            np.maximum.at(self.raw_max[g], off.type[pos], off.amount[pos])
            self.win_start_min[g] = off.win_start[indices].min()
            self.win_end_max[g] = off.win_end[indices].max()


class CandidateGenerator:
    """Base class: the certified bucketed admission loop.

    Subclasses define the offer partition (:meth:`_group_offers`) and
    the per-request examination order (:meth:`_priority_rows`); the base
    class owns screening, top-k admission, certificates and stats, so
    every strategy inherits the same safety argument.
    """

    def __init__(self, *, verify: str = "off", chunk_size: int = 2048) -> None:
        if verify not in ("off", "sample", "full"):
            raise ValidationError(
                f"verify must be 'off', 'sample' or 'full', got {verify!r}"
            )
        if chunk_size < 1:
            raise ValidationError("chunk_size must be >= 1")
        self.verify = verify
        self.chunk_size = chunk_size
        #: Stats of the most recent :meth:`generate` call (the auction
        #: reads these into the ``candidate_*`` metrics).
        self.last_stats: Dict[str, int] = {}

    # -- strategy hooks -------------------------------------------------

    def _group_offers(
        self, offers: Sequence[Offer]
    ) -> List[Tuple[object, np.ndarray]]:
        raise NotImplementedError

    def _priority_rows(
        self,
        requests: Sequence[Request],
        keys: List[object],
        ub: np.ndarray,
    ) -> np.ndarray:
        """Examination order (smaller = earlier); default: best score
        bound first, which is pure top-k pruning."""
        return -ub

    @staticmethod
    def _spread_rows(
        priority: np.ndarray,
        requests: Sequence[Request],
        label_of: Callable[[Optional[str]], object],
        row_of: Callable[[object], Sequence[float]],
    ) -> np.ndarray:
        """Overwrite the rows of located requests with their label's
        examination order: ``label_of`` runs once per distinct location
        tag and ``row_of`` once per distinct label (zone, cell); a
        ``None`` label keeps the row's bound-descending order."""
        labels = {tag: label_of(tag) for tag in {r.location for r in requests}}
        members: Dict[object, List[int]] = {}
        for local, request in enumerate(requests):
            label = labels[request.location]
            if label is not None:
                members.setdefault(label, []).append(local)
        for label, rows in members.items():
            priority[rows] = row_of(label)
        return priority

    # -- the certified admission loop -----------------------------------

    def generate(
        self,
        requests: Sequence[Request],
        offers: Sequence[Offer],
        maxima: Dict[str, float],
        breadth: int,
    ) -> CandidateResult:
        # The block's tensors are built here once; screens, group
        # statistics and ``block.score`` all read index subsets.
        block = BlockArrays(requests, offers, maxima)
        grouped = [
            (key, np.asarray(indices, dtype=np.int64))
            for key, indices in self._group_offers(offers)
            if len(indices)
        ]
        keys = [key for key, _ in grouped]
        groups = [indices for _, indices in grouped]
        n_groups = len(groups)
        group_sizes = np.array(
            [len(g) for g in groups], dtype=np.int64
        )
        stats = {
            "requests": len(requests),
            "offers": len(offers),
            "groups": n_groups,
            "pairs_total": len(requests) * len(offers),
            "pairs_admitted": 0,
            "pairs_pruned_score": 0,
            "pairs_pruned_window": 0,
            "pairs_pruned_resource": 0,
            "rounds": 0,
            "certificate_checks": 0,
        }
        group_stats = _GroupStats(groups, block)

        pair_rows: List[np.ndarray] = []
        pair_cols: List[np.ndarray] = []
        pair_scores: List[np.ndarray] = []
        certificates: List[SafetyCertificate] = []

        for start in range(0, len(requests), self.chunk_size):
            chunk = list(requests[start : start + self.chunk_size])
            reason, bounds = self._resolve_chunk(
                chunk, start, block, groups, keys, group_stats,
                group_sizes, breadth, stats,
                pair_rows, pair_cols, pair_scores,
            )
            # One mask pass per chunk; np.nonzero and boolean indexing
            # both walk row-major, so each request's certificate is a
            # run of the same flat arrays.
            admitted = reason == ADMITTED
            pruned = ~admitted & (reason != UNRESOLVED)
            admitted_groups = np.nonzero(admitted)[1]
            pruned_groups = np.nonzero(pruned)[1]
            reasons, pruned_bounds = reason[pruned], bounds[pruned]
            a0 = p0 = 0
            for request, a1, p1 in zip(
                chunk,
                np.cumsum(admitted.sum(axis=1)).tolist(),
                np.cumsum(pruned.sum(axis=1)).tolist(),
            ):
                certificates.append(SafetyCertificate(
                    request_id=request.request_id,
                    breadth=breadth,
                    admitted_groups=admitted_groups[a0:a1],
                    pruned_groups=pruned_groups[p0:p1],
                    reasons=reasons[p0:p1],
                    bounds=pruned_bounds[p0:p1],
                    threshold=None,
                ))
                a0, p0 = a1, p1

        best_sets, thresholds = self._rank_admitted(
            requests, offers, breadth,
            pair_rows, pair_cols, pair_scores,
        )
        for certificate, threshold in zip(certificates, thresholds):
            certificate.threshold = threshold

        result = CandidateResult(
            groups=groups,
            best_sets=best_sets,
            certificates=certificates,
            stats=stats,
            block=block,
        )
        if self.verify != "off":
            stride = 1 if self.verify == "full" else 16
            for i in range(0, len(requests), stride):
                stats["certificate_checks"] += check_certificate(
                    requests[i], offers, maxima, certificates[i], groups
                )
        self.last_stats = stats
        return result

    def _resolve_chunk(
        self,
        chunk: List[Request],
        chunk_start: int,
        block: BlockArrays,
        groups: List[np.ndarray],
        keys: List[object],
        group_stats: _GroupStats,
        group_sizes: np.ndarray,
        breadth: int,
        stats: Dict[str, int],
        pair_rows: List[np.ndarray],
        pair_cols: List[np.ndarray],
        pair_scores: List[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Screen + admit one chunk; returns the (R_c, G) reason and
        score-bound matrices, and appends the chunk's contending pairs
        (see :meth:`_rank_admitted`) to the ``pair_*`` lists."""
        n_req, n_groups = len(chunk), len(groups)
        reason = np.zeros((n_req, n_groups), dtype=np.int8)
        ub = np.zeros((n_req, n_groups))
        req = block.req
        in_chunk = slice(chunk_start, chunk_start + n_req)

        # Feasibility screens: window hull, then strict per-type maxima.
        window_pruned = (
            group_stats.win_start_min[None, :] > req.win_start[in_chunk, None]
        ) | (group_stats.win_end_max[None, :] < req.win_end[in_chunk, None])
        reason[window_pruned] = PRUNED_WINDOW

        # One (rows_t, G) pass per type over the requests that declare
        # it, instead of a dense (R, K, G) broadcast.  The score upper
        # bound accumulates in sorted-type order so IEEE monotonicity
        # makes it dominate every exact Eq. (18) score.
        for t, rows, pos in req.by_type(chunk_start, chunk_start + n_req):
            raw = group_stats.raw_max[:, t]
            amount, sigma = req.amount[pos], req.sigma[pos]
            strict = (sigma >= 1.0) & (amount > 0)
            if strict.any():
                short = raw[None, :] < amount[strict][:, None]
                sub = reason[rows[strict]]
                sub[short & (sub == UNRESOLVED)] = PRUNED_RESOURCE
                reason[rows[strict]] = sub
            top = block.maxima.get(block.types[t], 0.0)
            if top > 0:
                ub[rows] += sigma[:, None] * (raw / top)[None, :]

        priority = np.asarray(
            self._priority_rows(chunk, keys, ub), dtype=np.float64
        )
        order = np.argsort(priority, axis=1, kind="stable")
        pointer = np.zeros(n_req, dtype=np.int64)
        topk = np.full((n_req, breadth), -math.inf)
        scored: List[Tuple[np.ndarray, ...]] = []
        batch = 1
        while True:
            threshold = topk[:, breadth - 1]
            score_pruned = (reason == UNRESOLVED) & (
                ub < threshold[:, None]
            )
            reason[score_pruned] = PRUNED_SCORE
            active = np.nonzero((reason == UNRESOLVED).any(axis=1))[0]
            if not len(active):
                break
            stats["rounds"] += 1
            by_group: Dict[int, List[int]] = {}
            for row in active.tolist():
                taken = 0
                p = pointer[row]
                while p < n_groups and taken < batch:
                    g = order[row, p]
                    if reason[row, g] == UNRESOLVED:
                        reason[row, g] = ADMITTED
                        by_group.setdefault(int(g), []).append(row)
                        taken += 1
                    p += 1
                pointer[row] = p
            for g in sorted(by_group):
                rows = np.array(by_group[g], dtype=np.int64)
                scores, feasible = block.score(
                    rows + chunk_start, groups[g]
                )
                ranked = np.where(feasible, scores, -math.inf)
                merged = np.concatenate([topk[rows], ranked], axis=1)
                merged.partition(merged.shape[1] - breadth, axis=1)
                topk[rows] = merged[:, -breadth:][:, ::-1]
                # A request's ``breadth``-th best only ever rises, so a
                # pair below it now is below the final one: only pairs
                # at or above the running value are kept for ranking.
                hit, col = np.nonzero(
                    feasible & (scores >= topk[rows, breadth - 1][:, None])
                )
                scored.append((rows[hit], groups[g][col], scores[hit, col]))
            batch = min(batch * 2, n_groups)

        if scored:
            # ``topk`` is final: a feasible pair scoring strictly below
            # its request's ``breadth``-th best ranks after ``breadth``
            # others whatever the tie rule says, so only pairs at or
            # above that score go on to the global ranking.
            rows, cols, scores = (
                np.concatenate(part) for part in zip(*scored)
            )
            contender = scores >= topk[rows, breadth - 1]
            pair_rows.append(rows[contender] + chunk_start)
            pair_cols.append(cols[contender])
            pair_scores.append(scores[contender])

        for code, name in (
            (ADMITTED, "pairs_admitted"),
            (PRUNED_SCORE, "pairs_pruned_score"),
            (PRUNED_WINDOW, "pairs_pruned_window"),
            (PRUNED_RESOURCE, "pairs_pruned_resource"),
        ):
            stats[name] += int(
                (group_sizes[None, :] * (reason == code)).sum()
            )
        return reason, ub

    def _rank_admitted(
        self,
        requests: Sequence[Request],
        offers: Sequence[Offer],
        breadth: int,
        pair_rows: List[np.ndarray],
        pair_cols: List[np.ndarray],
        pair_scores: List[np.ndarray],
    ) -> Tuple[List[frozenset], List[Optional[Tuple[float, float, str]]]]:
        """Rank every request's contending pairs under the §IV-D tie rule.

        One global lexsort over the flattened pairs replaces a
        per-request sort: pairs order by (request, -score, offer rank)
        where the offer rank encodes ``(submit_time, offer_id)``.  The
        pairs are each request's admitted feasible pairs at or above its
        ``breadth``-th best score — every member of ``best_r``, the
        threshold pair, and all their score ties, which this sort
        resolves exactly as it would among all admitted pairs.
        """
        best_sets: List[frozenset] = [frozenset() for _ in requests]
        thresholds: List[Optional[Tuple[float, float, str]]] = [
            None for _ in requests
        ]
        if not pair_rows:
            return best_sets, thresholds
        rows = np.concatenate(pair_rows)
        cols = np.concatenate(pair_cols)
        scores = np.concatenate(pair_scores)

        rank = np.empty(len(offers), dtype=np.int64)
        rank[tie_order(offers)] = np.arange(len(offers))

        order = np.lexsort((rank[cols], -scores, rows))
        rows, cols, scores = rows[order], cols[order], scores[order]

        starts = np.searchsorted(rows, np.arange(len(requests)))
        ends = np.searchsorted(rows, np.arange(len(requests)), side="right")
        for i in range(len(requests)):
            lo, hi = int(starts[i]), int(ends[i])
            if lo == hi:
                continue
            take = min(breadth, hi - lo)
            best_sets[i] = frozenset(
                offers[j].offer_id for j in cols[lo : lo + take].tolist()
            )
            if hi - lo >= breadth:
                j = int(cols[lo + breadth - 1])
                thresholds[i] = (
                    float(scores[lo + breadth - 1]),
                    offers[j].submit_time,
                    offers[j].offer_id,
                )
        return best_sets, thresholds


class AllPairsGenerator(CandidateGenerator):
    """Every offer in one group — the exact path, expressed as a
    (trivially certified) candidate stage."""

    def _group_offers(self, offers):
        return [("all", np.arange(len(offers), dtype=np.int64))]


class ResourceVectorGenerator(CandidateGenerator):
    """Offers sorted by normalized magnitude, sliced into sqrt-sized
    groups; the default bound-descending order makes this pure top-k
    best-offer pruning with per-type maxima screens."""

    def __init__(
        self, group_size: Optional[int] = None, **kwargs
    ) -> None:
        super().__init__(**kwargs)
        if group_size is not None and group_size < 1:
            raise ValidationError("group_size must be >= 1")
        self.group_size = group_size

    def _group_offers(self, offers):
        if not offers:
            return []
        size = self.group_size or max(16, int(math.isqrt(len(offers))))
        magnitude = {
            offer.offer_id: sum(offer.resources.values())
            for offer in offers
        }
        ordered = sorted(
            range(len(offers)),
            key=lambda j: (-magnitude[offers[j].offer_id], offers[j].offer_id),
        )
        return [
            (g, np.array(ordered[lo : lo + size], dtype=np.int64))
            for g, lo in enumerate(range(0, len(ordered), size))
        ]


class GeoBucketGenerator(CandidateGenerator):
    """Grid-cell buckets over geo locations with neighbour-ring order.

    ``locations`` maps bid location *tags* to
    :class:`~repro.market.location.GeoLocation`; offers without a
    resolvable geo location fall into a single fallback bucket that is
    always examined first (it cannot be distance-pruned, only
    score-bound pruned like any other group).  The grid wraps at the
    ±180° antimeridian: cells at +179.9° and -179.9° are ring-1
    neighbours.
    """

    FALLBACK = None

    def __init__(
        self,
        locations: Dict[str, GeoLocation],
        cell_deg: float = 15.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.locations = dict(locations)
        self.cell_deg = float(cell_deg)
        grid_columns(self.cell_deg)  # validates the cell size

    def _resolve(self, tag: Optional[str]) -> Optional[GeoLocation]:
        location = self.locations.get(tag or "")
        return location if isinstance(location, GeoLocation) else None

    def _group_offers(self, offers):
        buckets: Dict[object, List[int]] = {}
        for j, offer in enumerate(offers):
            location = self._resolve(offer.location)
            key = (
                grid_cell(location, self.cell_deg)
                if location is not None
                else self.FALLBACK
            )
            buckets.setdefault(key, []).append(j)
        ordered = sorted(
            (key for key in buckets if key is not None)
        ) + ([self.FALLBACK] if self.FALLBACK in buckets else [])
        return [
            (key, np.array(buckets[key], dtype=np.int64)) for key in ordered
        ]

    def _priority_rows(self, requests, keys, ub):
        n_cols = grid_columns(self.cell_deg)
        located = np.array([key is not None for key in keys], dtype=bool)
        if not located.any():
            return -ub
        cell_rows = np.array([key[0] for key in keys if key is not None])
        cell_cols = np.array([key[1] for key in keys if key is not None])

        def cell_of(tag):
            location = self._resolve(tag)
            if location is None:
                return None  # keep the bound-descending fallback order
            return grid_cell(location, self.cell_deg)

        def rings(cell):
            row = np.full(len(keys), -1.0)  # the fallback bucket goes first
            d_col = np.abs(cell_cols - cell[1])
            row[located] = np.maximum(
                np.abs(cell_rows - cell[0]), np.minimum(d_col, n_cols - d_col)
            )
            return row

        return self._spread_rows(-ub, requests, cell_of, rings)


class NetworkZoneGenerator(CandidateGenerator):
    """Zone-prefix buckets over hierarchical network locations.

    Offers bucket by the first ``depth`` zone segments (zones shorter
    than ``depth`` bucket by their whole name); a request examines
    buckets by descending shared-prefix length with its own zone — the
    hop-count order of :meth:`NetworkLocation.hops_to` restricted to
    prefixes.  When no ``locations`` map is given, the bid's location
    tag is interpreted as the zone itself.
    """

    FALLBACK = None

    def __init__(
        self,
        locations: Optional[Dict[str, NetworkLocation]] = None,
        depth: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if depth < 1:
            raise ValidationError("depth must be >= 1")
        self.locations = dict(locations) if locations is not None else None
        self.depth = depth

    def _resolve(self, tag: Optional[str]) -> Optional[str]:
        if not tag:
            return None
        if self.locations is not None:
            location = self.locations.get(tag)
            return (
                location.zone
                if isinstance(location, NetworkLocation)
                else None
            )
        try:
            return NetworkLocation(tag).zone
        except ValidationError:
            return None

    def _group_offers(self, offers):
        def bucket_of(tag):
            zone = self._resolve(tag)
            if zone is None:
                return self.FALLBACK
            return zone_prefix(zone, self.depth)

        keys = {tag: bucket_of(tag) for tag in {o.location for o in offers}}
        buckets: Dict[object, List[int]] = {}
        for j, offer in enumerate(offers):
            buckets.setdefault(keys[offer.location], []).append(j)
        ordered = sorted(
            (key for key in buckets if key is not None)
        ) + ([self.FALLBACK] if self.FALLBACK in buckets else [])
        return [
            (key, np.array(buckets[key], dtype=np.int64)) for key in ordered
        ]

    def _priority_rows(self, requests, keys, ub):
        prefix_parts = [
            key.split("/") if key is not None else None for key in keys
        ]

        def hops(zone):
            mine = zone.split("/")
            row = []
            for parts in prefix_parts:
                if parts is None:
                    row.append(-1.0)
                    continue
                common = 0
                for a, b in zip(mine, parts):
                    if a != b:
                        break
                    common += 1
                row.append(float(self.depth - common))
            return row

        return self._spread_rows(-ub, requests, self._resolve, hops)
