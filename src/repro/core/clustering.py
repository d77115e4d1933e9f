"""Cluster formation (paper Alg. 2).

A *cluster* is a set of offers plus the set of requests for which those
offers are (a subset of) their best matches.  Alg. 2 maintains the
invariant that requests propagate into clusters whose offer sets are
subsets of their best-offer set, and intersection clusters are created so
that requests agreeing on part of their best offers still compete in one
mini-auction.

:func:`build_clusters` opens the round's ``match`` and ``cluster`` phase
spans on the tracer it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.config import AuctionConfig
from repro.core.matching import best_offer_set, block_maxima
from repro.core.matching_vectorized import BlockArrays, best_offer_sets
from repro.market.bids import Offer, Request
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


@dataclass
class Cluster:
    """A set of offer ids and the request ids grouped onto them."""

    offer_ids: frozenset
    request_ids: Set[str] = field(default_factory=set)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(offers={sorted(self.offer_ids)}, "
            f"requests={sorted(self.request_ids)})"
        )


def update_clusters(
    clusters: List[Cluster], request_id: str, best: frozenset
) -> None:
    """Insert one request's best-offer set into the cluster structure.

    Direct transcription of Alg. 2:

    * ensure a cluster keyed exactly by ``best`` exists;
    * add the request to every cluster whose offers are a subset of
      ``best`` (they are competing for the same machines);
    * fold superset clusters' requests into those subsets (their requests
      can also be served by the narrower offer set);
    * for partially-overlapping clusters, materialize the intersection
      (when it still contains more than one offer) as its own cluster.
    """
    if not best:
        return
    if not any(cluster.offer_ids == best for cluster in clusters):
        clusters.append(Cluster(offer_ids=best))

    subsets = [c for c in clusters if c.offer_ids <= best]
    supersets = [c for c in clusters if best <= c.offer_ids]
    for subset in subsets:
        subset.request_ids.add(request_id)
        for superset in supersets:
            if superset is subset:
                continue
            subset.request_ids |= superset.request_ids

    for cluster in list(clusters):
        if cluster.offer_ids == best:
            continue
        intersection = cluster.offer_ids & best
        if len(intersection) > 1 and intersection != cluster.offer_ids:
            existing = next(
                (c for c in clusters if c.offer_ids == intersection), None
            )
            if existing is None:
                clusters.append(
                    Cluster(
                        offer_ids=frozenset(intersection),
                        request_ids={request_id} | set(cluster.request_ids),
                    )
                )
            else:
                existing.request_ids.add(request_id)


class _IndexedClusters:
    """Inverted-index Alg. 2 builder, exactly equivalent to repeated
    :func:`update_clusters` calls.

    The reference insertion scans the whole cluster list per request —
    O(C) per insert and quadratic over a block, which dominates once
    candidate generation makes the matching itself sub-quadratic.  Every
    cluster affected by an insertion (subset, superset, or >1-offer
    intersection of ``best``) shares at least one offer with ``best``,
    so posting lists by offer id find the exact candidate set; a
    by-offer-set map replaces the linear ``existing`` lookups.  Append
    order, request-set contents and object shapes match the reference
    builder exactly (``tests/test_clustering_indexed.py``).
    """

    def __init__(self) -> None:
        self.clusters: List[Cluster] = []
        self._by_key: Dict[frozenset, int] = {}
        self._by_offer: Dict[str, List[int]] = {}
        #: Per distinct ``best``, the clusters a repeat of it adds its
        #: request to (see :meth:`insert`); dropped by every `_append`.
        self._plans: Dict[frozenset, List[int]] = {}
        self.plans_reused = 0

    def _append(self, cluster: Cluster) -> None:
        position = len(self.clusters)
        self.clusters.append(cluster)
        self._by_key[cluster.offer_ids] = position
        for offer_id in cluster.offer_ids:
            self._by_offer.setdefault(offer_id, []).append(position)
        self._plans.clear()

    def insert(self, request_id: str, best: frozenset) -> None:
        if not best:
            return
        clusters = self.clusters
        plan = self._plans.get(best)
        if plan is not None:
            self.plans_reused += 1
            for p in plan:
                clusters[p].request_ids.add(request_id)
            return
        if best not in self._by_key:
            self._append(Cluster(offer_ids=best))
        best_position = self._by_key[best]
        touched = sorted(
            {
                position
                for offer_id in best
                for position in self._by_offer.get(offer_id, ())
            }
        )
        subsets = [p for p in touched if clusters[p].offer_ids <= best]
        supersets = [p for p in touched if best <= clusters[p].offer_ids]

        # The reference folds every superset's requests into every
        # subset (skipping the one cluster that is both — ``best``
        # itself).  Strict supersets are never mutated in that loop, so
        # the fold is order-insensitive given the pre-insert snapshots.
        best_snapshot = set(clusters[best_position].request_ids)
        strict_union: Set[str] = set()
        for p in supersets:
            if p != best_position:
                strict_union |= clusters[p].request_ids
        for p in subsets:
            cluster = clusters[p]
            cluster.request_ids.add(request_id)
            cluster.request_ids |= strict_union
            if p != best_position:
                cluster.request_ids |= best_snapshot

        # Intersection materialization: the reference iterates a
        # snapshot of the cluster list (clusters appended below are not
        # revisited) but resolves ``existing`` against the live list.
        size = len(clusters)
        for p in touched:
            cluster = clusters[p]
            if cluster.offer_ids == best:
                continue
            intersection = cluster.offer_ids & best
            if len(intersection) > 1 and intersection != cluster.offer_ids:
                existing = self._by_key.get(intersection)
                if existing is None:
                    self._append(
                        Cluster(
                            offer_ids=frozenset(intersection),
                            request_ids={request_id}
                            | set(cluster.request_ids),
                        )
                    )
                else:
                    clusters[existing].request_ids.add(request_id)
        if len(clusters) == size:
            # Nothing was appended: a repeat of ``best`` meets the same
            # subsets, and intersections that all exist (each of them a
            # subset).  Its folds add nothing either — a cluster only
            # gains requests as a subset of some ``best``, and then all
            # its subsets gain the same ones, so until the next append
            # every subset here already holds what its supersets hold.
            self._plans[best] = subsets


def build_clusters(
    requests: Sequence[Request],
    offers: Sequence[Offer],
    config: AuctionConfig,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
    feed: Optional[Callable[[BlockArrays, List[frozenset]], None]] = None,
) -> tuple[List[Cluster], List[Request]]:
    """Run Alg. 2 over a block.

    Returns the cluster list and the requests that found no feasible
    offer at all (they are unmatched before the auction even starts).
    Requests are processed in submission order so the structure — like
    everything else in the mechanism — cannot be gamed by delaying.

    ``config.engine`` picks how the per-request best-offer sets are
    computed: the scalar reference, or the batched NumPy kernel
    (:func:`~repro.core.matching_vectorized.best_offer_sets`).
    ``config.candidates`` optionally puts a certified
    candidate-generation stage in front of either engine (see
    :mod:`repro.core.candidates`).  All paths produce bit-identical
    sets, so the cluster structure is engine- and candidate-invariant.

    ``tracer`` (optional) records the ``match`` (best-offer sets) and
    ``cluster`` (Alg. 2 insertion) phases as sibling spans.

    ``feed`` (the enclosing clear's
    :meth:`~repro.core.cluster_allocation.PairChecks.feed`) is handed
    the block's :class:`BlockArrays` — read once, here or by the
    candidate stage — and the best-offer sets, one per request in
    submission order, when the vectorized engine built them.
    """
    with tracer.span("match"):
        maxima = block_maxima(requests, offers)
        ordered = sorted(
            requests, key=lambda r: (r.submit_time, r.request_id)
        )
        block = None
        if config.candidates is not None and offers:
            best_sets, block = _candidate_best_sets(
                ordered, offers, maxima, config
            )
        elif config.engine == "vectorized":
            if ordered and offers:
                block = BlockArrays(ordered, offers, maxima)
            best_sets = best_offer_sets(
                ordered, offers, maxima, config.cluster_breadth, block
            )
        else:
            best_sets = [
                best_offer_set(
                    request, offers, maxima, config.cluster_breadth
                )
                for request in ordered
            ]
        if feed is not None and block is not None:
            feed(block, best_sets)
    with tracer.span("cluster"):
        builder = _IndexedClusters()
        orphans: List[Request] = []
        for request, best in zip(ordered, best_sets):
            if not best:
                orphans.append(request)
                continue
            builder.insert(request.request_id, best)
    return builder.clusters, orphans


def _candidate_best_sets(
    ordered: Sequence[Request],
    offers: Sequence[Offer],
    maxima,
    config: AuctionConfig,
) -> tuple[List[frozenset], "BlockArrays | None"]:
    """Best-offer sets through the certified candidate stage; with the
    vectorized engine, also the block arrays the generator read.

    The vectorized engine takes the generator's own ranking (assembled
    from the exact scores it collected while admitting candidates); the
    reference engine re-ranks each request's admitted offers with the
    scalar kernel — deliberately a different code path, so the
    differential suite compares two independent ways of consuming the
    same certificates.
    """
    result = config.candidates.generate(
        ordered, offers, maxima, config.cluster_breadth
    )
    if config.engine == "vectorized":
        return result.best_sets, result.block
    return [
        best_offer_set(
            request,
            [offers[j] for j in result.candidate_indices(i).tolist()],
            maxima,
            config.cluster_breadth,
        )
        for i, request in enumerate(ordered)
    ], None


def clusters_by_offer(clusters: Sequence[Cluster]) -> Dict[str, List[Cluster]]:
    """Index clusters by the offers they contain (diagnostics)."""
    index: Dict[str, List[Cluster]] = {}
    for cluster in clusters:
        for offer_id in cluster.offer_ids:
            index.setdefault(offer_id, []).append(cluster)
    return index
