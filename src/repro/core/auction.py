"""The DeCloud double auction — Alg. 1 end to end.

:class:`DecloudAuction` glues the pipeline together:

1. cluster requests and offers by quality of match (Alg. 2);
2. greedy-fit each cluster and derive its break-even indices (§IV-C);
3. pool price-compatible clusters into mini-auctions (Alg. 3);
4. clear mini-auctions in descending welfare order, applying the SBBA
   price rule, trade reduction, and verifiable randomization (Alg. 4);
5. assemble the :class:`~repro.core.outcome.AuctionOutcome` recorded in
   the block.

The same class also runs the paper's *non-truthful greedy benchmark*:
``AuctionConfig.benchmark()`` disables trade reduction and randomization,
yielding the best welfare greedy allocation can reach.

Each stage runs inside a tracer span named after it (``match``,
``cluster``, ``normalize``, ``assemble``, ``clear``) on the caller's
``obs`` bundle.  Those spans are the only phase clock:
:func:`~repro.obs.trace.span_seconds` reads the split back, and every
round feeds ``auction_phase_seconds{phase=...}`` from it.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional, Sequence, Set

from repro.common.errors import AuctionError
from repro.common.rng import block_evidence_rng
from repro.obs import ObservabilityLike, resolve as resolve_obs
from repro.obs.trace import span_seconds
from repro.core.cluster_allocation import (
    ClusterAllocation,
    PairChecks,
    allocate_cluster,
)
from repro.core.clustering import build_clusters
from repro.core.config import AuctionConfig
from repro.core.miniauctions import build_mini_auctions
from repro.core.outcome import AuctionOutcome
from repro.core.trade_reduction import clear_mini_auction
from repro.market.bids import Offer, Request


class DecloudAuction:
    """The truthful decentralized double auction of the paper."""

    def __init__(self, config: Optional[AuctionConfig] = None) -> None:
        self.config = config or AuctionConfig()
        #: Statistics of the most recent sharded run (shards built,
        #: spillover volume, per-shard seconds) — populated by
        #: :mod:`repro.core.sharding` when ``config.sharding`` is set.
        self.last_shard_stats: dict = {}

    def run(
        self,
        requests: Sequence[Request],
        offers: Sequence[Offer],
        evidence: bytes = b"decloud-default-evidence",
        obs: Optional[ObservabilityLike] = None,
    ) -> AuctionOutcome:
        """Clear one block of requests and offers.

        ``evidence`` is the block's preamble hash in the ledger-backed
        deployment: it seeds the verifiable randomization so that every
        miner recomputes the identical outcome.

        ``obs`` (optional :class:`~repro.obs.Observability`) records the
        round's metrics (bids in/matched/clustered, trades before/after
        reduction, welfare, surplus, per-phase durations) and an
        ``auction`` span whose children are the phases: ``match`` /
        ``cluster`` (inside :func:`build_clusters`), ``normalize``
        (§IV-C economics plus the greedy fits), ``assemble`` (Alg. 3)
        and ``clear`` (Alg. 4).  Instrumentation is read-only: outcomes
        are bit-identical with observability on or off (enforced by the
        differential suite, which runs with it on).

        With ``config.sharding`` set, the block instead clears through
        the sharded fabric of :mod:`repro.core.sharding`: zone-local
        shards run the full pipeline (concurrently for
        ``shard_workers > 1``) and unmatched bids meet again in one
        cross-zone spillover round — bit-identical across worker
        counts, and identical to the global auction whenever the
        partition yields a single shard.

        A clear leaves no cyclic garbage behind, so the cyclic collector
        would only re-scan the caller's heap: the outermost run pauses
        it and restores it on the way out.  A nested run, or a caller
        that disabled it already, leaves it as it finds it.  So does a
        block of fewer bids than the young generation's threshold: its
        clear gives the collector too little to do to be worth saving,
        and a pause would only hold the caller's own cyclic garbage a
        little longer.
        """
        obs = resolve_obs(obs)
        pause = gc.isenabled() and (
            len(requests) + len(offers) >= gc.get_threshold()[0]
        )
        if pause:
            gc.disable()
        try:
            if self.config.sharding is not None:
                from repro.core.sharding import run_sharded

                with obs.tracer.span(
                    "sharded_auction",
                    requests=len(requests),
                    offers=len(offers),
                    engine=self.config.engine,
                ):
                    return run_sharded(self, requests, offers, evidence, obs)
            with obs.tracer.span(
                "auction",
                requests=len(requests),
                offers=len(offers),
                engine=self.config.engine,
            ):
                return self._run(requests, offers, evidence, obs)
        finally:
            if pause:
                gc.enable()

    def _run(
        self,
        requests: Sequence[Request],
        offers: Sequence[Offer],
        evidence: bytes,
        obs: ObservabilityLike,
    ) -> AuctionOutcome:
        # This round's records start here: the phase split is read back
        # from them alone, so its cost does not grow with trace length.
        first_record = len(obs.tracer.records)
        request_by_id = _index_requests(requests)
        offer_by_id = _index_offers(offers)
        # Owned by this run alone: never stored on the instance, never
        # shipped to a pool worker; fed the block's arrays by the match.
        pairs = PairChecks()

        clusters, orphans = build_clusters(
            list(request_by_id.values()),
            list(offer_by_id.values()),
            self.config,
            tracer=obs.tracer,
            feed=pairs.feed,
        )
        with obs.tracer.span("normalize"):
            populated = []
            for cluster in clusters:
                cluster_requests = [
                    request_by_id[rid] for rid in sorted(cluster.request_ids)
                ]
                cluster_offers = [
                    offer_by_id[oid] for oid in sorted(cluster.offer_ids)
                ]
                if not cluster_requests or not cluster_offers:
                    continue
                populated.append((cluster, cluster_requests, cluster_offers))
            if self.config.engine == "vectorized" and populated:
                # Batch §IV-C over every cluster of the block at once —
                # bit-identical to per-cluster scalar normalization.
                from repro.core.normalization_vectorized import (
                    compute_economics_batch,
                )

                economics_list = list(
                    compute_economics_batch(
                        [(reqs, offs) for _, reqs, offs in populated],
                        self.config,
                        pairs.block,
                    )
                )
            else:
                economics_list = [None] * len(populated)
            allocations: List[ClusterAllocation] = [
                allocate_cluster(
                    cluster, cluster_requests, cluster_offers, self.config,
                    economics=economics, pairs=pairs,
                )
                for (cluster, cluster_requests, cluster_offers), economics
                in zip(populated, economics_list)
            ]

        with obs.tracer.span("assemble"):
            auctions = build_mini_auctions(allocations, self.config)

        outcome = AuctionOutcome()
        consumed_requests: Set[str] = set()
        consumed_offers: Set[str] = set()
        with obs.tracer.span("clear"):
            if self.config.miniauction_workers >= 1:
                # Per-auction RNG streams; waves of independent auctions
                # may clear in a process pool (see repro.core.parallel).
                from repro.core.parallel import clear_auctions_scheduled

                results = clear_auctions_scheduled(
                    auctions,
                    request_by_id,
                    offer_by_id,
                    consumed_requests,
                    consumed_offers,
                    self.config,
                    evidence,
                    obs=obs,
                    pairs=pairs,
                )
            else:
                rng = block_evidence_rng(evidence)
                results = []
                for auction in auctions:
                    result = clear_mini_auction(
                        auction,
                        request_by_id,
                        offer_by_id,
                        consumed_requests,
                        consumed_offers,
                        self.config,
                        rng,
                        pairs=pairs,
                    )
                    results.append(result)
                    consumed_requests |= result.participant_requests
                    consumed_offers |= result.participant_offers
        for result in results:
            outcome.matches.extend(result.matches)
            outcome.reduced_requests.extend(result.reduced_requests)
            outcome.reduced_offers.extend(result.reduced_offers)
            if result.price is not None:
                outcome.prices.append(result.price)

        matched_requests = {m.request.request_id for m in outcome.matches}
        # A participant reduced in one mini-auction may still have traded
        # in a later one — only participants that never traded anywhere
        # in the block count as reduction casualties.
        outcome.reduced_requests = _dedupe_requests(
            r
            for r in outcome.reduced_requests
            if r.request_id not in matched_requests
        )
        matched_offers = {m.offer.offer_id for m in outcome.matches}
        outcome.reduced_offers = _dedupe_offers(
            o
            for o in outcome.reduced_offers
            if o.offer_id not in matched_offers
        )
        reduced_requests = {r.request_id for r in outcome.reduced_requests}
        outcome.unmatched_requests = [
            request
            for rid, request in request_by_id.items()
            if rid not in matched_requests and rid not in reduced_requests
        ]
        outcome.unmatched_requests.extend(
            o for o in orphans if o.request_id not in matched_requests
        )
        # Orphans were never indexed into clusters but are real requests:
        # dedupe in case an orphan id also appeared via the main loop.
        seen: Set[str] = set()
        deduped: List[Request] = []
        for request in outcome.unmatched_requests:
            if request.request_id not in seen:
                seen.add(request.request_id)
                deduped.append(request)
        outcome.unmatched_requests = deduped

        reduced_offers = {o.offer_id for o in outcome.reduced_offers}
        outcome.unmatched_offers = [
            offer
            for oid, offer in offer_by_id.items()
            if oid not in matched_offers and oid not in reduced_offers
        ]
        if obs.enabled:
            # ``outcome.welfare``, from the fractions the fits recorded.
            fractions = [f for result in results for f in result.fractions]
            welfare = sum(
                m.request.bid - f * m.offer.bid
                for m, f in zip(outcome.matches, fractions)
            )
            self._record_round(
                obs, first_record,
                len(requests), len(offers),
                len(clusters), len(orphans), len(auctions),
                outcome, welfare,
            )
            # Runtime mechanism monitors guard the *truthful* mechanism's
            # §IV invariants; the greedy benchmark switches the reduction
            # off and deliberately breaks them, so it is not checked.
            if self.config.enable_trade_reduction:
                obs.check_outcome(outcome, source="auction")
        return outcome

    def _record_round(
        self,
        obs: ObservabilityLike,
        first_record: int,
        n_requests: int,
        n_offers: int,
        n_clusters: int,
        n_orphans: int,
        n_auctions: int,
        outcome: AuctionOutcome,
        welfare: float,
    ) -> None:
        """Fold one cleared round into the registry (enabled path only).

        Everything recorded here is *derived from* the outcome — the
        metrics-accuracy suite cross-checks each series against the same
        value recomputed independently from :class:`AuctionOutcome`
        (``welfare`` is the caller's ``outcome.welfare``).
        The phase histograms are the direct children of the round's
        span among its own records (``first_record`` onward).
        """
        n_trades = len(outcome.matches)
        n_reduced = len(outcome.reduced_requests)
        payments = outcome.total_payments
        revenues = sum(outcome.revenues().values())

        reg = obs.registry
        reg.inc("auction_rounds_total")
        reg.inc("auction_bids_total", n_requests, side="request")
        reg.inc("auction_bids_total", n_offers, side="offer")
        reg.inc("auction_clusters_total", n_clusters)
        reg.inc("auction_orphans_total", n_orphans)
        reg.inc("auction_mini_auctions_total", n_auctions)
        reg.inc("auction_trades_total", n_trades)
        reg.inc("auction_reduced_total", n_reduced)
        reg.inc("auction_reduced_offers_total", len(outcome.reduced_offers))
        reg.inc("auction_welfare_total", welfare)

        # Exact per-round values live in gauges (no accumulated float
        # error) — the evaluation's BlockMetrics read these directly.
        reg.set("auction_last_bids", n_requests, side="request")
        reg.set("auction_last_bids", n_offers, side="offer")
        reg.set("auction_last_trades", n_trades)
        reg.set("auction_last_trades_pre_reduction", n_trades + n_reduced)
        reg.set("auction_last_reduced", n_reduced)
        reg.set("auction_last_welfare", welfare)
        reg.set("auction_last_payments", payments)
        reg.set("auction_last_revenues", revenues)
        reg.set("auction_last_surplus", payments - revenues)
        reg.set("auction_last_satisfaction", outcome.satisfaction)
        reg.set(
            "auction_last_unmatched",
            len(outcome.unmatched_requests),
            side="request",
        )
        reg.set(
            "auction_last_unmatched",
            len(outcome.unmatched_offers),
            side="offer",
        )
        for price in outcome.prices:
            reg.observe("auction_trade_price", price)
        phases = span_seconds(
            obs.tracer.records[first_record:], parent=obs.tracer.current_span
        )
        for name, phase in phases.items():
            reg.observe("auction_phase_seconds", phase["seconds"], phase=name)

        if self.config.candidates is not None:
            stats = getattr(self.config.candidates, "last_stats", {}) or {}
            reg.inc(
                "candidate_pairs_total",
                stats.get("pairs_total", 0),
                outcome="considered",
            )
            reg.inc(
                "candidate_pairs_total",
                stats.get("pairs_admitted", 0),
                outcome="admitted",
            )
            for reason in ("score", "window", "resource"):
                reg.inc(
                    "candidate_pairs_total",
                    stats.get(f"pairs_pruned_{reason}", 0),
                    outcome=f"pruned_{reason}",
                )
            reg.inc(
                "candidate_certificate_checks_total",
                stats.get("certificate_checks", 0),
            )
            reg.set("candidate_last_groups", stats.get("groups", 0))
            reg.set("candidate_last_rounds", stats.get("rounds", 0))

        obs.tracer.event(
            "auction.cleared",
            trades=n_trades,
            reduced=n_reduced,
            clusters=n_clusters,
            mini_auctions=n_auctions,
        )


def _dedupe_requests(requests) -> List[Request]:
    seen: Set[str] = set()
    out: List[Request] = []
    for request in requests:
        if request.request_id not in seen:
            seen.add(request.request_id)
            out.append(request)
    return out


def _dedupe_offers(offers) -> List[Offer]:
    seen: Set[str] = set()
    out: List[Offer] = []
    for offer in offers:
        if offer.offer_id not in seen:
            seen.add(offer.offer_id)
            out.append(offer)
    return out


def _index_requests(requests: Sequence[Request]) -> Dict[str, Request]:
    index: Dict[str, Request] = {}
    for request in requests:
        if request.request_id in index:
            raise AuctionError(f"duplicate request id {request.request_id!r}")
        index[request.request_id] = request
    return index


def _index_offers(offers: Sequence[Offer]) -> Dict[str, Offer]:
    index: Dict[str, Offer] = {}
    for offer in offers:
        if offer.offer_id in index:
            raise AuctionError(f"duplicate offer id {offer.offer_id!r}")
        index[offer.offer_id] = offer
    return index
