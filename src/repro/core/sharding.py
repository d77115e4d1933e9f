"""Sharded market fabric: zone-local auctions + spillover.

DeCloud's premise is that edge markets are geographically local — the
quality of match (Eq. 18) already penalizes distance — yet a block
normally clears as *one* global auction.  This module exploits the
locality directly:

1. **Partition** the block's requests and offers into *zone shards*
   using the same location rules as the candidate generators
   (:func:`~repro.market.location.zone_prefix` buckets for hierarchical
   network zones, :func:`~repro.market.location.grid_cell` buckets for
   geo locations).  Bids whose location does not resolve land in a
   single *fallback* shard, so nothing is dropped.
2. **Clear every shard through the entire pipeline** (match -> cluster
   -> normalize -> assemble -> clear), one shard after another in this
   process, each with its own evidence derived from the block evidence
   and the shard's zone key alone (:func:`derive_shard_evidence`).
3. **Spillover**: pool every shard's unmatched bids into one final
   cross-zone auction so no cross-zone trade is silently lost.

Determinism contract
--------------------

For a fixed block and plan the sharded outcome is a pure function of
``(requests, offers, evidence, config)``:

* shard membership depends only on bid location tags and the plan;
* shards are cleared in sorted zone-key order (fallback last) and each
  shard's randomization stream is ``evidence + "/shard/" + key``;
* the spillover round draws from ``evidence + "/shard/spillover"``.

``tests/differential/test_sharding_equivalence.py`` enforces it across
both engines.  A plan whose partition yields a *single* shard
degenerates to the global auction exactly — same evidence, same
pipeline — so sharding only ever changes anything when it actually
splits the market.

Phases: under the caller's ``obs`` bundle a sharded round is one
``sharded_auction`` span whose children ``shard_partition``,
``shard_clear`` and ``spillover`` are the phase labels of
``auction_phase_seconds``.  Each shard (and the spillover round) runs
under ``obs.scoped(shard=key)``: its ``auction`` span sits under
``shard_clear`` (or ``spillover``) and its round series carry a
``shard`` label, so ``auction_phase_seconds{shard=...}`` is the
per-shard phase split.

What sharding costs: a cross-zone pair can only trade in the spillover
round, against leftovers instead of the full book, so welfare may drop
versus the global auction.  ``examples/sharding_sweep.py`` quantifies
the welfare cost and the throughput win; docs/PERFORMANCE.md records
the measured trade-off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.common.errors import ValidationError
from repro.core.config import AuctionConfig, ShardPlan
from repro.core.outcome import AuctionOutcome
from repro.market.bids import Offer, Request
from repro.market.location import (
    GeoLocation,
    NetworkLocation,
    grid_cell,
    zone_prefix,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.auction import DecloudAuction
    from repro.obs import ObservabilityLike

#: Zone key of the shard holding bids with no resolvable location.
FALLBACK_SHARD = "fallback"
#: Reserved key of the cross-zone spillover round (never a zone key:
#: real shards are prefixed ``zone:`` / ``cell:`` or are ``fallback``).
SPILLOVER_SHARD = "spillover"


@dataclass(frozen=True)
class Shard:
    """One zone-local slice of a block, in original bid order."""

    key: str
    requests: Tuple[Request, ...]
    offers: Tuple[Offer, ...]

    @property
    def n_bids(self) -> int:
        return len(self.requests) + len(self.offers)


def shard_key(tag: Optional[str], plan: ShardPlan) -> str:
    """The zone key a bid with location ``tag`` shards into.

    Mirrors the candidate generators' resolution rules: with
    ``kind="network"`` the tag is looked up in ``plan.locations`` (when
    given) or parsed as a zone path itself, then bucketed by
    :func:`~repro.market.location.zone_prefix`; with ``kind="geo"`` the
    tag must map to a :class:`~repro.market.location.GeoLocation` and
    buckets by :func:`~repro.market.location.grid_cell`.  Anything that
    does not resolve lands in :data:`FALLBACK_SHARD`.
    """
    if not tag:
        return FALLBACK_SHARD
    if plan.kind == "geo":
        location = (plan.locations or {}).get(tag)
        if not isinstance(location, GeoLocation):
            return FALLBACK_SHARD
        row, col = grid_cell(location, plan.cell_deg)
        return f"cell:{row}:{col}"
    if plan.locations is not None:
        location = plan.locations.get(tag)
        if not isinstance(location, NetworkLocation):
            return FALLBACK_SHARD
        zone = location.zone
    else:
        try:
            zone = NetworkLocation(tag).zone
        except ValidationError:
            return FALLBACK_SHARD
    return "zone:" + zone_prefix(zone, plan.depth)


def partition_block(
    requests: Sequence[Request],
    offers: Sequence[Offer],
    plan: ShardPlan,
) -> List[Shard]:
    """Bucket a block into zone shards, sorted by key (fallback last).

    Within a shard, bids keep their original block order, so a shard's
    sub-auction sees exactly the sub-sequence it would have seen of the
    global block.
    """
    # One resolution per distinct location tag, for this call only.
    key_of = {
        tag: shard_key(tag, plan)
        for tag in {bid.location for side in (requests, offers) for bid in side}
    }
    request_buckets: Dict[str, List[Request]] = {}
    offer_buckets: Dict[str, List[Offer]] = {}
    for request in requests:
        request_buckets.setdefault(key_of[request.location], []).append(request)
    for offer in offers:
        offer_buckets.setdefault(key_of[offer.location], []).append(offer)
    keys = set(request_buckets) | set(offer_buckets)
    ordered = sorted(keys - {FALLBACK_SHARD}) + (
        [FALLBACK_SHARD] if FALLBACK_SHARD in keys else []
    )
    return [
        Shard(
            key=key,
            requests=tuple(request_buckets.get(key, ())),
            offers=tuple(offer_buckets.get(key, ())),
        )
        for key in ordered
    ]


def derive_shard_evidence(evidence: bytes, key: str) -> bytes:
    """Independent verifiable evidence stream for one shard.

    Depends only on the block evidence and the shard's zone key, so
    every miner derives the identical randomization for the shard's
    clearing.
    """
    return evidence + b"/shard/" + key.encode("utf-8")


def shard_config(config: AuctionConfig) -> AuctionConfig:
    """The sub-config every shard and the spillover round clear with.

    Sharding and candidates are stripped: shards must not re-shard, and
    candidate pruning is outcome-invariant by certificate, so stripping
    it cannot change results.
    """
    return replace(config, sharding=None, candidates=None)


def run_sharded(
    auction: "DecloudAuction",
    requests: Sequence[Request],
    offers: Sequence[Offer],
    evidence: bytes,
    obs: "ObservabilityLike",
) -> AuctionOutcome:
    """Clear one block through the sharded fabric.

    Called by :meth:`~repro.core.auction.DecloudAuction.run` when the
    config carries a :class:`~repro.core.config.ShardPlan`.  Leaves the
    run's shard statistics on ``auction.last_shard_stats`` and mirrors
    the global path's round metrics on the merged outcome.
    """
    from repro.core.auction import DecloudAuction

    config = auction.config
    plan = config.sharding
    assert plan is not None
    first_record = len(obs.tracer.records)

    with obs.tracer.span("shard_partition", kind=plan.kind):
        shards = partition_block(requests, offers, plan)

    if len(shards) <= 1:
        # A one-shard (or empty) partition IS the global auction: clear
        # it with the block's own evidence so the degenerate plan is
        # bit-identical to no plan at all.
        auction.last_shard_stats = {
            "shards": len(shards),
            "cleared_shards": len(shards),
            "degenerate": True,
            "spillover_requests": 0,
            "spillover_offers": 0,
            "spillover_trades": 0,
            "spillover_ran": False,
        }
        inner = DecloudAuction(replace(config, sharding=None))
        return inner.run(
            list(requests), list(offers), evidence=evidence, obs=obs
        )

    sub_config = shard_config(config)
    # Shards missing one whole side cannot trade locally: skip their
    # pipeline and hand their bids straight to the spillover pool.
    runnable = [s for s in shards if s.requests and s.offers]
    shard_outcomes: Dict[str, AuctionOutcome] = {}
    shard_seconds: Dict[str, float] = {}

    with obs.tracer.span("shard_clear", count=len(runnable), total=len(shards)):
        for shard in runnable:
            start = time.perf_counter()
            outcome = DecloudAuction(sub_config).run(
                list(shard.requests), list(shard.offers),
                evidence=derive_shard_evidence(evidence, shard.key),
                obs=obs.scoped(shard=shard.key),
            )
            shard_seconds[shard.key] = time.perf_counter() - start
            shard_outcomes[shard.key] = outcome
            obs.tracer.event(
                "shard.cleared",
                shard=shard.key,
                requests=len(outcome.matches)
                + len(outcome.reduced_requests)
                + len(outcome.unmatched_requests),
                trades=len(outcome.matches),
            )

    # Pool the survivors in shard order: unmatched bids of cleared
    # shards plus the raw bids of shards that had no counterparty side
    # at all.  Exactly these — and nothing else — enter the spillover
    # round.
    spill_requests: List[Request] = []
    spill_offers: List[Offer] = []
    for shard in shards:
        outcome = shard_outcomes.get(shard.key)
        if outcome is None:
            spill_requests.extend(shard.requests)
            spill_offers.extend(shard.offers)
        else:
            spill_requests.extend(outcome.unmatched_requests)
            spill_offers.extend(outcome.unmatched_offers)

    spill_outcome: Optional[AuctionOutcome] = None
    if plan.spillover and spill_requests and spill_offers:
        with obs.tracer.span(
            "spillover",
            requests=len(spill_requests),
            offers=len(spill_offers),
        ):
            spill_outcome = DecloudAuction(sub_config).run(
                spill_requests,
                spill_offers,
                evidence=derive_shard_evidence(evidence, SPILLOVER_SHARD),
                obs=obs.scoped(shard=SPILLOVER_SHARD),
            )

    merged = AuctionOutcome()
    for shard in shards:
        outcome = shard_outcomes.get(shard.key)
        if outcome is None:
            continue
        merged.matches.extend(outcome.matches)
        merged.reduced_requests.extend(outcome.reduced_requests)
        merged.reduced_offers.extend(outcome.reduced_offers)
        merged.prices.extend(outcome.prices)
    if spill_outcome is not None:
        merged.matches.extend(spill_outcome.matches)
        merged.reduced_requests.extend(spill_outcome.reduced_requests)
        merged.reduced_offers.extend(spill_outcome.reduced_offers)
        merged.prices.extend(spill_outcome.prices)
        merged.unmatched_requests = list(spill_outcome.unmatched_requests)
        merged.unmatched_offers = list(spill_outcome.unmatched_offers)
    else:
        merged.unmatched_requests = spill_requests
        merged.unmatched_offers = spill_offers

    fallback = next((s for s in shards if s.key == FALLBACK_SHARD), None)
    auction.last_shard_stats = {
        "shards": len(shards),
        "cleared_shards": len(runnable),
        "degenerate": False,
        "shard_keys": [shard.key for shard in shards],
        "shard_bids": {shard.key: shard.n_bids for shard in shards},
        "shard_seconds": shard_seconds,
        "fallback_bids": fallback.n_bids if fallback is not None else 0,
        "spillover_requests": len(spill_requests),
        "spillover_offers": len(spill_offers),
        "spillover_trades": (
            len(spill_outcome.matches) if spill_outcome is not None else 0
        ),
        "spillover_ran": spill_outcome is not None,
    }

    if obs.enabled:
        _record_shard_round(
            auction, obs, first_record,
            len(requests), len(offers),
            shards, runnable, shard_seconds,
            spill_requests, spill_offers, spill_outcome, merged,
        )
        if config.enable_trade_reduction:
            obs.check_outcome(merged, source="auction")
    return merged


def _record_shard_round(
    auction: "DecloudAuction",
    obs: "ObservabilityLike",
    first_record: int,
    n_requests: int,
    n_offers: int,
    shards: Sequence[Shard],
    runnable: Sequence[Shard],
    shard_seconds: Dict[str, float],
    spill_requests: Sequence[Request],
    spill_offers: Sequence[Offer],
    spill_outcome: Optional[AuctionOutcome],
    merged: AuctionOutcome,
) -> None:
    """Fold one sharded round into the registry (enabled path only).

    The ``auction_*`` round series mirror the global path (cluster /
    orphan / mini-auction counts belong to each shard's own
    ``shard``-labelled round and record as zero here); the ``shard_*``
    series are the
    fabric's own: shards built, spillover volume, and the per-shard
    clear-latency histogram.
    """
    reg = obs.registry
    reg.inc("shard_blocks_total")
    reg.inc("shard_shards_total", len(runnable))
    reg.set("shard_last_shards", len(shards))
    reg.set("shard_last_cleared_shards", len(runnable))
    fallback = next(
        (s for s in shards if s.key == FALLBACK_SHARD), None
    )
    reg.set(
        "shard_last_fallback_bids",
        fallback.n_bids if fallback is not None else 0,
    )
    reg.set("shard_last_spillover_bids", len(spill_requests), side="request")
    reg.set("shard_last_spillover_bids", len(spill_offers), side="offer")
    reg.set(
        "shard_last_spillover_trades",
        len(spill_outcome.matches) if spill_outcome is not None else 0,
    )
    for key in sorted(shard_seconds):
        reg.observe("shard_clear_seconds", shard_seconds[key])
    obs.tracer.event(
        "shard.spillover",
        requests=len(spill_requests),
        offers=len(spill_offers),
        trades=len(spill_outcome.matches) if spill_outcome is not None else 0,
        ran=spill_outcome is not None,
    )
    # Reuse the global path's round recording so BlockMetrics readers
    # see the same auction_last_* series regardless of sharding.
    auction._record_round(
        obs,
        first_record,
        n_requests,
        n_offers,
        0,
        0,
        0,
        merged,
        merged.welfare,
    )
