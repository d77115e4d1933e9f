"""Differential contract of the sharded market fabric.

Three equivalences, each down to ``canonical_outcome`` bit-identity:

* **engine invariance** — reference and vectorized engines agree under
  sharding exactly as they do globally;
* **degenerate exactness** — a plan whose partition yields a single
  shard is bit-identical to running with no plan at all (raw block
  evidence, no spillover round);
* **spillover accounting** — the spillover round consumes *exactly* the
  unmatched survivors of the shard round (plus both sides of any shard
  missing a counterparty side), verified by re-implementing the fabric
  structurally out of public pieces and comparing digests.

Markets come from :func:`~repro.workloads.generators.generate_zone_market`
over both partition kinds and both locality regimes, with Hypothesis
steering the shape knobs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig, ShardPlan
from repro.core.outcome import AuctionOutcome
from repro.core.sharding import (
    SPILLOVER_SHARD,
    derive_shard_evidence,
    partition_block,
    shard_config,
)
from repro.workloads.generators import generate_zone_market
from tests.differential.conftest import canonical_outcome

EVIDENCE = b"sharding-differential-evidence"


def zone_market_shapes():
    """Hypothesis strategy over ``generate_zone_market`` shape knobs."""
    return st.fixed_dictionaries(
        {
            "n_requests": st.integers(min_value=4, max_value=40),
            "n_zones": st.integers(min_value=2, max_value=6),
            "seed": st.integers(min_value=0, max_value=2**16),
            "kind": st.sampled_from(["network", "geo"]),
            "locality": st.sampled_from(["strong", "weak"]),
            "cross_zone_fraction": st.sampled_from([0.0, 0.25]),
        }
    )


def build_market(shape):
    requests, offers, locations = generate_zone_market(**shape)
    plan = ShardPlan(
        kind=shape["kind"],
        locations=locations if shape["kind"] == "geo" else None,
    )
    return requests, offers, plan


def run_sharded(requests, offers, plan, engine="vectorized"):
    config = AuctionConfig(engine=engine, sharding=plan)
    return DecloudAuction(config).run(requests, offers, evidence=EVIDENCE)


@settings(max_examples=30, deadline=None)
@given(shape=zone_market_shapes())
def test_engines_agree_under_sharding(shape):
    requests, offers, plan = build_market(shape)
    reference = run_sharded(requests, offers, plan, engine="reference")
    vectorized = run_sharded(requests, offers, plan, engine="vectorized")
    assert canonical_outcome(vectorized) == canonical_outcome(reference)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    kind=st.sampled_from(["network", "geo"]),
    engine=st.sampled_from(["reference", "vectorized"]),
)
def test_single_shard_plan_equals_global(seed, kind, engine):
    """One zone => one shard => bit-identical to the unsharded auction.

    Geo jitter can straddle a cell boundary, so the geo variant uses a
    360-degree cell (a single world-spanning cell) to pin one shard.
    """
    requests, offers, locations = generate_zone_market(
        20, n_zones=1, seed=seed, kind=kind, locality="weak"
    )
    plan = ShardPlan(
        kind=kind,
        cell_deg=360.0,
        locations=locations if kind == "geo" else None,
    )
    auction = DecloudAuction(AuctionConfig(engine=engine, sharding=plan))
    sharded = auction.run(requests, offers, evidence=EVIDENCE)
    unsharded = DecloudAuction(AuctionConfig(engine=engine)).run(
        requests, offers, evidence=EVIDENCE
    )
    assert canonical_outcome(sharded) == canonical_outcome(unsharded)
    assert auction.last_shard_stats["degenerate"]
    assert not auction.last_shard_stats["spillover_ran"]


def _structural_sharded(requests, offers, plan, config):
    """The fabric re-built from public pieces: partition, per-shard
    sub-auctions on derived evidence, spillover over exactly the
    unmatched survivors.  Must match :func:`repro.core.sharding
    .run_sharded` digest-for-digest."""
    shards = partition_block(requests, offers, plan)
    sub = shard_config(config)
    merged = AuctionOutcome()
    spill_requests, spill_offers = [], []
    for shard in shards:
        if not (shard.requests and shard.offers):
            spill_requests.extend(shard.requests)
            spill_offers.extend(shard.offers)
            continue
        outcome = DecloudAuction(sub).run(
            list(shard.requests),
            list(shard.offers),
            evidence=derive_shard_evidence(EVIDENCE, shard.key),
        )
        merged.matches.extend(outcome.matches)
        merged.reduced_requests.extend(outcome.reduced_requests)
        merged.reduced_offers.extend(outcome.reduced_offers)
        merged.prices.extend(outcome.prices)
        spill_requests.extend(outcome.unmatched_requests)
        spill_offers.extend(outcome.unmatched_offers)
    if spill_requests and spill_offers:
        spill = DecloudAuction(sub).run(
            spill_requests,
            spill_offers,
            evidence=derive_shard_evidence(EVIDENCE, SPILLOVER_SHARD),
        )
        merged.matches.extend(spill.matches)
        merged.reduced_requests.extend(spill.reduced_requests)
        merged.reduced_offers.extend(spill.reduced_offers)
        merged.prices.extend(spill.prices)
        merged.unmatched_requests = list(spill.unmatched_requests)
        merged.unmatched_offers = list(spill.unmatched_offers)
    else:
        merged.unmatched_requests = spill_requests
        merged.unmatched_offers = spill_offers
    return merged, (spill_requests, spill_offers)


@settings(max_examples=25, deadline=None)
@given(shape=zone_market_shapes())
def test_spillover_consumes_exactly_the_unmatched_survivors(shape):
    requests, offers, plan = build_market(shape)
    config = AuctionConfig(engine="vectorized", sharding=plan)
    auction = DecloudAuction(config)
    fabric = auction.run(requests, offers, evidence=EVIDENCE)
    structural, (spill_requests, spill_offers) = _structural_sharded(
        requests, offers, plan, config
    )
    assert canonical_outcome(fabric) == canonical_outcome(structural)
    stats = auction.last_shard_stats
    if not stats["degenerate"]:
        assert stats["spillover_requests"] == len(spill_requests)
        assert stats["spillover_offers"] == len(spill_offers)


@settings(max_examples=25, deadline=None)
@given(shape=zone_market_shapes())
def test_sharded_outcome_conserves_bid_ids(shape):
    """Every input id lands in exactly one disposition set.

    Offer sets (not lists): one offer can host several requests under
    capacity sharing, so ``matches`` may repeat an offer id.
    """
    requests, offers, plan = build_market(shape)
    outcome = run_sharded(requests, offers, plan)
    req_matched = {m.request.request_id for m in outcome.matches}
    req_reduced = {r.request_id for r in outcome.reduced_requests}
    req_unmatched = {r.request_id for r in outcome.unmatched_requests}
    off_matched = {m.offer.offer_id for m in outcome.matches}
    off_reduced = {o.offer_id for o in outcome.reduced_offers}
    off_unmatched = {o.offer_id for o in outcome.unmatched_offers}
    assert req_matched | req_reduced | req_unmatched == {
        r.request_id for r in requests
    }
    assert off_matched | off_reduced | off_unmatched == {
        o.offer_id for o in offers
    }
    assert not (req_matched & req_reduced)
    assert not (req_matched & req_unmatched)
    assert not (req_reduced & req_unmatched)
    assert not (off_matched & off_reduced)
    assert not (off_matched & off_unmatched)
    assert not (off_reduced & off_unmatched)
