"""Independent auditing of auction outcomes.

Miners verify blocks by re-executing the allocation function and
comparing payloads (§III-B).  Re-execution proves the leader ran *the
same code*; it does not, by itself, state what a correct outcome looks
like.  This module provides that statement: :func:`audit_outcome` checks
every mechanism invariant directly against the bids.  It is the only
statement of them: the runtime monitors (:mod:`repro.obs.monitors`) run
it on every cleared block.  Each finding is a :class:`Violation` named
after the check that raised it (:data:`CHECKS`):

``membership``
    Every matched participant bid in the block, with the bid it bid.
``single_allocation``
    No request is allocated twice (Const. 5).
``trade_reduction``
    The matched, reduced and unmatched buckets partition the requests,
    and no offer sits in two buckets, so reduced participants never
    trade (McAfee reduction).
``feasibility``
    Matches are feasible (Const. 8, 10, 11) and welfare-positive (9).
``resource_conservation``
    Per-offer capacity holds (Const. 7): what the matches book on each
    offer, summed independently of the mechanism's admission code.
``individual_rationality``
    No client pays above its bid (Thm. 2) and no provider revenue is
    negative.  The paper's provider-side IR is stated in normalized
    (virtual-maximum) units, so the monetary check is one-sided.
``budget_balance``
    Strong budget balance (Thm. 3), to exact zero: the reported
    per-provider revenues equal a regrouping of the match payments in
    the same accumulation order, so a clean outcome compares bit-equal
    and a skim of even one ulp shows up.
``price_bounds``
    Payments and unit prices are finite and non-negative, and every
    match trades at a price the block cleared.

Challengers and researchers can audit any historical block with nothing
but the revealed bids and the recorded allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from repro.core.outcome import AuctionOutcome
from repro.core.welfare import resource_fraction
from repro.market.bids import Offer, Request
from repro.market.feasibility import is_feasible

#: every check :func:`audit_outcome` runs, in evaluation order
CHECKS = (
    "membership",
    "single_allocation",
    "trade_reduction",
    "feasibility",
    "resource_conservation",
    "individual_rationality",
    "budget_balance",
    "price_bounds",
)

#: slack for the money checks (IR, payment and price signs)
EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One violated invariant, ready to serialize into an alert event."""

    check: str
    message: str
    details: Mapping[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.check}: {self.message}"


@dataclass
class AuditReport:
    """Outcome of an audit: a list of violations (empty = clean)."""

    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, message: str, **details: Any) -> None:
        self.violations.append(Violation(check, message, details))

    def __str__(self) -> str:
        if self.ok:
            return "audit: OK"
        return "audit: " + "; ".join(str(v) for v in self.violations)


def audit_outcome(
    requests: Sequence[Request],
    offers: Sequence[Offer],
    outcome: AuctionOutcome,
    tolerance: float = 1e-6,
) -> AuditReport:
    """Check every mechanism invariant of ``outcome`` against the bids.

    ``tolerance`` is the slack of the resource-fraction checks (Const. 7
    and 9); the money checks use :data:`EPS`, and budget balance none.
    """
    report = AuditReport()
    request_by_id: Dict[str, Request] = {
        r.request_id: r for r in requests
    }
    offer_by_id: Dict[str, Offer] = {o.offer_id: o for o in offers}

    # --- membership and uniqueness (Const. 5) -------------------------
    seen: Dict[str, int] = {}
    for match in outcome.matches:
        rid = match.request.request_id
        oid = match.offer.offer_id
        known = request_by_id.get(rid)
        if known is None:
            report.add(
                "membership", f"match references unknown request {rid}",
                request=rid,
            )
        elif known != match.request:
            report.add(
                "membership", f"match alters the bid of request {rid}",
                request=rid,
            )
        known_offer = offer_by_id.get(oid)
        if known_offer is None:
            report.add(
                "membership", f"match references unknown offer {oid}",
                offer=oid,
            )
        elif known_offer != match.offer:
            report.add(
                "membership", f"match alters the bid of offer {oid}",
                offer=oid,
            )
        seen[rid] = seen.get(rid, 0) + 1
    for rid, count in seen.items():
        if count > 1:
            report.add(
                "single_allocation",
                f"request {rid} allocated {count} times (Const. 5)",
                request=rid, count=count,
            )

    # --- the reduction's buckets partition the bids --------------------
    request_buckets = (
        {m.request.request_id for m in outcome.matches},
        {r.request_id for r in outcome.reduced_requests},
        {r.request_id for r in outcome.unmatched_requests},
    )
    offer_buckets = (
        {m.offer.offer_id for m in outcome.matches},
        {o.offer_id for o in outcome.reduced_offers},
        {o.offer_id for o in outcome.unmatched_offers},
    )
    for side, buckets in (
        ("request", request_buckets), ("offer", offer_buckets)
    ):
        for i, j in ((0, 1), (0, 2), (1, 2)):
            overlap = sorted(buckets[i] & buckets[j])
            if overlap:
                report.add(
                    "trade_reduction",
                    f"{side}s in two buckets: {overlap[:3]}...",
                    ids=overlap,
                )
    missing = sorted(set(request_by_id).difference(*request_buckets))
    if missing:
        report.add(
            "trade_reduction",
            f"requests unaccounted for: {missing[:3]}...",
            ids=missing,
        )

    # --- feasibility and welfare (Const. 8-11, 9) ----------------------
    for match in outcome.matches:
        rid = match.request.request_id
        if not is_feasible(match.request, match.offer):
            report.add(
                "feasibility",
                f"infeasible match {rid} -> {match.offer.offer_id}",
                request=rid, offer=match.offer.offer_id,
            )
            continue
        fraction = resource_fraction(match.request, match.offer)
        if match.request.bid < fraction * match.offer.bid - tolerance:
            report.add(
                "feasibility",
                f"value below fraction cost for {rid} (Const. 9)",
                request=rid,
            )

    # --- capacity (Const. 7): what the matches book --------------------
    loads: Dict[str, Dict[str, float]] = {}
    for match in outcome.matches:
        offer = match.offer
        per_type = loads.setdefault(offer.offer_id, {})
        share = match.request.duration / offer.span
        for key, amount in match.request.resources.items():
            if key in offer.resources:
                per_type[key] = per_type.get(key, 0.0) + share * min(
                    amount, offer.resources[key]
                )
    for oid, per_type in loads.items():
        offer = offer_by_id.get(oid)
        if offer is None:
            continue
        for key, load in per_type.items():
            if load > offer.resources[key] + tolerance:
                report.add(
                    "resource_conservation",
                    f"offer {oid} oversubscribed on {key}: "
                    f"{load:.4f} > {offer.resources[key]:.4f} (Const. 7)",
                    offer=oid, resource=key, load=load,
                    capacity=offer.resources[key],
                )

    # --- economics: IR, strong budget balance, prices -------------------
    reported = dict(outcome.revenues())
    for match in outcome.matches:
        if match.payment > match.request.bid + EPS:
            report.add(
                "individual_rationality",
                f"client {match.request.client_id} charged above bid (IR)",
                request=match.request.request_id,
                payment=match.payment, bid=match.request.bid,
            )
    for oid, revenue in reported.items():
        if revenue < -EPS:
            report.add(
                "individual_rationality",
                f"revenue of offer {oid} is negative",
                offer=oid, revenue=revenue,
            )

    expected: Dict[str, float] = {}
    for match in outcome.matches:
        oid = match.offer.offer_id
        expected[oid] = expected.get(oid, 0.0) + match.payment
    if reported != expected:
        report.add(
            "budget_balance",
            "auctioneer surplus is not exactly zero",
            offers=sorted(
                oid
                for oid in set(expected) | set(reported)
                if expected.get(oid) != reported.get(oid)
            ),
            surplus=math.fsum(expected.values())
            - math.fsum(reported.values()),
        )

    cleared = set(outcome.prices)
    for match in outcome.matches:
        rid = match.request.request_id
        if not math.isfinite(match.payment) or match.payment < -EPS:
            report.add(
                "price_bounds", f"payment for {rid} outside [0, bid]",
                request=rid, payment=match.payment,
            )
        if not math.isfinite(match.unit_price) or match.unit_price < 0.0:
            report.add(
                "price_bounds",
                f"unit price of {rid} negative or non-finite",
                request=rid, unit_price=match.unit_price,
            )
        elif cleared and match.unit_price not in cleared:
            report.add(
                "price_bounds",
                f"{rid} trades at a price the block never cleared",
                request=rid, unit_price=match.unit_price,
            )
    return report
