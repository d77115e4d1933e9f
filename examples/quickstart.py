#!/usr/bin/env python
"""Quickstart: clear a small edge-cloud market with the DeCloud auction.

Builds a handful of client requests and provider offers by hand, runs the
truthful double auction, and prints the matches, payments, and the
economic invariants (individual rationality, strong budget balance).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.common import TimeWindow
from repro.core import AuctionConfig, DecloudAuction
from repro.market import Offer, Request


def build_market():
    """Three providers (different machine sizes), six clients."""
    offers = [
        Offer(
            offer_id="off-small",
            provider_id="garage-rack",
            submit_time=0.0,
            resources={"cpu": 4, "ram": 16, "disk": 200},
            window=TimeWindow(0, 24),
            bid=2.0,  # cost of offering the machine for the whole day
            location="helsinki-edge",
        ),
        Offer(
            offer_id="off-medium",
            provider_id="campus-lab",
            submit_time=0.1,
            resources={"cpu": 8, "ram": 32, "disk": 400},
            window=TimeWindow(0, 24),
            bid=4.5,
            location="helsinki-edge",
        ),
        Offer(
            offer_id="off-large",
            provider_id="regional-dc",
            submit_time=0.2,
            resources={"cpu": 16, "ram": 64, "disk": 800},
            window=TimeWindow(0, 24),
            bid=9.0,
            location="espoo-edge",
        ),
    ]
    requests = []
    demands = [
        ("video-transcode", {"cpu": 2, "ram": 4, "disk": 50}, 4.0, 1.2),
        ("ar-renderer", {"cpu": 4, "ram": 8, "disk": 20}, 2.0, 1.8),
        ("iot-aggregator", {"cpu": 1, "ram": 2, "disk": 100}, 8.0, 0.9),
        ("ml-inference", {"cpu": 8, "ram": 16, "disk": 60}, 3.0, 2.5),
        ("web-cache", {"cpu": 2, "ram": 8, "disk": 200}, 12.0, 1.5),
        ("batch-job", {"cpu": 4, "ram": 16, "disk": 40}, 6.0, 0.4),
    ]
    for i, (name, resources, duration, bid) in enumerate(demands):
        requests.append(
            Request(
                request_id=f"req-{name}",
                client_id=f"cli-{name}",
                submit_time=1.0 + 0.1 * i,
                resources=resources,
                window=TimeWindow(0, 24),
                duration=duration,
                bid=bid,
                location="helsinki-edge",
            )
        )
    return requests, offers


def main() -> None:
    requests, offers = build_market()
    auction = DecloudAuction(AuctionConfig(cluster_breadth=3))
    outcome = auction.run(requests, offers, evidence=b"quickstart-block")

    print("=== DeCloud quickstart ===")
    print(f"requests: {len(requests)}, offers: {len(offers)}")
    print(f"trades: {outcome.num_trades}, welfare: {outcome.welfare:.3f}")
    print(f"clearing price(s): {[round(p, 4) for p in outcome.prices]}")
    print()
    for match in outcome.matches:
        utility = match.request.bid - match.payment
        print(
            f"  {match.request.request_id:<20} -> {match.offer.offer_id:<12}"
            f" pays {match.payment:.4f}  (bid {match.request.bid:.2f},"
            f" utility {utility:+.4f})"
        )
    if outcome.reduced_requests:
        names = [r.request_id for r in outcome.reduced_requests]
        print(f"\n  excluded by trade reduction: {names}")
    if outcome.unmatched_requests:
        names = [r.request_id for r in outcome.unmatched_requests]
        print(f"  unmatched: {names}")

    # Economic invariants of the mechanism:
    print("\n=== invariants ===")
    for match in outcome.matches:
        assert match.payment <= match.request.bid + 1e-9, "IR violated!"
    print("individual rationality: every client pays at most its bid  OK")
    payments = outcome.total_payments
    revenues = sum(outcome.revenues().values())
    assert abs(payments - revenues) < 1e-9
    print(
        f"strong budget balance: payments {payments:.4f} == "
        f"revenues {revenues:.4f}  OK"
    )


if __name__ == "__main__":
    main()
