#!/usr/bin/env python
"""Flight recorder walkthrough: a seeded degraded round, post-mortem included.

Two protocol rounds with a Byzantine client, ``cli-0``, that never
reveals its sealing key:

* **Round 0** completes anyway — the withholding client's sealed bid is
  excluded (the paper's denial path) and the block clears on the
  surviving bids.  The flight recorder archives the round's causal
  trace as a frame.
* **Round 1** carries ``cli-0``'s bid alone, so after every re-request
  no key has arrived for any sealed bid.  The resulting
  ``RevealTimeoutError`` makes the flight recorder dump everything it
  has — the archived round-0 frame plus the failing round's records —
  into a self-contained JSONL bundle.

The script then renders the bundle exactly like
``python -m repro.obs.report --flight <bundle>`` would: the causal tree
across every actor with the failing path marked by ``!``, naming the
excluded bidder and the reveal retries that could not save the round.

Everything is seeded, so the bundle is identical on every run.

Run:  python examples/degraded_round_demo.py [--out DIR]
"""

from __future__ import annotations

import argparse
import tempfile

from repro.common.errors import RevealTimeoutError
from repro.common.timewindow import TimeWindow
from repro.faults.actors import WithholdingParticipant
from repro.ledger.miner import Miner
from repro.market.bids import Offer, Request
from repro.obs import Observability
from repro.obs.flight import FlightRecorder, load_flight
from repro.obs.monitors import MonitorSuite
from repro.obs.report import render_flight
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.exposure import ExposureProtocol, Participant

SEED = "flight-demo"


def submit_market(protocol, clients, provider, round_index: int) -> None:
    """Each client's request, then the provider's offer (if any)."""
    for i, client in enumerate(clients):
        protocol.submit(
            client,
            Request(
                request_id=f"req-{round_index}-{i}",
                client_id=client.participant_id,
                submit_time=0.1 * i,
                resources={"cpu": 2, "ram": 4, "disk": 10},
                window=TimeWindow(0, 10),
                duration=4.0,
                bid=2.0 + 0.5 * i,
            ),
        )
    if provider is None:
        return
    protocol.submit(
        provider,
        Offer(
            offer_id=f"off-{round_index}",
            provider_id=provider.participant_id,
            submit_time=0.0,
            resources={"cpu": 8, "ram": 32, "disk": 500},
            window=TimeWindow(0, 24),
            bid=0.5,
        ),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None,
        help="directory for the flight bundle (default: a temp dir)",
    )
    args = parser.parse_args()
    out_dir = args.out or tempfile.mkdtemp(prefix="decloud-flight-")

    obs = Observability(
        run_id="degraded-demo",
        monitors=MonitorSuite(),
        flight=FlightRecorder(capacity=4, out_dir=out_dir),
    )
    miners = [
        Miner(
            miner_id=f"miner-{m}",
            allocate=DecloudAllocator(),
            difficulty_bits=4,
        )
        for m in range(3)
    ]
    protocol = ExposureProtocol(miners=miners, obs=obs)

    seal_seed = SEED.encode("ascii")
    byzantine = WithholdingParticipant(
        participant_id="cli-0", deterministic=True, seal_seed=seal_seed
    )
    honest = Participant(
        participant_id="cli-1", deterministic=True, seal_seed=seal_seed
    )
    provider = Participant(
        participant_id="prov-0", deterministic=True, seal_seed=seal_seed
    )
    participants = [byzantine, honest, provider]

    print(f"flight bundles -> {out_dir}\n")
    print("round 0: withholding client cli-0 among honest bidders ...")
    submit_market(protocol, [byzantine, honest], provider, 0)
    result = protocol.run_round(participants)
    print(
        f"  completed: {result.outcome.num_trades} trade(s), "
        f"{len(result.excluded_txids)} sealed bid(s) excluded"
    )

    print("round 1: cli-0 bids alone -> no key is ever revealed ...")
    submit_market(protocol, [byzantine], None, 1)
    try:
        protocol.run_round(participants)
    except RevealTimeoutError as exc:
        print(f"  failed as designed: {exc}")
    else:
        raise SystemExit("expected the reveal phase to time out")

    bundle = obs.flight.dumps[-1]
    print(f"  flight recorder dumped {bundle}\n")
    with open(bundle, "r", encoding="utf-8") as handle:
        meta, records, headers = load_flight(handle.read())
    report = render_flight(meta, records, headers)
    print(report)

    if "cli-0" not in report:
        raise SystemExit("bundle does not name the excluded bidder")
    print("\nOK")


if __name__ == "__main__":
    main()
