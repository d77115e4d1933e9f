#!/usr/bin/env python
"""Observability demo: trace and meter one full DeCloud round.

Attaches a live :class:`repro.obs.Observability` to the two-phase
exposure protocol and to the paired DeCloud/benchmark market simulator,
then renders everything the instruments captured:

* the span tree of the protocol round
  (``seal -> round(mine, reveal, propose, verify, commit)``);
* the metrics registry (auction, protocol, ledger series) in the
  Prometheus text format;
* the per-phase wall-time split (the summary table: a phase is a span).

Run:  python examples/observability_demo.py
      python examples/observability_demo.py --trace round.jsonl \\
          --metrics round.prom        # write artifacts (CI uploads these)

Inspect an exported trace later with::

    python -m repro.obs.report round.jsonl --tree
"""

from __future__ import annotations

import argparse

from repro.market import Offer, Request
from repro.common import TimeWindow
from repro.obs import Observability
from repro.obs.export import write_prometheus
from repro.obs.report import render_tree, summarize
from repro.obs.trace import load_jsonl
from repro.protocol import Participant, build_miner_network
from repro.sim.engine import MarketSimulator
from repro.workloads.generators import MarketScenario


def _bid_window() -> TimeWindow:
    return TimeWindow(0, 24)


def run_protocol_round(obs: Observability) -> None:
    """Mine one sealed-bid block with full instrumentation attached."""
    protocol = build_miner_network(num_miners=3, difficulty_bits=6, obs=obs)
    # seal_seed makes the sealed ciphertexts (and therefore the mined
    # preamble and its PoW scan) bit-reproducible across runs, so the
    # exported trace/metrics artifacts are stable for a given commit.
    clients = [
        Participant(
            participant_id=f"cli-{i}",
            deterministic=True,
            seal_seed=b"obs-demo",
        )
        for i in range(3)
    ]
    provider = Participant(
        participant_id="prov-0", deterministic=True, seal_seed=b"obs-demo"
    )
    for i, client in enumerate(clients):
        protocol.submit(
            client,
            Request(
                request_id=f"req-{i}",
                client_id=client.participant_id,
                submit_time=0.0,
                resources={"cpu": 2, "ram": 4},
                window=_bid_window(),
                duration=4.0,
                bid=2.0 - 0.25 * i,
            ),
        )
    protocol.submit(
        provider,
        Offer(
            offer_id="off-0",
            provider_id=provider.participant_id,
            submit_time=0.0,
            resources={"cpu": 8, "ram": 32},
            window=_bid_window(),
            bid=0.5,
        ),
    )
    result = protocol.run_round(clients + [provider])
    print(
        f"protocol round committed: height={result.block.height} "
        f"trades={result.outcome.num_trades} "
        f"approvals={len(result.accepted_by)}"
    )


def run_market_block(obs: Observability) -> None:
    """Clear one paired DeCloud/benchmark block under the same registry."""
    scenario = MarketScenario(n_requests=40, offers_per_request=0.5, seed=7)
    requests, offers = scenario.generate()
    simulator = MarketSimulator(seed=7, obs=obs)
    metrics, _, _ = simulator.run_block(requests, offers)
    print(
        f"market block: {metrics.decloud_trades} trades "
        f"(benchmark {metrics.benchmark_trades}), "
        f"welfare ratio {metrics.welfare_ratio:.3f}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", help="write the round trace (JSONL) here")
    parser.add_argument(
        "--metrics", help="write the registry (Prometheus text) here"
    )
    args = parser.parse_args()

    obs = Observability("observability-demo")
    run_protocol_round(obs)
    run_market_block(obs)

    records = load_jsonl(obs.trace_jsonl())
    print()
    print(summarize(records))
    print()
    print("span tree:")
    print(render_tree(records))

    if args.trace:
        obs.tracer.write_jsonl(args.trace)
        print(f"\nwrote trace to {args.trace}")
    if args.metrics:
        write_prometheus(obs.registry, args.metrics)
        print(f"wrote metrics to {args.metrics}")
    print("\nOK")


if __name__ == "__main__":
    main()
