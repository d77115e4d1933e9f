#!/usr/bin/env python
"""Telemetry-plane demo: stall flames, fleet frames, and SLO gates.

Two legs over ``repro.obs``:

1. **Pipeline stall profiler** — the async reactor runs a sustained
   market with a :class:`repro.obs.profile.PipelineProfiler` attached
   (per-round seal-wait / mine / verify / commit attribution on the
   virtual clock) and a :class:`repro.obs.TelemetryAggregator`
   subscribed to the runtime's periodic snapshot-diff frames.  The
   folded flame-graph export is written for CI to upload.
2. **SLO gate** — a short round history lands in a
   :class:`repro.obs.timeseries.TimeSeriesStore`, and declarative
   objectives (welfare floor, clear-latency ceiling) evaluate against
   it with error budgets; ``repro.obs.report --slo`` exits nonzero when
   one is violated.

Run:  python examples/telemetry_demo.py
      python examples/telemetry_demo.py --out telemetry-bundle
          # write artifacts (CI uploads the bundle)

Inspect the artifacts later with::

    python -m repro.obs.report --flame telemetry-bundle/stalls.folded
    python -m repro.obs.report --slo telemetry-bundle/slo.json \\
        telemetry-bundle/history.jsonl
"""

from __future__ import annotations

import argparse
import json
import os

from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.obs import Observability, TelemetryAggregator
from repro.obs.profile import PipelineProfiler
from repro.obs.slo import Objective, evaluate, render
from repro.obs.timeseries import TimeSeriesStore
from repro.runtime import Runtime
from repro.sim.sustained import SustainedSpec, build_round_inputs
from repro.workloads.generators import generate_zone_market

EVIDENCE = b"telemetry-demo"


def run_runtime_with_profiler(out_dir: str | None) -> PipelineProfiler:
    """Leg 1: stall attribution + periodic frames into an aggregator."""
    spec = SustainedSpec(rounds=3, seed=7, difficulty_bits=4)
    seal_seed = f"sustained-{spec.seed}".encode("ascii")
    from repro.ledger.miner import Miner
    from repro.protocol.allocator import DecloudAllocator
    from repro.protocol.exposure import Participant

    participants = {
        pid: Participant(
            participant_id=pid, deterministic=True, seal_seed=seal_seed
        )
        for pid in [f"cli-{i}" for i in range(spec.num_clients)]
        + [f"prov-{j}" for j in range(spec.num_providers)]
    }
    miners = [
        Miner(
            miner_id=f"m{i}",
            allocate=DecloudAllocator(spec.config),
            difficulty_bits=spec.difficulty_bits,
        )
        for i in range(spec.num_miners)
    ]

    obs = Observability("telemetry-demo-runtime")
    profiler = PipelineProfiler()
    runtime = Runtime(
        miners,
        schedule_seed="telemetry-demo",
        obs=obs,
        profiler=profiler,
        telemetry_interval=0.5,
    )
    aggregator = TelemetryAggregator()
    aggregator.subscribe(runtime.transport)
    report = runtime.run(build_round_inputs(spec, participants))

    print(
        f"\nruntime: {len(report.committed)}/{spec.rounds} rounds committed "
        f"in {report.virtual_time:.2f} virtual seconds, occupancy "
        f"{obs.registry.gauge_value('pipeline_occupancy'):.2f}"
    )
    print("stall attribution (virtual seconds by cause):")
    for cause, total in sorted(profiler.cause_totals().items()):
        unit = "events" if cause == "wal_append" else "s"
        print(f"  {cause:<16} {total:8.3f} {unit}")
    print(
        f"aggregator merged {aggregator.frames} snapshot-diff frames "
        f"from {aggregator.nodes()}"
    )
    committed = aggregator.counter_total("runtime_rounds_committed_total")
    assert committed == len(report.committed), "aggregated view diverged"

    if out_dir:
        path = os.path.join(out_dir, "stalls.folded")
        profiler.write_folded(path)
        print(f"wrote flame-graph folded stacks to {path}")
    return profiler


def run_slo_gate(out_dir: str | None) -> None:
    """Leg 2: objectives with error budgets over a round history."""
    store_path = (
        os.path.join(out_dir, "history.jsonl") if out_dir else None
    )
    rows = []
    obs = Observability("telemetry-demo-slo")
    store = TimeSeriesStore(store_path) if store_path else None
    requests, offers, _ = generate_zone_market(
        60, n_zones=2, seed=3, kind="network", locality="strong",
    )
    for round_index in range(4):
        DecloudAuction(AuctionConfig(engine="vectorized")).run(
            requests, offers,
            evidence=EVIDENCE + str(round_index).encode(),
            obs=obs,
        )
        snapshot = obs.registry.snapshot()
        if store is not None:
            store.append(snapshot, round=round_index)
        rows.append({"meta": {"round": round_index}, **snapshot})

    objectives = [
        Objective(
            name="welfare-floor",
            series="auction_last_welfare",
            kind="gauge", op=">=", target=1.0, budget=0.25,
        ),
        Objective(
            name="clear-latency",
            series="auction_phase_seconds{phase=clear}",
            kind="latency", op="<=", target=0.5, budget=0.1,
        ),
    ]
    results = evaluate(rows, objectives)
    print("\nSLO evaluation:")
    print(render(results))
    assert all(r.ok for r in results), "demo objectives must hold"

    if out_dir:
        slo_path = os.path.join(out_dir, "slo.json")
        with open(slo_path, "w") as fh:
            json.dump(
                {
                    "objectives": [
                        {
                            "name": o.name, "series": o.series,
                            "kind": o.kind, "op": o.op, "target": o.target,
                            "budget": o.budget,
                        }
                        for o in objectives
                    ]
                },
                fh, indent=2,
            )
        print(f"wrote objectives to {slo_path} and history to {store_path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", help="directory for artifacts (flame, SLO)"
    )
    args = parser.parse_args()
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    run_runtime_with_profiler(args.out)
    run_slo_gate(args.out)
    print("\nOK")


if __name__ == "__main__":
    main()
