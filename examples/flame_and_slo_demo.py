#!/usr/bin/env python
"""Stall flame and SLO demo: where a round waited, and whether it met its goals.

Two legs over ``repro.obs``:

1. **Stall flame** — the async reactor runs a sustained market with an
   ``Observability`` bundle attached.  Every phase boundary of a round
   is a ``runtime.phase`` trace event stamped with virtual time, and
   :func:`repro.obs.report.phase_flame` folds those events into
   per-round seal / mine / reveal / propose / verify weights whose sum
   is the round's whole lifetime.  The trace JSONL and the folded text
   are written for CI to upload.
2. **SLO gate** — a short round history lands in a
   :class:`repro.obs.timeseries.TimeSeriesStore`, and declarative
   objectives (welfare floor, clear-latency ceiling) evaluate against
   it with error budgets; ``repro.obs.report --slo`` exits nonzero when
   one is violated.

Run:  python examples/flame_and_slo_demo.py
      python examples/flame_and_slo_demo.py --out flame-bundle
          # write artifacts (CI uploads the bundle)

Inspect the artifacts later with::

    python -m repro.obs.report --flame flame-bundle/trace.jsonl
    python -m repro.obs.report --slo flame-bundle/slo.json \\
        flame-bundle/history.jsonl
"""

from __future__ import annotations

import argparse
import json
import os

from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.obs import Observability
from repro.obs.report import phase_flame
from repro.obs.slo import Objective, evaluate, render
from repro.obs.timeseries import TimeSeriesStore
from repro.sim.sustained import SustainedSpec, run_sustained
from repro.workloads.generators import generate_zone_market

EVIDENCE = b"flame-demo"


def run_traced_runtime(out_dir: str | None) -> str:
    """Leg 1: the stall flame, read off the run's own trace."""
    spec = SustainedSpec(rounds=3, seed=7, difficulty_bits=4)
    obs = Observability("flame-demo-runtime")
    result = run_sustained(spec, obs=obs)
    folded = phase_flame(obs.tracer.records)

    print(
        f"\nruntime: {result.rounds_committed}/{spec.rounds} rounds "
        f"committed in {result.virtual_time:.2f} virtual seconds"
    )
    print("stall flame (virtual seconds by round and phase):")
    round_frames = set()
    for line in folded.splitlines():
        stack, weight = line.rsplit(" ", 1)
        _, round_frame, phase = stack.split(";")
        print(f"  {round_frame}  {phase:<8} {int(weight) / 1e6:8.3f} s")
        round_frames.add(round_frame)
    assert result.rounds_committed == spec.rounds == len(round_frames), (
        "a round failed or left no phase marks"
    )

    if out_dir:
        trace_path = os.path.join(out_dir, "trace.jsonl")
        obs.tracer.write_jsonl(trace_path)
        folded_path = os.path.join(out_dir, "stalls.folded")
        with open(folded_path, "w", encoding="utf-8") as handle:
            handle.write(folded)
        print(f"wrote the trace to {trace_path} and its flame to {folded_path}")
    return folded


def run_slo_gate(out_dir: str | None) -> None:
    """Leg 2: objectives with error budgets over a round history."""
    store_path = (
        os.path.join(out_dir, "history.jsonl") if out_dir else None
    )
    rows = []
    obs = Observability("flame-demo-slo")
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

    run_traced_runtime(args.out)
    run_slo_gate(args.out)
    print("\nOK")


if __name__ == "__main__":
    main()
