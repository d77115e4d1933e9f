#!/usr/bin/env python
"""Crash-matrix smoke: a seeded subset of crash points, CI-gated.

Runs the durable-round differential, driven by the pipelined runtime,
on a strided subset of WAL append boundaries (every boundary × {clean,
torn, corrupt} is the full matrix covered by
``tests/test_crash_matrix.py``; CI samples it to stay fast).
For every sampled crash point the node is killed mid-append, restarted
from (snapshot, valid log prefix), and the recovered run must be
bit-identical to the uninterrupted reference — committed outcomes,
chain tip, state digest, zero monitor alerts.

A second pass crosses the roll boundary: a one-block window
(``snapshot_every=1``) over ``CHAOS_ROLL_ROUNDS`` rounds rolls the
stores every commit — snapshot, compaction, pruning — so the sampled
crash points land before, inside and after several roll-offs, some with
two rounds in flight.

On any mismatch the failing cell is re-run with a flight recorder
attached and its bundle is written to ``--out`` (CI uploads it as the
``crash-matrix`` artifact), then the script exits non-zero.

Run:  python examples/crash_matrix_smoke.py
Env:  CHAOS_CRASH_STRIDE (default 4), CHAOS_CRASH_ROUNDS (default 1),
      CHAOS_ROLL_ROUNDS (default 3)
"""

from __future__ import annotations

import argparse
import os

from repro.faults.crash import CrashPoint
from repro.obs import Observability
from repro.obs.flight import FlightRecorder
from repro.obs.monitors import MonitorSuite
from repro.sim.chaos import ChaosSpec, run_crash_matrix, run_durable_scenario


def smoke_spec(rounds: int) -> ChaosSpec:
    # degraded (one withholding client) but delivery-deterministic:
    # bit-equality needs the replayed round to see the exact message
    # stream the first attempt saw
    return ChaosSpec(
        num_clients=2,
        num_providers=1,
        num_miners=3,
        rounds=rounds,
        seed=5,
        withholding_clients=1,
        max_delay=0.0,
    )


def dump_mismatch_bundle(spec, point, out_dir: str) -> str:
    """Re-run one mismatched cell with a flight recorder and dump it."""
    flight = FlightRecorder(capacity=8, out_dir=out_dir)
    obs = Observability(
        run_id=f"crash-matrix-{point.at_append}-{point.mode}",
        monitors=MonitorSuite(),
        flight=flight,
    )
    run = run_durable_scenario(
        spec,
        crash_point=CrashPoint(at_append=point.at_append, mode=point.mode),
        snapshot_every=1,
        obs=obs,
    )
    return flight.dump(
        trigger="recovery-mismatch",
        error=(
            f"at_append={point.at_append} mode={point.mode}: "
            f"{point.detail} (crashes={run.crashes}, "
            f"replayed={run.replayed_rounds}, resumed={run.resumed_rounds})"
        ),
        round_index=point.at_append,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="crash-matrix-bundles",
        help="directory for flight bundles on mismatch",
    )
    args = parser.parse_args()
    stride = int(os.environ.get("CHAOS_CRASH_STRIDE", "4"))
    rounds = int(os.environ.get("CHAOS_CRASH_ROUNDS", "1"))
    roll_rounds = int(os.environ.get("CHAOS_ROLL_ROUNDS", "3"))
    failed = 0
    for spec in (smoke_spec(rounds), smoke_spec(roll_rounds)):
        failed += run_pass(spec, stride, args.out)
    if failed:
        raise SystemExit(
            f"{failed} crash point(s) did NOT recover "
            "bit-identically — durability contract violated"
        )


def run_pass(spec: ChaosSpec, stride: int, out: str) -> int:
    """One sampled matrix; returns how many of its cells mismatched."""
    matrix = run_crash_matrix(spec, snapshot_every=1, stride=stride)
    reference = matrix.reference
    print(
        f"crash-matrix smoke: {reference.append_count} WAL boundaries, "
        f"stride {stride} -> {len(matrix.points)} cells "
        f"(x3 modes), {spec.rounds} round(s), seed {spec.seed}"
    )
    print(
        f"reference: {reference.rounds_completed} round(s) committed, "
        f"tip {reference.tip_hash[:12]}..., "
        f"digest {reference.state_digest[:12]}..."
    )
    header = f"{'append':>6}  {'mode':>7}  {'recovered':>9}  detail"
    print(header)
    print("-" * len(header))
    for point in matrix.points:
        verdict = "ok" if point.matches_reference else "MISMATCH"
        path = (
            "replayed" if point.replayed_rounds else
            "resumed" if point.resumed_rounds else "none"
        )
        print(
            f"{point.at_append:>6}  {point.mode:>7}  {verdict:>9}  "
            f"{point.detail or f'via {path} path'}"
        )

    for point in matrix.mismatches:
        bundle = dump_mismatch_bundle(spec, point, out)
        print(f"flight bundle for the failing cell: {bundle}")
    if not matrix.mismatches:
        print(
            f"\nall {len(matrix.points)} sampled crash points recovered "
            "bit-identically to the uninterrupted run\n"
        )
    return len(matrix.mismatches)


if __name__ == "__main__":
    main()
