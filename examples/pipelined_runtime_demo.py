#!/usr/bin/env python
"""Pipelined runtime demo: overlap rounds, commit the same chain.

Drives one sustained-arrival market (bids trickle in on seeded
exponential inter-arrival times) through the async reactor twice —
pipelined, then back-to-back (one round after the other on the virtual
clock) — and once more back-to-back through ``run_sustained`` under
another scheduler seed.  Prints the per-round timeline, the
virtual-clock throughput win, and checks that all three schedules
committed **bit-identical** blocks, which is the whole point:
pipelining reshapes the schedule, never the chain.

Run:  python examples/pipelined_runtime_demo.py

See docs/RUNTIME.md for the architecture and determinism contract.
"""

from __future__ import annotations

from repro.ledger.miner import Miner
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.exposure import Participant
from repro.runtime import Runtime, RuntimeReport
from repro.sim.sustained import (
    SustainedSpec,
    build_round_inputs,
    run_sustained,
)

SPEC = SustainedSpec(
    num_clients=4,
    num_providers=2,
    num_miners=3,
    rounds=3,
    seed=7,
    difficulty_bits=4,
    mean_interarrival=0.18,
)


def _miners() -> list:
    return [
        Miner(
            miner_id=f"m{i}",
            allocate=DecloudAllocator(SPEC.config),
            difficulty_bits=SPEC.difficulty_bits,
        )
        for i in range(SPEC.num_miners)
    ]


def _participants() -> dict:
    # the same id-derived deterministic sealing run_sustained uses, so
    # its run below seals byte-identical transactions
    seal_seed = f"sustained-{SPEC.seed}".encode("ascii")
    ids = [f"cli-{i}" for i in range(SPEC.num_clients)] + [
        f"prov-{j}" for j in range(SPEC.num_providers)
    ]
    return {
        pid: Participant(
            participant_id=pid, deterministic=True, seal_seed=seal_seed
        )
        for pid in ids
    }


def _drive(pipeline: bool) -> RuntimeReport:
    runtime = Runtime(
        _miners(), schedule_seed="demo-sched", pipeline=pipeline
    )
    return runtime.run(build_round_inputs(SPEC, _participants()))


def _timeline(label: str, report: RuntimeReport) -> None:
    print(f"\n{label}")
    print("  round  seal-open  committed  overlapped  block")
    for rnd in report.rounds:
        block_hash = rnd.result.block.hash()[:12] if rnd.result else "-"
        print(
            f"  {rnd.index:>5}  {rnd.seal_opened_at:>9.2f}"
            f"  {rnd.finished_at:>9.2f}  {str(rnd.overlapped):>10}"
            f"  {block_hash}"
        )
    print(
        f"  virtual time {report.virtual_time:.2f}s, "
        f"{len(report.committed)}/{len(report.rounds)} committed, "
        f"{report.overlap_rounds} overlapped, "
        f"{report.messages_delivered} messages delivered"
    )


def main() -> None:
    print(
        f"sustained market: {SPEC.num_clients} clients, "
        f"{SPEC.num_providers} providers, {SPEC.num_miners} miners, "
        f"{SPEC.rounds} rounds, mean inter-arrival "
        f"{SPEC.mean_interarrival}s (virtual)"
    )

    pipelined = _drive(pipeline=True)
    sequential = _drive(pipeline=False)
    _timeline("pipelined reactor", pipelined)
    _timeline("same reactor, pipeline off (sequential schedule)", sequential)

    speedup = (
        pipelined.rounds_per_virtual_second
        / sequential.rounds_per_virtual_second
    )
    print(
        f"\nthroughput: pipelined "
        f"{pipelined.rounds_per_virtual_second:.3f} rounds/vs vs "
        f"{sequential.rounds_per_virtual_second:.3f} rounds/vs "
        f"({speedup:.2f}x)"
    )

    hashes = [
        tuple(r.block.hash() for r in report.committed)
        for report in (pipelined, sequential)
    ]
    reseeded = run_sustained(SPEC, pipeline=False)
    hashes.append(reseeded.block_hashes)
    assert hashes[0] == hashes[1] == hashes[2], "schedules forked the chain"
    print(
        "pipelined, sequential, and reseeded sequential chains are "
        "bit-identical"
    )
    assert speedup > 1.0
    print("OK")


if __name__ == "__main__":
    main()
