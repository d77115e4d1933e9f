"""Sustained-traffic driver: continuous arrivals through protocol rounds.

The chaos and durability harnesses submit each round's market as a
burst.  Edge clouds do not work like that: bids trickle in continuously
while the previous block is still mining (paper §VI's "online
appearance").  This module generates seeded exponential inter-arrival
offsets for every round's bids and drives the market through the
reactor, where round *N*+1's arrivals overlap round *N*'s
mine/verify/commit span.  With ``pipeline=False`` the same reactor runs
rounds back to back, one after the other on the virtual clock — the
baseline for the rounds/sec comparison in
``benchmarks/test_bench_runtime.py``.  Both schedules commit
bit-identical blocks for the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.common.rng import make_generator
from repro.common.timewindow import TimeWindow
from repro.core.config import AuctionConfig
from repro.ledger.miner import Miner
from repro.market.bids import Offer, Request
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.exposure import Participant
from repro.runtime import RoundInput, Runtime


@dataclass(frozen=True)
class SustainedSpec:
    """A sustained-traffic experiment: seeded markets + arrival cadence."""

    num_clients: int = 4
    num_providers: int = 2
    num_miners: int = 3
    rounds: int = 4
    seed: int = 0
    difficulty_bits: int = 4
    #: mean virtual seconds between consecutive bid arrivals within a
    #: round (exponential inter-arrival times, seeded per round)
    mean_interarrival: float = 0.2
    config: Optional[AuctionConfig] = None


@dataclass
class SustainedResult:
    """What one sustained run committed, and how fast (virtually)."""

    pipeline: bool
    rounds_attempted: int
    rounds_committed: int
    welfare: float
    #: reactor-clock duration
    virtual_time: float
    overlap_rounds: int
    block_hashes: Tuple[str, ...]
    errors: List[str]

    @property
    def rounds_per_virtual_second(self) -> float:
        if not self.virtual_time:
            return 0.0
        return self.rounds_committed / self.virtual_time


def _market_for_round(
    spec: SustainedSpec, round_index: int
) -> Tuple[List[Request], List[Offer]]:
    rng = make_generator(f"sustained-market-{spec.seed}-{round_index}")
    requests = [
        Request(
            request_id=f"req-{round_index}-{i}",
            client_id=f"cli-{i}",
            submit_time=0.1 * i,
            resources={"cpu": 2, "ram": 4},
            window=TimeWindow(0, 10),
            duration=4.0,
            bid=float(rng.uniform(1.2, 3.0)),
        )
        for i in range(spec.num_clients)
    ]
    offers = [
        Offer(
            offer_id=f"off-{round_index}-{j}",
            provider_id=f"prov-{j}",
            submit_time=0.1 * j,
            resources={"cpu": 8, "ram": 32},
            window=TimeWindow(0, 24),
            bid=float(rng.uniform(0.2, 0.8)),
        )
        for j in range(spec.num_providers)
    ]
    return requests, offers


def _participants(spec: SustainedSpec) -> Dict[str, Participant]:
    seal_seed = f"sustained-{spec.seed}".encode("ascii")
    ids = [f"cli-{i}" for i in range(spec.num_clients)] + [
        f"prov-{j}" for j in range(spec.num_providers)
    ]
    return {
        pid: Participant(
            participant_id=pid, deterministic=True, seal_seed=seal_seed
        )
        for pid in ids
    }


def arrival_offsets(spec: SustainedSpec, round_index: int) -> Tuple[float, ...]:
    """Cumulative exponential inter-arrival offsets for one round's bids."""
    rng = make_generator(f"sustained-arrivals-{spec.seed}-{round_index}")
    count = spec.num_clients + spec.num_providers
    clock = 0.0
    offsets = []
    for _ in range(count):
        clock += float(rng.exponential(spec.mean_interarrival))
        offsets.append(clock)
    return tuple(offsets)


def build_round_inputs(
    spec: SustainedSpec, participants: Dict[str, Participant]
) -> List[RoundInput]:
    """Every round's submissions with their seeded arrival offsets."""
    inputs: List[RoundInput] = []
    for round_index in range(spec.rounds):
        requests, offers = _market_for_round(spec, round_index)
        bids: List[Tuple[Participant, Union[Request, Offer]]] = [
            (participants[r.client_id], r) for r in requests
        ] + [(participants[o.provider_id], o) for o in offers]
        inputs.append(
            RoundInput(
                submissions=tuple(bids),
                offsets=arrival_offsets(spec, round_index),
            )
        )
    return inputs


def _build_miners(spec: SustainedSpec) -> List[Miner]:
    return [
        Miner(
            miner_id=f"m{i}",
            allocate=DecloudAllocator(spec.config),
            difficulty_bits=spec.difficulty_bits,
        )
        for i in range(spec.num_miners)
    ]


def run_sustained(
    spec: SustainedSpec,
    pipeline: bool = True,
    schedule_seed: Optional[Union[int, str]] = None,
    obs: Optional[object] = None,
) -> SustainedResult:
    """Drive ``spec.rounds`` rounds of continuous arrivals to commit.

    ``obs`` passes straight through to the reactor: its trace carries
    one ``runtime.phase`` event per phase boundary, which
    :func:`repro.obs.report.phase_flame` folds into the per-round stall
    flame of the very run whose throughput is reported.
    """
    runtime = Runtime(
        _build_miners(spec),
        schedule_seed=(
            f"sustained-sched-{spec.seed}"
            if schedule_seed is None
            else schedule_seed
        ),
        pipeline=pipeline,
        obs=obs,
    )
    report = runtime.run(build_round_inputs(spec, _participants(spec)))
    return SustainedResult(
        pipeline=pipeline,
        rounds_attempted=spec.rounds,
        rounds_committed=len(report.committed),
        welfare=sum(r.outcome.welfare for r in report.committed),
        virtual_time=report.virtual_time,
        overlap_rounds=report.overlap_rounds,
        block_hashes=tuple(
            r.result.block.hash()
            for r in report.rounds
            if r.result is not None
        ),
        errors=[
            f"round {r.index}: {r.error}" for r in report.rounds if r.error
        ],
    )
