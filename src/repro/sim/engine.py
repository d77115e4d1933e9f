"""Market simulator: clears blocks with DeCloud and its benchmark.

The simulator is the evaluation driver: it takes generated markets (or a
stream of them), runs the truthful mechanism and the non-truthful greedy
reference on identical inputs, and collects :class:`BlockMetrics`.  Block
evidence is derived deterministically from the seed so the verifiable
randomization is reproducible without a full ledger in the loop (the
ledger-backed path is exercised by :mod:`repro.protocol` and its tests).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.baselines.greedy import GreedyBenchmark
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.core.outcome import AuctionOutcome
from repro.market.bids import Offer, Request
from repro.obs import ObservabilityLike, resolve as resolve_obs
from repro.sim.metrics import BlockMetrics, RunMetrics, compare_outcomes


def _evidence_for(seed: int, index: int) -> bytes:
    return hashlib.sha256(f"block-{seed}-{index}".encode()).digest()


def replay_fault_free(
    requests: Sequence[Request],
    offers: Sequence[Offer],
    evidence: bytes,
    config: Optional[AuctionConfig] = None,
) -> dict:
    """The allocation payload a fault-free run produces on exactly these bids.

    Chaos experiments and property tests use this as the ground truth: a
    round that completed under injected faults must carry the *same*
    payload a lossless network would have produced on the surviving bid
    subset with the same block evidence — faults may shrink the market,
    never corrupt the mechanism.
    """
    auction = DecloudAuction(config or AuctionConfig())
    return auction.run(requests, offers, evidence=evidence).to_payload()


@dataclass
class MarketSimulator:
    """Runs paired DeCloud/benchmark clearings over blocks of bids.

    ``obs`` (optional :class:`~repro.obs.Observability`) records both
    mechanisms' rounds under ``mechanism=decloud`` / ``=benchmark``
    label scopes, and its trace carries the auction's phase spans
    (match / cluster / normalize / assemble / clear) for every block
    the simulator clears — :func:`~repro.obs.trace.span_seconds` reads
    where rounds spend their time.  A monitor suite attached to the
    bundle is evaluated on every DeCloud outcome (the benchmark
    deliberately breaks the §IV invariants and is skipped).  The
    :class:`BlockMetrics` always come from the outcomes themselves
    (:func:`~repro.sim.metrics.compare_outcomes`), with or without it.
    """

    config: AuctionConfig = field(default_factory=AuctionConfig)
    seed: int = 0
    obs: Optional[ObservabilityLike] = None
    _block_index: int = 0

    def __post_init__(self) -> None:
        self.obs = resolve_obs(self.obs)
        self._auction = DecloudAuction(self.config)
        self._benchmark = GreedyBenchmark(self.config)

    def run_block(
        self,
        requests: Sequence[Request],
        offers: Sequence[Offer],
        evidence: Optional[bytes] = None,
    ) -> Tuple[BlockMetrics, AuctionOutcome, AuctionOutcome]:
        """Clear one block with both mechanisms on identical inputs."""
        if evidence is None:
            evidence = _evidence_for(self.seed, self._block_index)
        self._block_index += 1
        decloud = self._auction.run(
            requests,
            offers,
            evidence=evidence,
            obs=self.obs.scoped(mechanism="decloud"),
        )
        benchmark = self._benchmark.run(
            requests, offers, obs=self.obs.scoped(mechanism="benchmark")
        )
        metrics = compare_outcomes(
            len(requests), len(offers), decloud, benchmark
        )
        return metrics, decloud, benchmark

    def run_stream(
        self,
        markets: Iterable[Tuple[Sequence[Request], Sequence[Offer]]],
    ) -> RunMetrics:
        """Clear a sequence of blocks and aggregate."""
        blocks: List[BlockMetrics] = []
        for requests, offers in markets:
            metrics, _, _ = self.run_block(requests, offers)
            blocks.append(metrics)
        return RunMetrics(blocks=blocks)
