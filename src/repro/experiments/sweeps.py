"""The two parameter sweeps behind Fig. 5.

* :func:`run_size_sweep` — the market-size sweep shared by Fig. 5a/5b/5c:
  Google-trace-style requests on EC2 M5 offers, inflexible matching,
  valuations = best-match cost x U[0.5, 2].
* :func:`run_similarity_sweep` — the supply/demand-divergence sweep shared
  by Fig. 5d/5e/5f: KLD-controlled class distributions at several
  flexibility levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core.config import AuctionConfig
from repro.sim.engine import MarketSimulator
from repro.sim.metrics import BlockMetrics
from repro.workloads.divergence import DivergenceScenario, tilt_for_similarity
from repro.workloads.generators import MarketScenario

#: Cluster breadth used throughout the evaluation: wide enough that
#: clusters spread demand over the supply pool (the paper's clustering is
#: degenerate when only four machine shapes exist and breadth is tiny).
EVAL_BREADTH = 16

DEFAULT_SIZES: Tuple[int, ...] = (25, 50, 100, 200, 400, 800)
FAST_SIZES: Tuple[int, ...] = (25, 50, 100)
DEFAULT_SIMILARITIES: Tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
FAST_SIMILARITIES: Tuple[float, ...] = (0.3, 0.9)


def eval_config(**overrides) -> AuctionConfig:
    params = {"cluster_breadth": EVAL_BREADTH}
    params.update(overrides)
    return AuctionConfig(**params)


@dataclass(frozen=True)
class SizePoint:
    """One (market size, seed) observation."""

    n_requests: int
    n_offers: int
    seed: int
    metrics: BlockMetrics


def run_size_sweep(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: Iterable[int] = range(5),
    offers_per_request: float = 0.5,
    config: AuctionConfig | None = None,
) -> List[SizePoint]:
    """Clear one block per (size, seed) with DeCloud and the benchmark.

    Each point's :class:`BlockMetrics` compares the two outcomes
    directly.
    """
    config = config or eval_config()
    seeds = list(seeds)
    points: List[SizePoint] = []
    for n_requests in sizes:
        for seed in seeds:
            scenario = MarketScenario(
                n_requests=n_requests,
                offers_per_request=offers_per_request,
                seed=seed,
            )
            requests, offers = scenario.generate()
            simulator = MarketSimulator(config=config, seed=seed)
            metrics, _, _ = simulator.run_block(requests, offers)
            points.append(
                SizePoint(
                    n_requests=n_requests,
                    n_offers=scenario.n_offers,
                    seed=seed,
                    metrics=metrics,
                )
            )
    return points


@dataclass(frozen=True)
class SimilarityPoint:
    """One (similarity, flexibility, seed) observation."""

    similarity: float
    flexibility: float
    seed: int
    metrics: BlockMetrics


def run_similarity_sweep(
    similarities: Sequence[float] = DEFAULT_SIMILARITIES,
    flexibilities: Sequence[float] = (1.0, 0.8),
    seeds: Iterable[int] = range(5),
    n_requests: int = 150,
    n_offers: int = 75,
    config: AuctionConfig | None = None,
) -> List[SimilarityPoint]:
    """Clear one block per (similarity, flexibility, seed).

    Scenarios differing only in flexibility sample identical markets
    (paired comparison), mirroring the paper's flexible-vs-inflexible
    panels.
    """
    config = config or eval_config()
    seeds = list(seeds)
    points: List[SimilarityPoint] = []
    for target in similarities:
        tilt = tilt_for_similarity(target)
        for flexibility in flexibilities:
            for seed in seeds:
                scenario = DivergenceScenario(
                    tilt=tilt,
                    n_requests=n_requests,
                    n_offers=n_offers,
                    flexibility=flexibility,
                    seed=seed,
                )
                requests, offers = scenario.generate()
                simulator = MarketSimulator(config=config, seed=seed)
                metrics, _, _ = simulator.run_block(requests, offers)
                points.append(
                    SimilarityPoint(
                        similarity=target,
                        flexibility=flexibility,
                        seed=seed,
                        metrics=metrics,
                    )
                )
    return points
