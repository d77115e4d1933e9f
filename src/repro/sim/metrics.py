"""Evaluation metrics comparing DeCloud to its benchmark (paper §V)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.outcome import AuctionOutcome


@dataclass(frozen=True)
class BlockMetrics:
    """Metrics for one block cleared by both mechanisms."""

    n_requests: int
    n_offers: int
    decloud_welfare: float
    benchmark_welfare: float
    decloud_trades: int
    benchmark_trades: int
    reduced_trades: int
    decloud_satisfaction: float
    benchmark_satisfaction: float
    total_payments: float
    total_revenues: float

    @property
    def welfare_ratio(self) -> float:
        """DeCloud / benchmark welfare — Fig. 5b's y-axis."""
        if self.benchmark_welfare <= 0:
            return 1.0 if self.decloud_welfare <= 0 else float("inf")
        return self.decloud_welfare / self.benchmark_welfare

    @property
    def reduced_trade_fraction(self) -> float:
        """Fraction of the benchmark's trades lost to reduction — Fig. 5c."""
        if self.benchmark_trades <= 0:
            return 0.0
        lost = max(0, self.benchmark_trades - self.decloud_trades)
        return lost / self.benchmark_trades

    @property
    def budget_imbalance(self) -> float:
        """Payments minus revenues — zero for a strongly BB mechanism."""
        return self.total_payments - self.total_revenues


def compare_outcomes(
    n_requests: int,
    n_offers: int,
    decloud: AuctionOutcome,
    benchmark: AuctionOutcome,
) -> BlockMetrics:
    """Build :class:`BlockMetrics` from the two mechanisms' outcomes."""
    return BlockMetrics(
        n_requests=n_requests,
        n_offers=n_offers,
        decloud_welfare=decloud.welfare,
        benchmark_welfare=benchmark.welfare,
        decloud_trades=decloud.num_trades,
        benchmark_trades=benchmark.num_trades,
        reduced_trades=decloud.num_reduced,
        decloud_satisfaction=decloud.satisfaction,
        benchmark_satisfaction=benchmark.satisfaction,
        total_payments=decloud.total_payments,
        total_revenues=sum(decloud.revenues().values()),
    )


@dataclass
class RunMetrics:
    """Aggregate over a sequence of blocks."""

    blocks: List[BlockMetrics]

    @property
    def total_decloud_welfare(self) -> float:
        return sum(b.decloud_welfare for b in self.blocks)

    @property
    def total_benchmark_welfare(self) -> float:
        return sum(b.benchmark_welfare for b in self.blocks)

    @property
    def pooled_welfare_ratio(self) -> float:
        total = self.total_benchmark_welfare
        if total <= 0:
            return 1.0
        return self.total_decloud_welfare / total

    @property
    def pooled_reduced_fraction(self) -> float:
        benchmark_trades = sum(b.benchmark_trades for b in self.blocks)
        if benchmark_trades <= 0:
            return 0.0
        lost = sum(
            max(0, b.benchmark_trades - b.decloud_trades) for b in self.blocks
        )
        return lost / benchmark_trades

    @property
    def mean_satisfaction(self) -> float:
        if not self.blocks:
            return 0.0
        return sum(b.decloud_satisfaction for b in self.blocks) / len(
            self.blocks
        )


def pooled_metrics(blocks: Sequence[BlockMetrics]) -> RunMetrics:
    return RunMetrics(blocks=list(blocks))
