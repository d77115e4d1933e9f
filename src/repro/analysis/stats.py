"""Summary statistics for experiment outputs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.errors import ValidationError


@dataclass(frozen=True)
class Summary:
    """Mean with a confidence interval and spread."""

    mean: float
    std: float
    ci_low: float
    ci_high: float
    count: int

    def __str__(self) -> str:
        return (
            f"{self.mean:.4f} +/- {(self.ci_high - self.ci_low) / 2:.4f} "
            f"(n={self.count})"
        )


def summarize(values: Sequence[float], confidence: float = 0.95) -> Summary:
    """Mean and t-interval of ``values``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValidationError("cannot summarize an empty sequence")
    mean = float(arr.mean())
    if arr.size == 1:
        return Summary(mean=mean, std=0.0, ci_low=mean, ci_high=mean, count=1)
    # imported here: node processes import this package through
    # ``repro.sim`` and never summarize, so they should not load scipy
    from scipy import stats as scipy_stats

    std = float(arr.std(ddof=1))
    sem = std / math.sqrt(arr.size)
    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2, df=arr.size - 1))
    return Summary(
        mean=mean,
        std=std,
        ci_low=mean - t_crit * sem,
        ci_high=mean + t_crit * sem,
        count=int(arr.size),
    )


def ratio_of_sums(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    """Pooled ratio, robust to near-zero individual denominators."""
    denom = float(np.sum(denominators))
    if denom == 0:
        return 0.0
    return float(np.sum(numerators)) / denom
