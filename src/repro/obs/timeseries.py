"""Cross-run time-series store with windowed drift detection.

A :class:`TimeSeriesStore` appends one compact JSONL row per round (or
sweep point): the registry snapshot plus caller-supplied metadata.  The
analysis half turns a history back into per-round value series and runs
a windowed regression / anomaly check over them.

Usage::

    store = TimeSeriesStore("history.jsonl")
    store.append(obs.registry.snapshot(), round=3, drop_rate=0.2)

    rows = TimeSeriesStore.load("history.jsonl")
    report = detect_drift(gauge_series(rows, "auction_last_welfare"))

The command-line gate over a history is an SLO file's ``drift`` block
(:mod:`repro.obs.slo`): ``python -m repro.obs.report --slo
objectives.json history.jsonl``.

Rows hold *cumulative* registry state; counter and histogram extractors
therefore diff consecutive rows to recover per-round values, while
gauges (per-round statements already) are read directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence


class TimeSeriesStore:
    """Append-only JSONL history of registry snapshots."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.appended = 0

    def append(
        self, snapshot: Mapping[str, Any], **meta: Any
    ) -> Dict[str, Any]:
        """Append one row ``{"meta": ..., <snapshot sections>}``."""
        row: Dict[str, Any] = {"meta": dict(meta)}
        for section in ("counters", "gauges", "histograms"):
            row[section] = dict(snapshot.get(section, {}))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(row, sort_keys=True, separators=(",", ":"))
            )
            handle.write("\n")
        self.appended += 1
        return row

    @staticmethod
    def load(path: str) -> List[Dict[str, Any]]:
        with open(path, "r", encoding="utf-8") as handle:
            return [
                json.loads(line)
                for line in handle
                if line.strip()
            ]


# ----------------------------------------------------------------------
# Series extraction
# ----------------------------------------------------------------------
def gauge_series(
    rows: Sequence[Mapping[str, Any]], name: str
) -> List[float]:
    """Per-row values of a gauge (rows without the series are skipped)."""
    out: List[float] = []
    for row in rows:
        value = row.get("gauges", {}).get(name)
        if value is not None:
            out.append(float(value))
    return out


def counter_series(
    rows: Sequence[Mapping[str, Any]], name: str, delta: bool = True
) -> List[float]:
    """Per-row counter values; ``delta=True`` diffs consecutive rows."""
    raw = [
        float(row.get("counters", {}).get(name, 0.0)) for row in rows
    ]
    if not delta:
        return raw
    out: List[float] = []
    prev = 0.0
    for value in raw:
        out.append(value - prev)
        prev = value
    return out


def latency_series(
    rows: Sequence[Mapping[str, Any]], series: str
) -> List[float]:
    """Per-round mean seconds from a cumulative histogram series.

    Registry histograms expose count/sum (no buckets), so the per-round
    latency is the delta-sum over delta-count between consecutive rows —
    exact means, not quantile estimates.
    """
    out: List[float] = []
    prev_count = 0.0
    prev_sum = 0.0
    for row in rows:
        hist = row.get("histograms", {}).get(series)
        if hist is None:
            continue
        d_count = float(hist["count"]) - prev_count
        d_sum = float(hist["sum"]) - prev_sum
        prev_count = float(hist["count"])
        prev_sum = float(hist["sum"])
        if d_count > 0:
            out.append(d_sum / d_count)
    return out


# ----------------------------------------------------------------------
# Windowed regression and drift
# ----------------------------------------------------------------------
def least_squares_slope(values: Sequence[float]) -> float:
    """Ordinary least-squares slope of ``values`` against 0..n-1."""
    n = len(values)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = math.fsum(values) / n
    num = math.fsum(
        (i - mean_x) * (v - mean_y) for i, v in enumerate(values)
    )
    den = math.fsum((i - mean_x) ** 2 for i in range(n))
    return num / den if den else 0.0


def p95(values: Sequence[float]) -> float:
    """Nearest-rank 95th percentile (0.0 on empty input)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return ordered[rank]


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one windowed drift check."""

    series: str
    n: int
    window: int
    baseline: float
    recent: float
    relative_change: float
    slope: float
    drifting: bool

    def describe(self) -> str:
        verdict = "DRIFT" if self.drifting else "stable"
        return (
            f"{self.series}: {verdict} "
            f"(baseline {self.baseline:g} -> recent {self.recent:g}, "
            f"change {self.relative_change:+.1%}, "
            f"slope {self.slope:+.3g}/round, n={self.n})"
        )


def detect_drift(
    values: Sequence[float],
    window: int = 5,
    threshold: float = 0.2,
    series: str = "series",
    statistic: str = "mean",
) -> DriftReport:
    """Compare the trailing window against the window before it.

    ``drifting`` is true when the recent window's statistic (``mean`` or
    ``p95``) moved more than ``threshold`` (relative) away from the
    baseline window's, *and* the trailing regression over both windows
    backs the move: its slope points the same way and its projected
    change across the span covers at least half the observed shift — a
    spike confined to one round moves the mean but projects almost no
    sustained change, so it does not trip the detector.  Short histories
    (< 2 windows) never drift.
    """
    n = len(values)
    if statistic not in ("mean", "p95"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if window < 1:
        raise ValueError("window must be >= 1")
    if n < 2 * window:
        return DriftReport(
            series=series, n=n, window=window,
            baseline=0.0, recent=0.0,
            relative_change=0.0, slope=0.0, drifting=False,
        )
    recent_values = list(values[-window:])
    baseline_values = list(values[-2 * window:-window])

    def stat(chunk: List[float]) -> float:
        if statistic == "p95":
            return p95(chunk)
        return math.fsum(chunk) / len(chunk)

    baseline = stat(baseline_values)
    recent = stat(recent_values)
    scale = max(abs(baseline), 1e-12)
    relative_change = (recent - baseline) / scale
    slope = least_squares_slope(list(values[-2 * window:]))
    shift = recent - baseline
    projected = slope * (2 * window - 1)
    drifting = (
        abs(relative_change) > threshold
        and (slope > 0.0 if shift > 0.0 else slope < 0.0)
        and abs(projected) >= abs(shift) / 2.0
    )
    return DriftReport(
        series=series, n=n, window=window,
        baseline=baseline, recent=recent,
        relative_change=relative_change, slope=slope, drifting=drifting,
    )
