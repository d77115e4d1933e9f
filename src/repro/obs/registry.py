"""Labeled metrics registry: counters, gauges, histograms.

A :class:`MetricsRegistry` is the single sink every instrumented layer
writes into — the auction, the exposure protocol, the ledger paths, the
settlement processor, and the simulators.  Series are identified by a
metric name plus a sorted label set, so the same registry can hold, say,
``auction_last_welfare{mechanism=decloud}`` next to
``auction_last_welfare{mechanism=benchmark}`` and the evaluation reads
both back without recomputing anything from outcomes.

Only the standard library is used, and the whole module is value-only:
nothing here ever feeds back into the mechanism, so instrumentation can
never perturb auction outcomes (the differential suite runs with a live
registry attached to enforce exactly that).

The disabled path is :data:`NULL_REGISTRY`, a shared no-op whose methods
return immediately — instrumented code pays (almost) nothing when nobody
is observing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

#: Histogram bucket upper bounds (seconds / prices / sizes all fit); the
#: final +Inf bucket is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
    100.0, 500.0, 1000.0,
)

LabelItems = Tuple[Tuple[str, str], ...]
SeriesKey = Tuple[str, LabelItems]


def _label_items(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def series_name(name: str, labels: LabelItems) -> str:
    """Render one series as ``name{k=v,...}`` (stable, diffable)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _HistogramSeries:
    """Count / sum / min / max plus fixed cumulative buckets."""

    __slots__ = ("count", "sum", "min", "max", "bucket_counts", "bounds")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"count": self.count, "sum": self.sum}
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        return out


class MetricsRegistry:
    """Counters, gauges, and histograms under one roof.

    * ``inc(name, value, **labels)`` — monotone counter (floats allowed:
      welfare and payment totals are counters too).
    * ``set(name, value, **labels)`` — gauge holding the last value; the
      per-round "last_*" series the evaluation reads are gauges, so their
      values are exact (no accumulated float error).
    * ``observe(name, value, **labels)`` — histogram sample.
    """

    enabled = True

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[SeriesKey, float] = {}
        self.gauges: Dict[SeriesKey, float] = {}
        self.histograms: Dict[SeriesKey, _HistogramSeries] = {}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        key = (name, _label_items(labels))
        self.counters[key] = self.counters.get(key, 0.0) + value

    def set(self, name: str, value: float, **labels: object) -> None:
        self.gauges[(name, _label_items(labels))] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = (name, _label_items(labels))
        series = self.histograms.get(key)
        if series is None:
            series = self.histograms[key] = _HistogramSeries()
        series.observe(value)

    def labeled(self, **labels: object) -> "LabeledRegistry":
        """A write view that stamps ``labels`` onto every series."""
        return LabeledRegistry(self, _label_items(labels))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: object) -> float:
        return self.counters.get((name, _label_items(labels)), 0.0)

    def gauge_value(
        self, name: str, default: float = 0.0, **labels: object
    ) -> float:
        return self.gauges.get((name, _label_items(labels)), default)

    def histogram_stats(self, name: str, **labels: object) -> Dict[str, object]:
        series = self.histograms.get((name, _label_items(labels)))
        return series.to_dict() if series is not None else {"count": 0, "sum": 0.0}

    def series(self) -> List[str]:
        """Every live series name, sorted (debugging/discovery aid)."""
        keys: Iterable[SeriesKey] = (
            list(self.counters) + list(self.gauges) + list(self.histograms)
        )
        return sorted(series_name(name, labels) for name, labels in keys)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict copy of every series (JSON-ready, diffable)."""
        return {
            "counters": {
                series_name(n, l): v for (n, l), v in sorted(self.counters.items())
            },
            "gauges": {
                series_name(n, l): v for (n, l), v in sorted(self.gauges.items())
            },
            "histograms": {
                series_name(n, l): h.to_dict()
                for (n, l), h in sorted(self.histograms.items())
            },
        }

    def to_prometheus_text(self) -> str:
        from repro.obs.export import to_prometheus_text

        return to_prometheus_text(self)


class LabeledRegistry:
    """Write-through view adding fixed labels to every call.

    The simulator hands the auction ``registry.labeled(mechanism=...)``
    so one shared registry separates the truthful mechanism's series from
    the benchmark's without the auction knowing which role it plays.
    """

    enabled = True

    __slots__ = ("_base", "_labels")

    def __init__(self, base: MetricsRegistry, labels: LabelItems) -> None:
        self._base = base
        self._labels = labels

    def _merge(self, labels: Mapping[str, object]) -> Dict[str, object]:
        merged = dict(self._labels)
        merged.update({k: str(v) for k, v in labels.items()})
        return merged

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        self._base.inc(name, value, **self._merge(labels))

    def set(self, name: str, value: float, **labels: object) -> None:
        self._base.set(name, value, **self._merge(labels))

    def observe(self, name: str, value: float, **labels: object) -> None:
        self._base.observe(name, value, **self._merge(labels))

    def labeled(self, **labels: object) -> "LabeledRegistry":
        return LabeledRegistry(self._base, _label_items(self._merge(labels)))

    def counter_value(self, name: str, **labels: object) -> float:
        return self._base.counter_value(name, **self._merge(labels))

    def gauge_value(
        self, name: str, default: float = 0.0, **labels: object
    ) -> float:
        return self._base.gauge_value(name, default, **self._merge(labels))


class NullRegistry:
    """Inert registry: the off-by-default-cheap path."""

    enabled = False

    __slots__ = ()

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        return None

    def set(self, name: str, value: float, **labels: object) -> None:
        return None

    def observe(self, name: str, value: float, **labels: object) -> None:
        return None

    def labeled(self, **labels: object) -> "NullRegistry":
        return self

    def counter_value(self, name: str, **labels: object) -> float:
        return 0.0

    def gauge_value(
        self, name: str, default: float = 0.0, **labels: object
    ) -> float:
        return default

    def histogram_stats(self, name: str, **labels: object) -> Dict[str, object]:
        return {"count": 0, "sum": 0.0}

    def series(self) -> List[str]:
        return []

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def to_prometheus_text(self) -> str:
        return ""


NULL_REGISTRY = NullRegistry()


def snapshot_diff(
    before: Mapping[str, Mapping[str, object]],
    after: Mapping[str, Mapping[str, object]],
) -> Dict[str, Dict[str, object]]:
    """What changed between two :meth:`MetricsRegistry.snapshot` calls.

    Counters diff numerically; gauges report their new value whenever it
    changed (a gauge is a statement of current state, not a delta);
    histograms diff their counts and sums.  Series absent from ``before``
    count from zero, so diffing against an early snapshot is exact for
    fresh series.
    """
    out: Dict[str, Dict[str, object]] = {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for key, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(key, 0.0)
        if delta != 0.0:
            out["counters"][key] = delta
    before_gauges = before.get("gauges", {})
    for key, value in after.get("gauges", {}).items():
        if key not in before_gauges or before_gauges[key] != value:
            out["gauges"][key] = value
    for key, hist in after.get("histograms", {}).items():
        prev: Mapping[str, object] = before.get("histograms", {}).get(
            key, {"count": 0, "sum": 0.0}
        )
        count_delta = hist["count"] - prev.get("count", 0)
        if count_delta:
            out["histograms"][key] = {
                "count": count_delta,
                "sum": hist["sum"] - prev.get("sum", 0.0),
            }
    return out
