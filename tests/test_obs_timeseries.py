"""Time-series store and drift detection (repro.obs.timeseries)."""

from __future__ import annotations

import json

import pytest

from repro.obs import Observability
from repro.obs.timeseries import (
    TimeSeriesStore,
    counter_series,
    detect_drift,
    gauge_series,
    latency_series,
    least_squares_slope,
    p95,
)
from repro.sim.engine import MarketSimulator
from repro.workloads.generators import MarketScenario


def _rows_from_registry(tmp_path, updates):
    """Append one row per update batch through a live registry."""
    store = TimeSeriesStore(str(tmp_path / "history.jsonl"))
    obs = Observability("ts")
    for i, batch in enumerate(updates):
        batch(obs.registry)
        store.append(obs.registry.snapshot(), round=i)
    return store, TimeSeriesStore.load(store.path)


class TestStore:
    def test_append_load_roundtrip(self, tmp_path):
        store, rows = _rows_from_registry(
            tmp_path,
            [
                lambda reg: (reg.inc("trades_total", 3), reg.set("w", 1.5)),
                lambda reg: (reg.inc("trades_total", 2), reg.set("w", 2.5)),
            ],
        )
        assert store.appended == 2
        assert len(rows) == 2
        assert rows[0]["meta"] == {"round": 0}
        assert rows[1]["counters"]["trades_total"] == 5.0
        assert rows[1]["gauges"]["w"] == 2.5

    def test_rows_are_compact_sorted_json(self, tmp_path):
        store, _ = _rows_from_registry(
            tmp_path, [lambda reg: reg.inc("a", 1)]
        )
        line = open(store.path).read().splitlines()[0]
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )


class TestSeriesExtraction:
    def test_counter_series_diffs_cumulative_rows(self, tmp_path):
        _, rows = _rows_from_registry(
            tmp_path,
            [lambda reg, k=k: reg.inc("n", k) for k in (1, 4, 2)],
        )
        assert counter_series(rows, "n") == [1.0, 4.0, 2.0]
        assert counter_series(rows, "n", delta=False) == [1.0, 5.0, 7.0]

    def test_gauge_series_reads_values_directly(self, tmp_path):
        _, rows = _rows_from_registry(
            tmp_path,
            [lambda reg, v=v: reg.set("g", v) for v in (1.0, 3.0)],
        )
        assert gauge_series(rows, "g") == [1.0, 3.0]
        assert gauge_series(rows, "missing") == []

    def test_latency_series_is_delta_mean_per_row(self, tmp_path):
        _, rows = _rows_from_registry(
            tmp_path,
            [
                lambda reg: reg.observe("lat", 2.0),
                lambda reg: (reg.observe("lat", 4.0), reg.observe("lat", 6.0)),
            ],
        )
        assert latency_series(rows, "lat") == [2.0, 5.0]


class TestDriftDetection:
    def test_stable_series_does_not_drift(self):
        report = detect_drift([1.0] * 10, window=5)
        assert not report.drifting
        assert report.relative_change == 0.0

    def test_sustained_rise_drifts(self):
        values = [1.0] * 5 + [1.5, 1.6, 1.7, 1.8, 1.9]
        report = detect_drift(values, window=5, threshold=0.2)
        assert report.drifting
        assert report.relative_change > 0.2
        assert report.slope > 0
        assert "DRIFT" in report.describe()

    def test_single_spike_does_not_drift(self):
        # the mean moves but the trailing slope is flat-to-negative
        values = [1.0] * 5 + [5.0, 1.0, 1.0, 1.0, 1.0]
        report = detect_drift(values, window=5, threshold=0.2)
        assert not report.drifting

    def test_short_history_never_drifts(self):
        assert not detect_drift([1.0, 100.0], window=5).drifting

    def test_p95_statistic(self):
        assert p95([]) == 0.0
        assert p95(list(range(1, 101))) == 95
        report = detect_drift(
            [1.0] * 5 + [2.0] * 5, window=5, statistic="p95"
        )
        assert report.baseline == 1.0
        assert report.recent == 2.0

    def test_rejects_unknown_statistic_and_bad_window(self):
        with pytest.raises(ValueError):
            detect_drift([1.0], statistic="median")
        with pytest.raises(ValueError):
            detect_drift([1.0], window=0)

    def test_least_squares_slope(self):
        assert least_squares_slope([1.0, 2.0, 3.0]) == pytest.approx(1.0)
        assert least_squares_slope([2.0]) == 0.0


class TestSimulatorWiring:
    def test_market_simulator_appends_one_row_per_block(self, tmp_path):
        store = TimeSeriesStore(str(tmp_path / "sim.jsonl"))
        obs = Observability("sim")
        simulator = MarketSimulator(obs=obs, seed=1)
        for block in range(3):
            requests, offers = MarketScenario(
                n_requests=10, seed=1
            ).generate()
            simulator.run_block(requests, offers)
            store.append(obs.registry.snapshot(), block=block, seed=1)
        rows = TimeSeriesStore.load(store.path)
        assert [row["meta"]["block"] for row in rows] == [0, 1, 2]
        assert gauge_series(
            rows, "auction_last_welfare{mechanism=decloud}"
        )

