"""Unit tests for the metrics registry (repro.obs.registry)."""

from repro.obs import (
    NULL_OBS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullObservability,
    Observability,
    resolve,
    snapshot_diff,
)
from repro.obs.export import format_snapshot_diff, to_prometheus_text
from repro.obs.registry import series_name


class TestCounters:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", 2)
        assert reg.counter_value("hits") == 3.0

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.inc("bids", 3, side="request")
        reg.inc("bids", 5, side="offer")
        assert reg.counter_value("bids", side="request") == 3.0
        assert reg.counter_value("bids", side="offer") == 5.0
        assert reg.counter_value("bids") == 0.0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("m", 1, a="1", b="2")
        assert reg.counter_value("m", b="2", a="1") == 1.0

    def test_float_counters_allowed(self):
        reg = MetricsRegistry()
        reg.inc("welfare", 1.25)
        reg.inc("welfare", 0.75)
        assert reg.counter_value("welfare") == 2.0


class TestGauges:
    def test_set_holds_last_exact_value(self):
        reg = MetricsRegistry()
        reg.set("last_welfare", 0.1 + 0.2)
        reg.set("last_welfare", 7.25)
        assert reg.gauge_value("last_welfare") == 7.25

    def test_default_for_missing_series(self):
        reg = MetricsRegistry()
        assert reg.gauge_value("nope") == 0.0
        assert reg.gauge_value("nope", default=-1.0) == -1.0


class TestHistograms:
    def test_stats(self):
        reg = MetricsRegistry()
        for value in (0.5, 1.5, 4.0):
            reg.observe("price", value)
        stats = reg.histogram_stats("price")
        assert stats["count"] == 3
        assert stats["sum"] == 6.0
        assert stats["min"] == 0.5
        assert stats["max"] == 4.0

    def test_empty_stats(self):
        reg = MetricsRegistry()
        assert reg.histogram_stats("nothing") == {"count": 0, "sum": 0.0}


class TestLabeledView:
    def test_stamps_labels_on_every_kind(self):
        reg = MetricsRegistry()
        view = reg.labeled(mechanism="decloud")
        view.inc("trades", 2)
        view.set("last", 4.0)
        view.observe("price", 1.0)
        assert reg.counter_value("trades", mechanism="decloud") == 2.0
        assert reg.gauge_value("last", mechanism="decloud") == 4.0
        assert reg.histogram_stats("price", mechanism="decloud")["count"] == 1

    def test_nested_labels_merge(self):
        reg = MetricsRegistry()
        view = reg.labeled(mechanism="decloud").labeled(side="request")
        view.inc("bids")
        assert reg.counter_value(
            "bids", mechanism="decloud", side="request"
        ) == 1.0

    def test_call_site_labels_override(self):
        reg = MetricsRegistry()
        view = reg.labeled(side="request")
        view.inc("bids", side="offer")
        assert reg.counter_value("bids", side="offer") == 1.0


class TestSnapshot:
    def test_snapshot_keys_render_labels(self):
        reg = MetricsRegistry()
        reg.inc("bids", 2, side="request")
        snap = reg.snapshot()
        assert snap["counters"] == {"bids{side=request}": 2.0}
        assert series_name("bids", (("side", "request"),)) == "bids{side=request}"

    def test_snapshot_diff(self):
        reg = MetricsRegistry()
        reg.inc("rounds")
        reg.set("depth", 5)
        before = reg.snapshot()
        reg.inc("rounds", 2)
        reg.set("depth", 3)
        reg.observe("price", 1.0)
        diff = snapshot_diff(before, reg.snapshot())
        assert diff["counters"] == {"rounds": 2.0}
        assert diff["gauges"] == {"depth": 3.0}
        assert diff["histograms"]["price"]["count"] == 1

    def test_snapshot_diff_unchanged_is_empty(self):
        reg = MetricsRegistry()
        reg.inc("rounds")
        snap = reg.snapshot()
        diff = snapshot_diff(snap, reg.snapshot())
        assert diff == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_format_snapshot_diff_renders(self):
        reg = MetricsRegistry()
        before = reg.snapshot()
        reg.inc("rounds")
        text = format_snapshot_diff(snapshot_diff(before, reg.snapshot()))
        assert "rounds" in text
        assert format_snapshot_diff(
            snapshot_diff(before, before)
        ) == "  (no changes)"


class TestPrometheusExport:
    def test_series_quoting_and_histogram_pairs(self):
        reg = MetricsRegistry()
        reg.inc("trades", 3, mechanism="decloud")
        reg.set("depth", 2)
        reg.observe("price", 1.5)
        text = to_prometheus_text(reg)
        assert 'trades{mechanism="decloud"} 3.0' in text
        assert "depth 2.0" in text
        assert "price_count 1" in text
        assert "price_sum 1.5" in text

    def test_empty_registry_renders_empty(self):
        assert to_prometheus_text(MetricsRegistry()) == ""


class TestNullPath:
    def test_null_registry_is_inert(self):
        NULL_REGISTRY.inc("x")
        NULL_REGISTRY.set("x", 1.0)
        NULL_REGISTRY.observe("x", 1.0)
        assert NULL_REGISTRY.counter_value("x") == 0.0
        assert NULL_REGISTRY.series() == []
        assert NULL_REGISTRY.labeled(a="b") is NULL_REGISTRY
        assert NULL_REGISTRY.to_prometheus_text() == ""

    def test_resolve(self):
        assert resolve(None) is NULL_OBS
        obs = Observability("t")
        assert resolve(obs) is obs

    def test_null_observability_scoped_is_self(self):
        assert NULL_OBS.scoped(mechanism="decloud") is NULL_OBS
        assert not NULL_OBS.enabled
        assert isinstance(NULL_OBS, NullObservability)


class TestObservabilityBundle:
    def test_scoped_shares_tracer_and_timer(self):
        obs = Observability("run")
        view = obs.scoped(mechanism="decloud")
        assert view.tracer is obs.tracer
        view.registry.inc("rounds")
        assert obs.registry.counter_value(
            "rounds", mechanism="decloud"
        ) == 1.0

    def test_prometheus_text_unwraps_scoped_registry(self):
        obs = Observability("run")
        view = obs.scoped(mechanism="decloud")
        view.registry.inc("rounds")
        assert "rounds" in view.prometheus_text()
