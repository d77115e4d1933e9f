"""Unit tests for the deterministic span/event tracer (repro.obs.trace)."""

import json
import time

import pytest

from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig, ShardPlan
from repro.obs import NULL_TRACER, Observability, Tracer
from repro.obs.report import build_tree
from repro.obs.trace import load_jsonl, span_seconds, strip_wall
from repro.workloads.generators import generate_zone_market


def record_types(tracer):
    return [r["type"] for r in tracer.records]


class TestSpans:
    def test_span_start_end_pair(self):
        tracer = Tracer()
        with tracer.span("round", index=3):
            pass
        assert record_types(tracer) == ["span_start", "span_end"]
        start, end = tracer.records
        assert start["name"] == end["name"] == "round"
        assert start["attrs"] == {"index": 3}
        assert start["span"] == end["span"] == 1
        assert start["parent"] is None
        assert end["status"] == "ok"

    def test_nesting_sets_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        starts = [r for r in tracer.records if r["type"] == "span_start"]
        assert starts[0]["parent"] is None
        assert starts[1]["parent"] == starts[0]["span"]

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        end = tracer.records[-1]
        assert end["type"] == "span_end"
        assert end["status"] == "error"

    def test_stack_recovers_after_error(self):
        tracer = Tracer()
        try:
            with tracer.span("a"):
                raise ValueError
        except ValueError:
            pass
        assert tracer.current_span is None
        with tracer.span("b"):
            assert tracer.current_span is not None


class TestEvents:
    def test_event_attaches_to_innermost_span(self):
        tracer = Tracer()
        with tracer.span("round"):
            tracer.event("reveal.excluded", txid="t1")
        event = tracer.records[1]
        assert event["type"] == "event"
        assert event["span"] == 1
        assert event["attrs"] == {"txid": "t1"}

    def test_top_level_event_has_null_span(self):
        tracer = Tracer()
        tracer.event("note")
        assert tracer.records[0]["span"] is None


class TestDeterminism:
    def _run(self):
        tracer = Tracer()
        with tracer.span("auction", requests=4):
            with tracer.span("match"):
                pass
            tracer.event("auction.cleared", trades=2)
        return tracer

    def test_seq_is_monotonic_per_record(self):
        tracer = self._run()
        assert [r["seq"] for r in tracer.records] == [1, 2, 3, 4, 5]

    def test_stripped_jsonl_is_byte_identical_across_runs(self):
        a = self._run().to_jsonl(strip_wall=True)
        b = self._run().to_jsonl(strip_wall=True)
        assert a == b
        assert "wall" not in a

    def test_unstripped_jsonl_carries_wall(self):
        text = self._run().to_jsonl()
        assert all("wall" in r for r in load_jsonl(text))

    def test_strip_wall_helper_matches_export_flag(self):
        tracer = self._run()
        assert strip_wall(tracer.to_jsonl()) == tracer.to_jsonl(
            strip_wall=True
        )

    def test_jsonl_lines_have_sorted_keys(self):
        for line in self._run().to_jsonl(strip_wall=True).splitlines():
            record = json.loads(line)
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )


class TestExport:
    def test_write_jsonl_roundtrips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("round"):
            tracer.event("x")
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        assert load_jsonl(path.read_text()) == tracer.records

    def test_empty_tracer_exports_empty(self):
        assert Tracer().to_jsonl() == ""


class TestNullTracer:
    def test_inert(self):
        with NULL_TRACER.span("anything", a=1):
            NULL_TRACER.event("nothing")
        assert NULL_TRACER.records == ()
        assert NULL_TRACER.to_jsonl() == ""

    def test_shared_records_cannot_be_appended_to(self):
        # One NullTracer backs every disabled bundle in the process, and
        # the dark auction path reads its records: they must stay empty.
        from repro.core.auction import DecloudAuction
        from repro.workloads.generators import generate_market

        with pytest.raises(AttributeError):
            NULL_TRACER.records.append({"type": "event"})
        DecloudAuction().run(*generate_market(20, seed=1))
        assert len(NULL_TRACER.records) == 0


def _ticked(tracer):
    """The tracer's records with ``wall`` set to ``seq``: every record
    is one second after the last, so durations are exact integers."""
    return [dict(record, wall=float(record["seq"])) for record in tracer.records]


class TestSpanSeconds:
    def test_accumulates_per_name_over_repeated_and_nested_spans(self):
        tracer = Tracer()
        with tracer.span("round"):        # seq 1 .. 8
            with tracer.span("match"):    # seq 2 .. 3
                pass
            with tracer.span("match"):    # seq 4 .. 7
                with tracer.span("clear"):  # seq 5 .. 6
                    pass
        assert span_seconds(_ticked(tracer)) == {
            "match": {"seconds": 4.0, "count": 2, "aborted": 0},
            "clear": {"seconds": 1.0, "count": 1, "aborted": 0},
            "round": {"seconds": 7.0, "count": 1, "aborted": 0},
        }

    def test_parent_keeps_only_direct_children(self):
        tracer = Tracer()
        with tracer.span("round"):
            with tracer.span("match"):
                with tracer.span("inner"):
                    pass
            with tracer.span("clear"):
                pass
        with tracer.span("match"):  # a later round's, not under span 1
            pass
        assert set(span_seconds(_ticked(tracer), parent=1)) == {"match", "clear"}
        assert span_seconds(_ticked(tracer), parent=1)["match"]["count"] == 1
        assert span_seconds(_ticked(tracer))["match"]["count"] == 2

    def test_exception_counts_aborted_and_keeps_partial_time(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("round"):       # seq 1 .. 6
                with tracer.span("mine"):    # seq 2 .. 3
                    pass
                with tracer.span("reveal"):  # seq 4 .. 5
                    raise ValueError("withheld")
        assert span_seconds(_ticked(tracer)) == {
            "mine": {"seconds": 1.0, "count": 1, "aborted": 0},
            "reveal": {"seconds": 1.0, "count": 1, "aborted": 1},
            "round": {"seconds": 5.0, "count": 1, "aborted": 1},
        }

    def test_stripped_records_count_with_zero_seconds(self):
        tracer = Tracer()
        with tracer.span("match"):
            pass
        stripped = load_jsonl(tracer.to_jsonl(strip_wall=True))
        assert span_seconds(stripped) == {
            "match": {"seconds": 0.0, "count": 1, "aborted": 0},
        }

    def test_open_span_is_ignored(self):
        # A flight dump taken mid-round holds a span_start with no end.
        tracer = Tracer()
        with tracer.span("mine"):
            pass
        tracer.span("reveal").__enter__()
        assert set(span_seconds(tracer.records)) == {"mine"}

    def test_system_clock_step_does_not_move_durations(self, monkeypatch):
        tracer = Tracer()
        real = time.time
        with tracer.span("match"):
            tracer.event("ntp.step")
            monkeypatch.setattr(time, "time", lambda: real() - 3600.0)
        monkeypatch.undo()
        assert 0.0 <= span_seconds(tracer.records)["match"]["seconds"] < 1.0
        (node,) = build_tree(tracer.records)
        assert 0.0 <= node["seconds"] < 1.0


# ----------------------------------------------------------------------
# No shard runs dark: shards clear in process under the caller's obs
# ----------------------------------------------------------------------
class TestNoDarkShards:
    def test_every_shard_and_the_spillover_trace_and_report(self):
        requests, offers, _ = generate_zone_market(
            40, n_zones=3, seed=7, kind="network", locality="strong",
            cross_zone_fraction=0.25,
        )
        obs = Observability()
        auction = DecloudAuction(
            AuctionConfig(sharding=ShardPlan(kind="network"))
        )
        outcome = auction.run(
            requests, offers, evidence=b"shard-trace-test", obs=obs
        )
        assert outcome.matches
        stats = auction.last_shard_stats
        assert stats["spillover_ran"] and stats["cleared_shards"] >= 2

        records = obs.tracer.records
        names = {
            r["span"]: r["name"] for r in records if r["type"] == "span_start"
        }
        auctions_under = {}
        for record in records:
            if record["type"] == "span_start" and record["name"] == "auction":
                parent = names[record["parent"]]
                auctions_under[parent] = auctions_under.get(parent, 0) + 1
        assert auctions_under == {
            "shard_clear": stats["cleared_shards"], "spillover": 1,
        }

        # the per-shard phase split, one series per shard and phase
        shipped = {}
        for (name, labels), series in obs.registry.histograms.items():
            items = dict(labels)
            if name == "auction_phase_seconds" and "shard" in items:
                assert series.count == 1
                shipped.setdefault(items["shard"], set()).add(items["phase"])
        assert set(shipped) == set(stats["shard_seconds"]) | {"spillover"}
        for phases in shipped.values():
            assert phases == {
                "match", "cluster", "normalize", "assemble", "clear",
            }

        # the merged round's own series stay unlabelled, with its phases
        reg = obs.registry
        assert reg.counter_value("auction_rounds_total") == 1
        assert reg.gauge_value("auction_last_trades") == len(outcome.matches)
        merged_phases = {
            dict(labels)["phase"]
            for (name, labels) in reg.histograms
            if name == "auction_phase_seconds" and "shard" not in dict(labels)
        }
        assert merged_phases == {"shard_partition", "shard_clear", "spillover"}
