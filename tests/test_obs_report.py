"""Tests for the trace summary CLI (python -m repro.obs.report)."""

import json

import pytest

from repro.obs import Observability, Tracer
from repro.obs.export import write_prometheus
from repro.obs.report import (
    build_tree,
    main,
    render_failing_tree,
    render_tree,
    summarize,
)
from repro.obs.trace import load_jsonl


def sample_tracer():
    tracer = Tracer()
    with tracer.span("round", index=0):
        with tracer.span("mine", leader="m0"):
            pass
        with tracer.span("reveal"):
            tracer.event("reveal.excluded", txid="t1")
    return tracer


class TestBuildTree:
    def test_structure(self):
        records = load_jsonl(sample_tracer().to_jsonl())
        roots = build_tree(records)
        assert len(roots) == 1
        round_node = roots[0]
        assert round_node["name"] == "round"
        assert [c["name"] for c in round_node["children"]] == [
            "mine", "reveal",
        ]
        reveal = round_node["children"][1]
        assert reveal["events"] == [
            {"name": "reveal.excluded", "attrs": {"txid": "t1"}}
        ]
        assert round_node["seconds"] is not None

    def test_stripped_trace_has_no_seconds(self):
        records = load_jsonl(sample_tracer().to_jsonl(strip_wall=True))
        roots = build_tree(records)
        assert roots[0]["seconds"] is None

    def test_top_level_event_becomes_root(self):
        tracer = Tracer()
        tracer.event("lonely")
        roots = build_tree(load_jsonl(tracer.to_jsonl()))
        assert roots[0]["name"] == "lonely"
        assert roots[0]["status"] == "event"


class TestSummarize:
    def test_counts_spans_and_events(self):
        records = load_jsonl(sample_tracer().to_jsonl())
        text = summarize(records)
        assert "3 spans" in text
        assert "1 events" in text
        for name in ("round", "mine", "reveal", "reveal.excluded"):
            assert name in text

    def test_error_span_counted(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        text = summarize(load_jsonl(tracer.to_jsonl()))
        assert "boom" in text


class TestRenderTree:
    def test_indentation_and_events(self):
        text = render_tree(load_jsonl(sample_tracer().to_jsonl()))
        lines = text.splitlines()
        assert lines[0].startswith("- round")
        assert any(line.startswith("  - mine") for line in lines)
        assert any("* reveal.excluded" in line for line in lines)


class TestCli:
    def test_main_summary(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        sample_tracer().write_jsonl(str(path))
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "round" in out

    def test_main_tree_flag(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        sample_tracer().write_jsonl(str(path))
        assert main([str(path), "--tree"]) == 0
        assert "- round" in capsys.readouterr().out

    def test_main_with_metrics_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        sample_tracer().write_jsonl(str(trace))
        obs = Observability("cli")
        obs.registry.inc("rounds")
        prom = tmp_path / "metrics.prom"
        write_prometheus(obs.registry, str(prom))
        assert main([str(trace), "--metrics", str(prom)]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "rounds" in out

    def test_main_requires_some_input(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "required" in capsys.readouterr().err


class TestRenderFailingTree:
    def test_failing_path_marked_to_the_root(self):
        tracer = Tracer()
        with tracer.span("round", index=0):
            with tracer.span("reveal"):
                tracer.event("reveal.excluded", txid="t1", sender="mallory")
            with tracer.span("commit"):
                tracer.event("round.committed", height=0)
        text = render_failing_tree(load_jsonl(tracer.to_jsonl()))
        lines = text.splitlines()
        # the exclusion, its span, and the round ancestor are all marked
        assert any(l.startswith("!") and "round {" in l for l in lines)
        assert any(l.startswith("!") and "- reveal" in l for l in lines)
        assert any(l.startswith("!") and "reveal.excluded" in l for l in lines)
        # the healthy commit branch is not
        assert any(l.startswith(" ") and "- commit" in l for l in lines)

    def test_error_status_marks_without_failing_events(self):
        tracer = Tracer()
        try:
            with tracer.span("round"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        text = render_failing_tree(load_jsonl(tracer.to_jsonl()))
        assert text.splitlines()[0].startswith("!")
        assert "[error]" in text


class TestSnapshotDiffCli:
    def test_main_snapshot_diff(self, tmp_path, capsys):
        obs = Observability("diff")
        obs.registry.inc("trades_total", 2)
        obs.registry.set("welfare", 1.0)
        before = tmp_path / "before.json"
        before.write_text(json.dumps(obs.registry.snapshot()))
        obs.registry.inc("trades_total", 3)
        obs.registry.set("welfare", 4.5)
        obs.registry.observe("phase_seconds", 0.25, phase="clear")
        after = tmp_path / "after.json"
        after.write_text(json.dumps(obs.registry.snapshot()))

        assert main(["--snapshot-diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "snapshot diff" in out
        assert "trades_total  +3" in out
        assert "welfare  -> 4.5" in out
        assert "phase_seconds{phase=clear}  +1 obs" in out

    def test_identical_snapshots_report_no_changes(self, tmp_path, capsys):
        obs = Observability("diff")
        obs.registry.inc("trades_total")
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(obs.registry.snapshot()))
        assert main(["--snapshot-diff", str(path), str(path)]) == 0
        assert "(no changes)" in capsys.readouterr().out


class TestDiagnostics:
    """Broken input must produce a diagnostic and exit 2, never a
    traceback or a silently empty report (PR 10 regression)."""

    def test_empty_trace_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "empty trace" in err

    def test_missing_trace_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_truncated_jsonl_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        good = sample_tracer()
        good.write_jsonl(str(path))
        with open(path, "a") as fh:
            fh.write('{"type":"span","name":"chopped')  # mid-write crash
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "truncated or corrupt JSONL" in err
        # the diagnostic points at the exact line
        lines = path.read_text().splitlines()
        assert f"{path}:{len(lines)}" in err

    def test_non_record_rows_rejected(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"no_type_field": 1}\n')
        assert main([str(path)]) == 2
        assert "not a trace record" in capsys.readouterr().err


class TestFlameCli:
    def _traced_rounds(self, tmp_path):
        from repro.sim.sustained import SustainedSpec, run_sustained

        obs = Observability()
        run_sustained(SustainedSpec(rounds=2, seed=7, difficulty_bits=4), obs=obs)
        path = tmp_path / "trace.jsonl"
        obs.tracer.write_jsonl(str(path))
        return path

    def test_flame_renders_cause_table(self, tmp_path, capsys):
        assert main(["--flame", str(self._traced_rounds(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "flame summary" in out
        for phase in ("seal", "mine", "propose", "verify"):
            assert f"\n  {phase} " in out
        assert "runtime;round_0001;mine 1000000" in out

    def test_flame_missing_file_is_diagnosed(self, tmp_path, capsys):
        assert main(["--flame", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_flame_of_an_untraced_runtime_is_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        sample_tracer().write_jsonl(str(path))
        assert main(["--flame", str(path)]) == 2
        assert "no runtime.phase events" in capsys.readouterr().err
