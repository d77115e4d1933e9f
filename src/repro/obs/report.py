"""Round/run summary CLI for exported traces.

Usage::

    python -m repro.obs.report trace.jsonl            # summary table
    python -m repro.obs.report trace.jsonl --tree     # plus span tree
    python -m repro.obs.report trace.jsonl --metrics metrics.prom
    python -m repro.obs.report --flight flight_3.jsonl
    python -m repro.obs.report --flame trace.jsonl    # runtime stall flame
    python -m repro.obs.report --slo objectives.json history.jsonl
    python -m repro.obs.report --snapshot-diff before.json after.json

Reads a JSONL trace written by :meth:`repro.obs.Tracer.write_jsonl`
(wall-clock fields optional — a stripped deterministic trace still
summarizes, just without durations) and renders:

* a per-span-name table: count, error count, total wall seconds;
* a per-event-name table: count;
* with ``--tree``, the indented span tree with per-span events.

``--flight`` renders a flight-recorder bundle instead: the bundle's
frame summary plus the causal tree across every actor, with the failing
path (error spans, fault and exclusion events, and their ancestors)
highlighted by a leading ``!``.  ``--flame`` folds a runtime trace's
``runtime.phase`` events into the per-round stall flame
(:func:`phase_flame`).  ``--slo`` gates objectives on a snapshot
history.  ``--snapshot-diff`` pretty-prints the
:func:`~repro.obs.registry.snapshot_diff` between two exported registry
snapshot JSON files.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import load_jsonl  # noqa: F401  (re-exported for callers)
from repro.obs.trace import span_seconds


class ReportError(Exception):
    """A diagnosable input problem (bad path, empty or truncated file)."""


def load_trace_records(path: str) -> List[Dict[str, Any]]:
    """Load trace JSONL with line-precise diagnostics.

    Unlike :func:`~repro.obs.trace.load_jsonl` (which assumes a
    well-formed export), this loader names the file and line of the
    first corrupt record — the symptom of a truncated write — and
    rejects files with no records at all: an empty "trace" is a
    collection failure, not a trivially-summarizable run.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc}") from exc
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReportError(
                f"{path}:{lineno}: truncated or corrupt JSONL "
                f"({exc.msg} at column {exc.colno}); "
                f"re-export the trace or trim the partial line"
            ) from exc
        if not isinstance(record, dict) or "type" not in record:
            raise ReportError(
                f"{path}:{lineno}: not a trace record "
                f"(expected an object with a 'type' field)"
            )
        records.append(record)
    if not records:
        raise ReportError(
            f"{path}: empty trace — no JSONL records; "
            f"was the export interrupted before any span was written?"
        )
    return records


#: events that mark a node as part of the failing path
_FAILING_EVENTS = {
    "net.drop",
    "net.censored",
    "reveal.excluded",
    "reveal.timeout",
    "proposal.rejected",
    "round.aborted",
    "round.fallback",
    "monitor.violation",
}
_FAILING_PREFIXES = ("byzantine.",)


def build_tree(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Reassemble span nodes (with children/events) from flat records.

    Returns the list of root spans; each node is a dict with ``name``,
    ``attrs``, ``status``, ``seconds`` (None without wall fields),
    ``children``, and ``events``.
    """
    nodes: Dict[int, Dict[str, Any]] = {}
    roots: List[Dict[str, Any]] = []
    for record in records:
        kind = record.get("type")
        if kind == "span_start":
            node = {
                "span": record["span"],
                "name": record["name"],
                "attrs": record.get("attrs", {}),
                "status": "open",
                "seconds": None,
                "_wall_start": record.get("wall"),
                "children": [],
                "events": [],
            }
            nodes[record["span"]] = node
            parent = nodes.get(record.get("parent"))
            (parent["children"] if parent else roots).append(node)
        elif kind == "span_end":
            node = nodes.get(record["span"])
            if node is None:
                continue
            node["status"] = record.get("status", "ok")
            start = node.pop("_wall_start", None)
            wall = record.get("wall")
            if start is not None and wall is not None:
                node["seconds"] = wall - start
        elif kind == "event":
            parent = nodes.get(record.get("span"))
            event = {"name": record["name"], "attrs": record.get("attrs", {})}
            if parent is not None:
                parent["events"].append(event)
            else:
                roots.append({"name": record["name"], "attrs": event["attrs"],
                              "status": "event", "seconds": None,
                              "children": [], "events": [], "span": None})
    for node in nodes.values():
        node.pop("_wall_start", None)
    return roots


def summarize(records: List[Dict[str, Any]]) -> str:
    """The summary table the CLI prints (also used by tests)."""
    spans = span_seconds(records)
    timed = any("wall" in record for record in records)
    events: Dict[str, int] = {}
    for record in records:
        if record.get("type") == "event":
            events[record["name"]] = events.get(record["name"], 0) + 1

    lines = [
        f"trace summary: {len(records)} records, "
        f"{sum(s['count'] for s in spans.values())} spans, "
        f"{sum(events.values())} events"
    ]
    if spans:
        width = max(len(n) for n in spans)
        lines.append("")
        lines.append(f"  {'span':<{width}}  {'count':>5}  {'errors':>6}  seconds")
        for name in sorted(spans):
            stat = spans[name]
            seconds = f"{stat['seconds']:9.4f}" if timed else "        -"
            lines.append(
                f"  {name:<{width}}  {stat['count']:>5}  "
                f"{stat['aborted']:>6}  {seconds}"
            )
    if events:
        width = max(len(n) for n in events)
        lines.append("")
        lines.append(f"  {'event':<{width}}  count")
        for name in sorted(events):
            lines.append(f"  {name:<{width}}  {events[name]:>5}")
    return "\n".join(lines)


def render_tree(records: List[Dict[str, Any]]) -> str:
    """Indented span tree with inline events."""
    lines: List[str] = []

    def emit(node: Dict[str, Any], depth: int) -> None:
        indent = "  " * depth
        if node.get("status") == "event":
            lines.append(f"{indent}* {node['name']} {node['attrs'] or ''}".rstrip())
            return
        seconds = (
            f" ({node['seconds']:.4f}s)" if node["seconds"] is not None else ""
        )
        flag = " [error]" if node["status"] == "error" else ""
        attrs = f" {node['attrs']}" if node["attrs"] else ""
        lines.append(f"{indent}- {node['name']}{attrs}{seconds}{flag}")
        for event in node["events"]:
            lines.append(
                f"{indent}  * {event['name']} {event['attrs'] or ''}".rstrip()
            )
        for child in node["children"]:
            emit(child, depth + 1)

    for root in build_tree(records):
        emit(root, 0)
    return "\n".join(lines)


def _event_is_failing(name: str) -> bool:
    return name in _FAILING_EVENTS or name.startswith(_FAILING_PREFIXES)


def _mark_failing(node: Dict[str, Any]) -> bool:
    """Flag ``node`` (and return True) if its subtree holds a failure.

    A node fails directly when its span errored or it carries a failing
    event; ancestors of a failing node are flagged too so the rendered
    tree shows the whole causal path from root to fault.
    """
    direct = node.get("status") == "error" or (
        node.get("status") == "event" and _event_is_failing(node["name"])
    ) or any(
        _event_is_failing(event["name"]) for event in node["events"]
    )
    in_subtree = False
    for child in node["children"]:
        in_subtree = _mark_failing(child) or in_subtree
    node["_failing"] = direct or in_subtree
    return node["_failing"]


def render_failing_tree(records: List[Dict[str, Any]]) -> str:
    """The causal tree with every failing path prefixed by ``!``."""
    lines: List[str] = []

    def emit(node: Dict[str, Any], depth: int) -> None:
        mark = "!" if node.get("_failing") else " "
        indent = "  " * depth
        if node.get("status") == "event":
            flag = "!" if _event_is_failing(node["name"]) else " "
            lines.append(
                f"{flag}{indent}* {node['name']} {node['attrs'] or ''}".rstrip()
            )
            return
        status = f" [{node['status']}]" if node["status"] != "ok" else ""
        attrs = f" {node['attrs']}" if node["attrs"] else ""
        lines.append(f"{mark}{indent}- {node['name']}{attrs}{status}")
        for event in node["events"]:
            flag = "!" if _event_is_failing(event["name"]) else " "
            lines.append(
                f"{flag}{indent}  * {event['name']} "
                f"{event['attrs'] or ''}".rstrip()
            )
        for child in node["children"]:
            emit(child, depth + 1)

    roots = build_tree(records)
    for root in roots:
        _mark_failing(root)
    for root in roots:
        emit(root, 0)
    return "\n".join(lines)


def render_flight(
    meta: Dict[str, Any],
    records: List[Dict[str, Any]],
    headers: List[Dict[str, Any]],
) -> str:
    """Full flight-bundle report: header, frame table, causal tree."""
    lines = [
        f"flight recorder bundle: round {meta.get('round')} "
        f"triggered by {meta.get('trigger')} "
        f"(run {meta.get('run_id')}, {meta.get('frames')} frames)"
    ]
    if meta.get("error"):
        lines.append(f"  error: {meta['error']}")
    frame_rows = [h for h in headers if h.get("type") == "round_frame"]
    if frame_rows:
        lines.append("")
        lines.append("  round  status             records")
        for row in frame_rows:
            lines.append(
                f"  {row['round']:>5}  {row['status']:<17}  "
                f"{row['records']:>7}"
            )
    lines.append("")
    lines.append("causal tree (failing path marked with '!'):")
    lines.append(render_failing_tree(records))
    return "\n".join(lines)


def phase_flame(records: Iterable[Dict[str, Any]]) -> str:
    """Fold ``runtime.phase`` events into folded-stack flame lines.

    The reactor marks every phase boundary of a round with one event
    carrying ``round``, ``phase`` and ``vt`` (virtual seconds).  A phase's
    weight is the next mark's ``vt`` minus its own, in integer virtual
    microseconds, so a round's weights chain from seal-open to its
    terminal mark and sum to its whole lifetime.  Lines read
    ``runtime;round_0007;mine 1000000``, sorted (byte-identical across
    seeded replays); zero-width phases are left out.
    """
    marks: Dict[int, List[Tuple[str, int]]] = {}
    for record in records:
        if record.get("type") == "event" and record["name"] == "runtime.phase":
            attrs = record["attrs"]
            marks.setdefault(attrs["round"], []).append(
                (attrs["phase"], round(attrs["vt"] * 1_000_000))
            )
    weights: Dict[Tuple[int, str], int] = {}
    for round_index, chain in marks.items():
        for (phase, start), (_next, end) in zip(chain, chain[1:]):
            key = (round_index, phase)
            weights[key] = weights.get(key, 0) + end - start
    lines = sorted(
        f"runtime;round_{round_index:04d};{phase} {weight}"
        for (round_index, phase), weight in weights.items()
        if weight > 0
    )
    return "\n".join(lines) + ("\n" if lines else "")


def render_flame(path: str) -> str:
    """Summarize the stall flame of a runtime trace JSONL.

    Prints per-phase totals (the last stack frame) and the top stacks by
    weight — enough to read a pipeline's stall profile without an
    external flame-graph renderer.
    """
    folded = phase_flame(load_trace_records(path))
    stacks = [
        (stack, int(weight))
        for stack, weight in (line.rsplit(" ", 1) for line in folded.splitlines())
    ]
    if not stacks:
        raise ReportError(
            f"{path}: no runtime.phase events — was the run traced?"
        )
    phases: Dict[str, int] = {}
    for stack, weight in stacks:
        phase = stack.rsplit(";", 1)[-1]
        phases[phase] = phases.get(phase, 0) + weight
    lines = [f"flame summary: {len(stacks)} stacks from {path}"]
    lines.append("")
    width = max(len(p) for p in phases)
    lines.append(f"  {'phase':<{width}}  virtual-us")
    for phase in sorted(phases, key=lambda p: (-phases[p], p)):
        lines.append(f"  {phase:<{width}}  {phases[phase]:>12}")
    lines.append("")
    lines.append("  top stacks:")
    for stack, weight in sorted(stacks, key=lambda s: (-s[1], s[0]))[:10]:
        lines.append(f"    {stack} {weight}")
    return "\n".join(lines)


def run_slo(objectives_path: str, history_path: str) -> int:
    """Evaluate an SLO file against a TimeSeriesStore history.

    Returns 0 when every objective is met, 1 when any is violated —
    the CI-gate exit-code contract.
    """
    from repro.obs.slo import evaluate, load_objectives, render
    from repro.obs.timeseries import TimeSeriesStore

    try:
        objectives = load_objectives(objectives_path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ReportError(f"bad objectives file {objectives_path}: {exc}")
    try:
        rows = TimeSeriesStore.load(history_path)
    except OSError as exc:
        raise ReportError(f"cannot read {history_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReportError(
            f"{history_path}:{exc.lineno}: truncated or corrupt history "
            f"({exc.msg})"
        ) from exc
    if not rows:
        raise ReportError(
            f"{history_path}: empty history — no snapshot rows to "
            f"evaluate objectives against"
        )
    results = evaluate(rows, objectives)
    print(render(results))
    return 0 if all(result.ok for result in results) else 1


def _print_snapshot_diff(before_path: str, after_path: str) -> None:
    from repro.obs.export import format_snapshot_diff
    from repro.obs.registry import snapshot_diff

    with open(before_path, "r", encoding="utf-8") as handle:
        before = json.load(handle)
    with open(after_path, "r", encoding="utf-8") as handle:
        after = json.load(handle)
    print(f"snapshot diff: {before_path} -> {after_path}")
    print(format_snapshot_diff(snapshot_diff(before, after)))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize an exported DeCloud round trace.",
    )
    parser.add_argument(
        "trace", nargs="?",
        help="JSONL trace file (Tracer.write_jsonl)",
    )
    parser.add_argument(
        "--tree", action="store_true", help="also print the span tree"
    )
    parser.add_argument(
        "--metrics", help="optional Prometheus text file to append verbatim"
    )
    parser.add_argument(
        "--flight", metavar="BUNDLE",
        help="render a flight-recorder bundle (flight_<round>.jsonl)",
    )
    parser.add_argument(
        "--snapshot-diff", nargs=2, metavar=("BEFORE", "AFTER"),
        help="pretty-print the diff between two registry snapshot JSONs",
    )
    parser.add_argument(
        "--flame", metavar="TRACE",
        help="summarize the stall flame of a runtime trace JSONL",
    )
    parser.add_argument(
        "--slo", nargs=2, metavar=("OBJECTIVES", "HISTORY"),
        help="evaluate an SLO objectives JSON against a TimeSeriesStore "
        "history; exits 1 when any objective is violated",
    )
    args = parser.parse_args(argv)

    try:
        if args.slo:
            return run_slo(*args.slo)
        if args.flame:
            print(render_flame(args.flame))
            return 0
        if args.snapshot_diff:
            _print_snapshot_diff(*args.snapshot_diff)
            return 0
        if args.flight:
            from repro.obs.flight import load_flight

            try:
                with open(args.flight, "r", encoding="utf-8") as handle:
                    meta, records, headers = load_flight(handle.read())
            except OSError as exc:
                raise ReportError(f"cannot read {args.flight}: {exc}")
            print(render_flight(meta, records, headers))
            return 0
        if not args.trace:
            parser.error(
                "a trace file, --flight, --flame, --slo, or "
                "--snapshot-diff is required"
            )

        records = load_trace_records(args.trace)
        print(summarize(records))
        if args.tree:
            print()
            print(render_tree(records))
        if args.metrics:
            with open(args.metrics, "r", encoding="utf-8") as handle:
                print()
                print("metrics:")
                for line in handle.read().splitlines():
                    print(f"  {line}")
        return 0
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout piped into head/less that exited early; not an error
        sys.exit(0)
