"""Structured round tracing: spans and events over a deterministic clock.

A :class:`Tracer` records what a protocol round *did* — the span tree
``seal -> round(mine, reveal, propose, verify, commit)`` plus point
events (reveal retries, exclusions, Byzantine rejections, commits) — as
an append-only list of flat records exportable to JSONL.

Determinism contract: record ordering, span ids, and the logical ``seq``
clock are pure functions of the control flow, so two seeded runs of the
same market emit **byte-identical** JSONL once wall-clock fields are
stripped (``to_jsonl(strip_wall=True)``).  The property suite enforces
this.  Wall-clock timestamps ride along under the single key ``wall`` so
humans can still see real durations in a live trace.

Record schema (one JSON object per line, keys sorted):

``span_start``
    ``{"type", "seq", "span", "parent", "name", "attrs", "wall"}``
``span_end``
    ``{"type", "seq", "span", "name", "status", "wall"}``
``event``
    ``{"type", "seq", "span", "name", "attrs", "wall"}``

``seq`` is the monotonic sim clock (one tick per record), ``span`` the
id of the span being opened/closed (for events: the innermost open span,
or ``null`` at top level), ``parent`` the enclosing span id, ``status``
``"ok"`` or ``"error"``.

Causal propagation: :meth:`Tracer.child_context` captures the current
position as a :class:`TraceContext` — a value small enough to ride on a
network message — and :meth:`Tracer.from_context` /
:meth:`Tracer.event_at` re-anchor work (possibly on another actor, after
the originating span already closed) under that context.  The ``seq``
clock is a Lamport clock: consuming a context advances the local clock
past the sender's, so causally-ordered records always carry increasing
``seq`` even across actors.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: sentinel: "parent this span on the innermost open span"
_FROM_STACK = object()


@dataclass(frozen=True)
class TraceContext:
    """A portable causal position: attach to messages, restore elsewhere.

    ``trace_id`` names the originating tracer, ``span`` the sender's
    innermost open span at capture time (the causal parent for whatever
    handles the message), ``clock`` the sender's logical clock (merged
    Lamport-style on receipt), ``actor`` the sending actor's id so the
    causal tree renders per-actor lanes.
    """

    trace_id: str
    span: Optional[int]
    clock: int
    actor: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span": self.span,
            "clock": self.clock,
            "actor": self.actor,
        }


class _TraceSpan:
    """Context manager recording one span's start/end records."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span_id", "_parent")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
        parent: Any = _FROM_STACK,
    ):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span_id = 0
        self._parent = parent

    def __enter__(self) -> "_TraceSpan":
        self._span_id = self._tracer._open_span(
            self._name, self._attrs, parent=self._parent
        )
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self._tracer._close_span(
            self._span_id, self._name, "ok" if exc_type is None else "error"
        )


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Deterministic span/event recorder with JSONL export."""

    enabled = True

    __slots__ = (
        "trace_id", "records", "_seq", "_next_span", "_stack", "_anchor",
    )

    def __init__(self, trace_id: str = "trace") -> None:
        self.trace_id = trace_id
        self.records: List[Dict[str, Any]] = []
        self._seq = 0
        self._next_span = 1
        self._stack: List[int] = []
        # ``wall`` is epoch seconds read off the monotonic clock: every
        # duration is a difference of two stamps, and a system-clock step
        # mid-span must not turn it negative or hour-long.
        self._anchor = time.time() - time.perf_counter()

    def _tick(self) -> int:
        self._seq += 1
        return self._seq

    def _wall(self) -> float:
        return self._anchor + time.perf_counter()

    def _merge_clock(self, ctx: "TraceContext") -> None:
        # Lamport merge: the next local tick lands after everything the
        # context's sender had already recorded.
        if ctx.clock > self._seq:
            self._seq = ctx.clock

    @property
    def current_span(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs: Any) -> _TraceSpan:
        """Open a span; nest freely, exceptions mark it ``error``."""
        return _TraceSpan(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event under the innermost open span."""
        self.records.append(
            {
                "type": "event",
                "seq": self._tick(),
                "span": self.current_span,
                "name": name,
                "attrs": attrs,
                "wall": self._wall(),
            }
        )

    # ------------------------------------------------------------------
    # Causal propagation
    # ------------------------------------------------------------------
    def child_context(self, actor: Optional[str] = None) -> TraceContext:
        """Capture the current causal position for a message in flight."""
        return TraceContext(
            trace_id=self.trace_id,
            span=self.current_span,
            clock=self._seq,
            actor=actor,
        )

    def from_context(
        self, ctx: Optional[TraceContext], name: str, **attrs: Any
    ) -> _TraceSpan:
        """Open a span whose *causal* parent is ``ctx``'s span.

        The parent may belong to another actor and may already be closed
        (a delivery handled after the sender's phase ended) — the tree
        builder still attaches the child where causality says it belongs.
        With ``ctx=None`` this degrades to a plain :meth:`span`.
        """
        if ctx is None:
            return _TraceSpan(self, name, attrs)
        self._merge_clock(ctx)
        parent = ctx.span if ctx.trace_id == self.trace_id else None
        if ctx.trace_id != self.trace_id:
            attrs.setdefault("remote_trace", ctx.trace_id)
        return _TraceSpan(self, name, attrs, parent=parent)

    def event_at(
        self, ctx: Optional[TraceContext], name: str, **attrs: Any
    ) -> None:
        """Record an event on ``ctx``'s (possibly closed) span.

        Used for fault evidence that belongs to the *sender's* span — a
        drop or duplication happens to the sender's message, wherever the
        network thread happens to be when it notices.
        """
        if ctx is None or ctx.trace_id != self.trace_id:
            self.event(name, **attrs)
            return
        self._merge_clock(ctx)
        self.records.append(
            {
                "type": "event",
                "seq": self._tick(),
                "span": ctx.span,
                "name": name,
                "attrs": attrs,
                "wall": self._wall(),
            }
        )

    # ------------------------------------------------------------------
    # Span plumbing (called by _TraceSpan)
    # ------------------------------------------------------------------
    def _open_span(
        self, name: str, attrs: Dict[str, Any], parent: Any = _FROM_STACK
    ) -> int:
        span_id = self._next_span
        self._next_span += 1
        self.records.append(
            {
                "type": "span_start",
                "seq": self._tick(),
                "span": span_id,
                "parent": (
                    self.current_span if parent is _FROM_STACK else parent
                ),
                "name": name,
                "attrs": attrs,
                "wall": self._wall(),
            }
        )
        self._stack.append(span_id)
        return span_id

    def _close_span(self, span_id: int, name: str, status: str) -> None:
        # Pop back to (and including) this span even if an exception
        # skipped inner __exit__ calls — the trace must never wedge.
        while self._stack and self._stack[-1] != span_id:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self.records.append(
            {
                "type": "span_end",
                "seq": self._tick(),
                "span": span_id,
                "name": name,
                "status": status,
                "wall": self._wall(),
            }
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self, strip_wall: bool = False) -> str:
        """One sorted-key JSON object per line; trailing newline.

        ``strip_wall=True`` removes every wall-clock field, leaving the
        deterministic projection two seeded runs agree on byte for byte.
        """
        lines = []
        for record in self.records:
            if strip_wall:
                record = {k: v for k, v in record.items() if k != "wall"}
            lines.append(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: str, strip_wall: bool = False) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl(strip_wall=strip_wall))


class NullTracer:
    """Inert tracer for the disabled path."""

    enabled = False

    __slots__ = ()

    #: immutable: this one object backs every disabled bundle
    records: Tuple[Dict[str, Any], ...] = ()
    trace_id = "null"

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def child_context(self, actor: Optional[str] = None) -> None:
        # Messages carry no context on the disabled path — obs-off runs
        # stay byte-identical to the pre-tracing protocol.
        return None

    def from_context(
        self, ctx: Optional[TraceContext], name: str, **attrs: Any
    ) -> _NullSpan:
        return _NULL_SPAN

    def event_at(
        self, ctx: Optional[TraceContext], name: str, **attrs: Any
    ) -> None:
        return None

    def to_jsonl(self, strip_wall: bool = False) -> str:
        return ""

    def write_jsonl(self, path: str, strip_wall: bool = False) -> None:
        return None


NULL_TRACER = NullTracer()


def span_seconds(
    records: Iterable[Mapping[str, Any]], parent: Optional[int] = None
) -> Dict[str, Dict[str, float]]:
    """Wall time per span name: the one phase-timing view.

    Returns ``{name: {"seconds", "count", "aborted"}}`` over every
    *closed* span in ``records`` — only the direct children of span id
    ``parent`` when given.  Repeated spans of one name accumulate; a
    span that ended with ``status: "error"`` keeps its partial time and
    counts under ``aborted``; stripped records (no ``wall``) count with
    zero seconds; a span still open when the records were taken (a
    flight dump mid-round) is left out.
    """
    started: Dict[int, Optional[float]] = {}
    out: Dict[str, Dict[str, float]] = {}
    for record in records:
        kind = record.get("type")
        if kind == "span_start":
            if parent is None or record.get("parent") == parent:
                started[record["span"]] = record.get("wall")
        elif kind == "span_end" and record["span"] in started:
            start = started.pop(record["span"])
            end = record.get("wall")
            entry = out.setdefault(
                record["name"], {"seconds": 0.0, "count": 0, "aborted": 0}
            )
            if start is not None and end is not None:
                entry["seconds"] += end - start
            entry["count"] += 1
            if record.get("status") == "error":
                entry["aborted"] += 1
    return out


def load_jsonl(text: str) -> List[Dict[str, Any]]:
    """Parse trace JSONL text back into records (blank lines skipped)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def strip_wall(text: str) -> str:
    """Drop wall-clock fields from exported JSONL (for byte comparison)."""
    lines = []
    for record in load_jsonl(text):
        record.pop("wall", None)
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")
