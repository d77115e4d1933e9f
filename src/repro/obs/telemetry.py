"""The distributed telemetry plane: worker capture, shipping, merging.

Everything the repo executes off the parent process — shard fan-out
(:mod:`repro.core.sharding`), pooled mini-auction waves
(:mod:`repro.core.parallel`) — used to run observably dark: worker code
had no ``Observability`` bundle, so its metrics were reconstructed
parent-side or simply lost.  This module closes that gap with three
pieces:

**Worker-side capture.**  :class:`capture_task` wraps one pool task in a
fresh worker-local :class:`~repro.obs.Observability` bundle.  On exit it
freezes the bundle into a picklable :class:`TelemetryPayload` — the
registry's structured series (histograms bucket-exact, which
``snapshot()`` cannot express), the trace records (whose spans carry
the worker's phase times), and an ``ok``/``aborted`` status.  Exceptions are captured, not
raised: the payload ships home *even when the task failed*, tagged
``aborted``, and the parent re-raises after merging — no pooled code
path can go dark again.

**Deterministic parent merge.**  :func:`merge_payload` folds a payload
into the parent bundle under caller-supplied labels (``shard=zone:ab``,
``worker=mini``): counters add, gauges set, histograms merge
bucket-exact, the worker's trace is grafted under a ``worker`` span with
remapped span ids and seqs (:meth:`~repro.obs.trace.Tracer.merge_records`).
Payloads are produced by pure worker-local control flow and merged in
task-submission order (``pool.map`` preserves it; shard results arrive
in sorted-key order), so the merged trace is **byte-identical across
``shard_workers`` 0/1/N** once wall clocks are stripped — enforced by
``tests/property/test_obs_invariance.py``.

**Actor shipping.**  :class:`TelemetryPublisher` turns a live registry
into periodic :func:`~repro.obs.registry.snapshot_diff` frames;
:class:`TelemetryAggregator` is an actor that subscribes to the
``telemetry`` topic and merges frames from any number of nodes into one
fleet registry under ``node=...`` labels.  Both ride the plain
``subscribe_node``/``broadcast`` actor surface, so they work unchanged
over the :class:`~repro.runtime.transport.DeterministicTransport` *and*
the asyncio TCP hub (:mod:`repro.runtime.sockets`) — the metrics path
for the multi-process deployment of ROADMAP item 1.

Capture is opt-in via ``Observability(telemetry=True)``: bundles that
never opt in keep their historical traces byte-for-byte, and the
disabled path stays free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.obs.registry import (
    LabeledRegistry,
    LabelItems,
    MetricsRegistry,
    parse_series,
    snapshot_diff,
)

#: ``(count, sum, min, max, bucket_counts, bounds)`` — the structured
#: internals of one :class:`~repro.obs.registry._HistogramSeries`.
HistogramParts = Tuple[int, float, float, float, Tuple[int, ...], Tuple[float, ...]]


@dataclass(frozen=True)
class TelemetryPayload:
    """One worker task's frozen observability delta (picklable).

    Series are sorted tuples keyed by ``(name, label_items)`` so the
    payload — and therefore the parent-side merge — is independent of
    registry insertion order.
    """

    source: str
    kind: str
    status: str  # "ok" | "aborted"
    counters: Tuple[Tuple[str, LabelItems, float], ...]
    gauges: Tuple[Tuple[str, LabelItems, float], ...]
    histograms: Tuple[Tuple[str, LabelItems, HistogramParts], ...]
    trace_records: Tuple[Dict[str, Any], ...]
    error: Optional[str] = None


def capture_payload(
    obs: Any,
    source: str,
    kind: str = "task",
    status: str = "ok",
    error: Optional[BaseException] = None,
) -> TelemetryPayload:
    """Freeze a worker bundle's registry and trace into a payload."""
    registry = obs.registry
    while isinstance(registry, LabeledRegistry):
        registry = registry._base
    counters = tuple(
        sorted((name, items, value) for (name, items), value in registry.counters.items())
    )
    gauges = tuple(
        sorted((name, items, value) for (name, items), value in registry.gauges.items())
    )
    histograms = tuple(
        sorted(
            (
                name,
                items,
                (
                    series.count,
                    series.sum,
                    series.min,
                    series.max,
                    tuple(series.bucket_counts),
                    tuple(series.bounds),
                ),
            )
            for (name, items), series in registry.histograms.items()
        )
    )
    return TelemetryPayload(
        source=source,
        kind=kind,
        status=status,
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        trace_records=tuple(dict(r) for r in obs.tracer.records),
        error=repr(error) if error is not None else None,
    )


class capture_task:
    """Context manager running one worker task under a local bundle.

    Usage (inside the pool worker)::

        with capture_task("shard:zone:ab", "shard") as cap:
            cap.set_value(run_the_task(obs=cap.obs))
        return cap.value, cap.payload, cap.error

    The block's exception (if any) is *captured* — ``cap.error`` carries
    it, the payload is tagged ``aborted``, and the parent decides when
    to re-raise (after merging, so failed tasks still report).  Every
    exit records ``worker_tasks_total{kind=...,status=...}`` and a
    ``worker_task_seconds{kind=...}`` sample before freezing the payload.
    """

    __slots__ = ("source", "kind", "obs", "value", "error", "payload",
                 "_span", "_start")

    def __init__(self, source: str, kind: str) -> None:
        self.source = source
        self.kind = kind
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.payload: Optional[TelemetryPayload] = None

    def set_value(self, value: Any) -> None:
        self.value = value

    def __enter__(self) -> "capture_task":
        from repro.obs import Observability

        # Capture is one level deep: the worker bundle itself is live,
        # so nothing inside the task can go dark (in-worker mini waves
        # run in-process under it, and the non-nesting pool invariant
        # means no *pooled* path exists below a worker).  Leaving
        # telemetry off here keeps nested clears on their batched fast
        # paths, which is what holds the capture overhead within the
        # benchmarked <=10% bound.
        self.obs = Observability(run_id=f"worker-{self.source}")
        self._start = time.perf_counter()
        self._span = self.obs.tracer.span(
            "worker_task", source=self.source, kind=self.kind
        )
        self._span.__enter__()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self._span.__exit__(exc_type, exc, tb)
        if exc is not None:
            self.error = exc  # type: ignore[assignment]
        status = "ok" if exc is None else "aborted"
        registry = self.obs.registry
        registry.inc("worker_tasks_total", kind=self.kind, status=status)
        registry.observe(
            "worker_task_seconds",
            time.perf_counter() - self._start,
            kind=self.kind,
        )
        self.payload = capture_payload(
            self.obs, source=self.source, kind=self.kind,
            status=status, error=self.error,
        )
        return True  # the error ships home in the payload; parent re-raises


def merge_payload(obs: Any, payload: Optional[TelemetryPayload], **labels: object) -> None:
    """Fold one worker payload into the parent bundle, deterministically.

    ``labels`` (e.g. ``shard="zone:ab"``, ``worker="mini"``) are stamped
    on every merged metric series so fleet totals stay attributable per
    worker; they also land as attrs on the ``worker`` anchor span the
    worker's trace is grafted under.  Merging twice double-counts —
    callers merge each payload exactly once, in task-submission order.
    """
    if payload is None or not obs.enabled:
        return
    registry = obs.registry
    extra = {key: str(value) for key, value in labels.items()}
    for name, items, value in payload.counters:
        merged = dict(items)
        merged.update(extra)
        registry.inc(name, value, **merged)
    for name, items, value in payload.gauges:
        merged = dict(items)
        merged.update(extra)
        registry.set(name, value, **merged)
    for name, items, parts in payload.histograms:
        merged = dict(items)
        merged.update(extra)
        registry.merge_histogram(name, merged, *parts)
    with obs.tracer.span(
        "worker", source=payload.source, status=payload.status, **labels
    ):
        obs.tracer.merge_records(payload.trace_records)
        if payload.error:
            obs.tracer.event(
                "worker.aborted", source=payload.source, error=payload.error
            )


# ----------------------------------------------------------------------
# Actor shipping: snapshot-diff frames over a transport topic
# ----------------------------------------------------------------------
class TelemetryPublisher:
    """Periodic snapshot-diff frames from one node's registry.

    Each :meth:`make_frame` call diffs the registry against the last
    published snapshot, so frames carry only what changed — the natural
    unit for merging at an aggregator.  ``seq`` numbers frames per node
    for duplicate suppression on at-least-once transports.
    """

    __slots__ = ("obs", "node_id", "seq", "_last")

    def __init__(self, obs: Any, node_id: str) -> None:
        self.obs = obs
        self.node_id = node_id
        self.seq = 0
        self._last: Dict[str, Dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def _registry(self) -> MetricsRegistry:
        registry = self.obs.registry
        while isinstance(registry, LabeledRegistry):
            registry = registry._base
        return registry

    def make_frame(self) -> Any:
        """The next diff frame (works for sync and async transports)."""
        from repro.protocol.messages import TelemetryFrame

        snapshot = self._registry().snapshot()
        diff = snapshot_diff(self._last, snapshot)
        self._last = snapshot
        frame = TelemetryFrame(
            node_id=self.node_id, seq=self.seq, frame=diff
        )
        self.seq += 1
        return frame

    def publish(self, transport: Any, key: Optional[str] = None) -> Any:
        """Broadcast one frame on a synchronous transport; returns it."""
        from repro.protocol.messages import TOPIC_TELEMETRY

        frame = self.make_frame()
        transport.broadcast(
            TOPIC_TELEMETRY,
            frame,
            sender=self.node_id,
            key=key if key is not None else f"tele-{self.node_id}-{frame.seq}",
        )
        return frame


class TelemetryAggregator:
    """Actor merging per-node telemetry frames into one fleet registry.

    Subscribe it to any transport exposing ``subscribe_node`` — the
    deterministic in-process bus or the asyncio TCP hub — and every
    frame's series land in :attr:`registry` under an extra
    ``node=<sender>`` label.  Counter and histogram deltas add in any
    arrival order (they are commutative); gauges are last-writer-wins by
    frame ``seq`` so a late out-of-order frame cannot roll state back;
    exact duplicate frames (at-least-once delivery) are dropped and
    counted.  Histogram diffs carry only count/sum (snapshots have no
    buckets), so they merge as paired ``<name>_count``/``<name>_sum``
    counters.
    """

    __slots__ = ("node_id", "registry", "frames", "_seen", "_gauge_seq")

    def __init__(self, node_id: str = "telemetry-aggregator") -> None:
        self.node_id = node_id
        self.registry = MetricsRegistry()
        self.frames = 0
        self._seen: Dict[str, Set[int]] = {}
        self._gauge_seq: Dict[str, int] = {}

    def subscribe(self, transport: Any) -> None:
        """Attach to a transport's telemetry topic (both transports)."""
        from repro.protocol.messages import TOPIC_TELEMETRY

        transport.subscribe_node(self.node_id, TOPIC_TELEMETRY, self.on_frame)

    def on_frame(self, sender: str, frame: Any) -> None:
        """Handler: merge one ``TelemetryFrame`` (duck-typed)."""
        node = frame.node_id
        seen = self._seen.setdefault(node, set())
        if frame.seq in seen:
            self.registry.inc("telemetry_frames_duplicate_total", node=node)
            return
        seen.add(frame.seq)
        self.frames += 1
        registry = self.registry
        registry.inc("telemetry_frames_total", node=node)
        diff: Mapping[str, Mapping[str, Any]] = frame.frame
        for series, delta in diff.get("counters", {}).items():
            name, items = parse_series(series)
            merged = dict(items)
            merged["node"] = node
            registry.inc(name, delta, **merged)
        if frame.seq >= self._gauge_seq.get(node, -1):
            self._gauge_seq[node] = frame.seq
            for series, value in diff.get("gauges", {}).items():
                name, items = parse_series(series)
                merged = dict(items)
                merged["node"] = node
                registry.set(name, value, **merged)
        for series, hist in diff.get("histograms", {}).items():
            name, items = parse_series(series)
            merged = dict(items)
            merged["node"] = node
            registry.inc(name + "_count", hist.get("count", 0), **merged)
            registry.inc(name + "_sum", hist.get("sum", 0.0), **merged)

    def counter_total(self, name: str, **labels: object) -> float:
        """Sum a counter across every node (labels filter, node ignored)."""
        wanted = {key: str(value) for key, value in labels.items()}
        total = 0.0
        for (series, items), value in self.registry.counters.items():
            if series != name:
                continue
            present = dict(items)
            present.pop("node", None)
            if all(present.get(k) == v for k, v in wanted.items()):
                total += value
        return total

    def nodes(self) -> List[str]:
        """Every node that has reported at least one frame, sorted."""
        return sorted(self._seen)
