"""The telemetry plane: per-node metric frames shipped over a transport.

:class:`TelemetryPublisher` turns a live registry into periodic
:func:`~repro.obs.registry.snapshot_diff` frames;
:class:`TelemetryAggregator` is an actor that subscribes to the
``telemetry`` topic and merges frames from any number of nodes into one
fleet registry under ``node=...`` labels.  Both ride the plain
``subscribe_node``/``broadcast`` actor surface, so they work unchanged
over the :class:`~repro.runtime.transport.DeterministicTransport` *and*
the asyncio TCP hub (:mod:`repro.runtime.sockets`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Set

from repro.obs.registry import (
    LabeledRegistry,
    MetricsRegistry,
    parse_series,
    snapshot_diff,
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
