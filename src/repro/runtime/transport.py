"""Deterministic in-process transport for the async runtime.

The one network that replays a :class:`~repro.faults.plan.FaultPlan`
(drop / delay / duplicate / reorder / crash / partition), built for a
message-driven reactor:

* **Deliveries are scheduler events.**  A copy delayed by the plan is an
  event at its arrival instant; a reorder-jittered copy arrives late for
  real (the jitter is part of its due time), and crash/partition windows
  are evaluated at the moment the copy actually lands — no driver-side
  batching can warp fates.
* **Logical fault keys.**  Callers may tag each broadcast with a stable
  ``key`` naming the *logical* send (round, attempt, txid…).  Fault
  draws then come from a generator derived from ``(plan.seed, key)``, so
  a message's fate is a pure function of the plan and the message — not
  of how many unrelated sends happened first.  This is what lets a
  crash-recovery continuation replay the surviving suffix of a run and
  see identical faults, even though the global send order differs.
  Untagged sends fall back to a per-transport sequence key.
* **Bounded inboxes + backpressure.**  Each node owns a FIFO inbox of
  ``inbox_capacity`` messages, drained one message per scheduler event
  (so deliveries to different nodes interleave).  A copy arriving at a
  full inbox is deferred and redelivered after ``defer_delay`` — counted,
  observable, and deterministic.

Observability is read-only by contract: counters and trace events are
emitted only when a bundle is attached, and neither the fault draws nor
the scheduler's tie-break stream depends on it.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.common.rng import make_generator
from repro.faults.plan import FaultPlan, PartitionSpec
from repro.ledger.network import Message
from repro.obs import NULL_OBS, ObservabilityLike
from repro.runtime.scheduler import DeterministicScheduler

Handler = Callable[[str, Any], None]


class DeterministicTransport:
    """Fault-replaying broadcast bus driven by a seeded scheduler."""

    def __init__(
        self,
        scheduler: DeterministicScheduler,
        plan: Optional[FaultPlan] = None,
        inbox_capacity: int = 64,
        defer_delay: float = 0.005,
    ) -> None:
        self.scheduler = scheduler
        self.plan = plan or FaultPlan()
        self.inbox_capacity = inbox_capacity
        self.defer_delay = defer_delay
        self.log: List[Message] = []
        self._subscribers: Dict[Tuple[str, str], List[Handler]] = {}
        self._nodes: List[str] = []
        self._inboxes: Dict[str, Deque[Tuple[str, str, Any]]] = {}
        self._draining: Set[str] = set()
        self._crashed: Set[str] = set()
        self._manual_partitions: List[PartitionSpec] = []
        self._auto_key = itertools.count()
        self._obs: ObservabilityLike = NULL_OBS
        # Fast path: a plan with no message faults and no delays needs no
        # RNG at all — every copy lands "now" (ordering still explored by
        # the scheduler's seeded tie-breaks).
        plan_ = self.plan
        self._faultless = (
            not plan_.drop_rate
            and not plan_.duplicate_rate
            and not plan_.reorder_rate
            and plan_.min_delay == 0.0
            and plan_.max_delay == 0.0
        )
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.censored = 0  # undeliverable: crashed node or severed link
        self.deferred = 0  # backpressure redeliveries
        self.inbox_high_watermark = 0

    def attach_obs(self, obs: Optional[ObservabilityLike]) -> None:
        """Opt into metrics/tracing (no effect on fault or schedule RNG)."""
        self._obs = NULL_OBS if obs is None else obs

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe_node(self, node_id: str, topic: str, handler: Handler) -> None:
        if node_id not in self._nodes:
            self._nodes.append(node_id)
            self._inboxes[node_id] = deque()
        self._subscribers.setdefault((node_id, topic), []).append(handler)

    # ------------------------------------------------------------------
    # Node faults (scripted on top of the plan's scheduled windows)
    # ------------------------------------------------------------------
    def crash_node(self, node_id: str) -> None:
        self._crashed.add(node_id)

    def recover_node(self, node_id: str) -> None:
        self._crashed.discard(node_id)

    def partition(self, *groups: Tuple[str, ...]) -> None:
        self._manual_partitions.append(
            PartitionSpec(groups=tuple(frozenset(g) for g in groups))
        )

    def heal(self) -> None:
        self._manual_partitions.clear()

    def is_down(self, node_id: str) -> bool:
        if node_id in self._crashed:
            return True
        now = self.scheduler.now
        return any(
            spec.node_id == node_id and spec.down_at(now)
            for spec in self.plan.crashes
        )

    def _severed(self, sender: str, recipient: str) -> bool:
        if not sender:
            return False
        for spec in self._manual_partitions:
            if spec.severs(sender, recipient):
                return True
        now = self.scheduler.now
        return any(
            spec.active_at(now) and spec.severs(sender, recipient)
            for spec in self.plan.partitions
        )

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def broadcast(
        self,
        topic: str,
        payload: Any,
        sender: str = "",
        key: Optional[str] = None,
    ) -> None:
        """Schedule one faulty delivery per subscribing node.

        ``key`` names the logical send; equal keys draw identical fault
        fates regardless of global send order (see module docstring).
        """
        self.log.append(Message(topic=topic, payload=payload, sender=sender))
        self.sent += 1
        obs = self._obs
        if obs.enabled:
            obs.registry.inc("runtime_messages_sent_total", topic=topic)
        if self.is_down(sender):
            return
        plan = self.plan
        now = self.scheduler.now
        trace = getattr(payload, "trace", None) if obs.enabled else None
        if self._faultless:
            for node_id in self._nodes:
                if (node_id, topic) in self._subscribers:
                    self._schedule_delivery(0.0, 0.0, node_id, topic, payload, sender)
            return
        if key is None:
            key = f"auto-{next(self._auto_key)}"
        rng = make_generator(f"net-{plan.seed!r}|{key}")
        for node_id in self._nodes:
            if (node_id, topic) not in self._subscribers:
                continue
            copies = 1
            if plan.duplicate_rate and rng.random() < plan.duplicate_rate:
                copies = 2
                self.duplicated += 1
                if trace is not None:
                    obs.tracer.event_at(
                        trace, "net.duplicate",
                        topic=topic, node=node_id, sender=sender,
                    )
                    obs.registry.inc(
                        "runtime_messages_duplicated_total", topic=topic
                    )
            for _ in range(copies):
                if plan.drop_rate and rng.random() < plan.drop_rate:
                    self.dropped += 1
                    if trace is not None:
                        obs.tracer.event_at(
                            trace, "net.drop",
                            topic=topic, node=node_id, sender=sender,
                        )
                        obs.registry.inc(
                            "runtime_messages_dropped_total", topic=topic
                        )
                    continue
                delay = rng.uniform(plan.min_delay, plan.max_delay)
                if plan.reorder_rate and rng.random() < plan.reorder_rate:
                    # In a reactor a reordered copy simply arrives later:
                    # the jitter is real lateness at this copy's inbox,
                    # not a shared-clock distortion.
                    delay += rng.uniform(0.0, plan.reorder_jitter)
                    if trace is not None:
                        obs.tracer.event_at(
                            trace, "net.reorder",
                            topic=topic, node=node_id, sender=sender,
                        )
                self._schedule_delivery(delay, 0.0, node_id, topic, payload, sender)

    def _schedule_delivery(
        self,
        delay: float,
        bias: float,
        node_id: str,
        topic: str,
        payload: Any,
        sender: str,
    ) -> None:
        self.scheduler.call_later(
            delay,
            lambda: self._deliver(node_id, topic, payload, sender),
            order_bias=bias,
        )

    def _deliver(self, node_id: str, topic: str, payload: Any, sender: str) -> None:
        """One copy lands: censor, defer (backpressure), or enqueue."""
        obs = self._obs
        if self.is_down(node_id) or self._severed(sender, node_id):
            self.censored += 1
            if obs.enabled:
                obs.registry.inc("runtime_messages_censored_total", topic=topic)
                trace = getattr(payload, "trace", None)
                if trace is not None:
                    obs.tracer.event_at(
                        trace, "net.censored",
                        topic=topic, node=node_id, sender=sender,
                    )
            return
        inbox = self._inboxes[node_id]
        if len(inbox) >= self.inbox_capacity:
            # Bounded inbox: the copy is not lost, it waits at the edge.
            self.deferred += 1
            if obs.enabled:
                obs.registry.inc(
                    "runtime_backpressure_deferrals_total", node=node_id
                )
            self._schedule_delivery(
                self.defer_delay, 0.0, node_id, topic, payload, sender
            )
            return
        inbox.append((sender, topic, payload))
        if len(inbox) > self.inbox_high_watermark:
            self.inbox_high_watermark = len(inbox)
            if obs.enabled:
                obs.registry.set(
                    "runtime_inbox_high_watermark", self.inbox_high_watermark
                )
        if node_id not in self._draining:
            self._draining.add(node_id)
            self.scheduler.call_later(0.0, lambda: self._drain(node_id))

    def _drain(self, node_id: str) -> None:
        """Process exactly one queued message, then yield the turn.

        One message per scheduler event keeps actor turns interleaved —
        the seeded tie-breaks decide who runs next, which is precisely
        the schedule space the differential suite sweeps.
        """
        inbox = self._inboxes[node_id]
        if not inbox:
            self._draining.discard(node_id)
            return
        sender, topic, payload = inbox.popleft()
        if inbox:
            self.scheduler.call_later(0.0, lambda: self._drain(node_id))
        else:
            self._draining.discard(node_id)
        self.delivered += 1
        obs = self._obs
        handlers = self._subscribers.get((node_id, topic), ())
        if obs.enabled:
            obs.registry.inc("runtime_messages_delivered_total", topic=topic)
            trace = getattr(payload, "trace", None)
            if trace is not None:
                with obs.tracer.from_context(
                    trace, "deliver", topic=topic, node=node_id, sender=sender
                ):
                    for handler in list(handlers):
                        handler(sender, payload)
                return
        for handler in list(handlers):
            handler(sender, payload)

    # ------------------------------------------------------------------
    # Introspection (BroadcastNetwork parity)
    # ------------------------------------------------------------------
    def messages(self, topic: str) -> List[Message]:
        """All *sent* messages on ``topic`` (delivery not guaranteed)."""
        return [msg for msg in self.log if msg.topic == topic]
