"""In-memory broadcast network connecting participants and miners.

The overlay is modeled as a synchronous gossip bus: ``broadcast`` delivers
the message to every subscribed node immediately and records it, so tests
can assert on traffic.  The record keeps the latest ``LOG_LIMIT``
messages: a bus that runs for thousands of rounds holds a window of its
traffic, not a history.  This captures what the protocol relies on —
everyone sees preambles, reveals, and bodies — without simulating
latency or partitions; those belong to the consensus layer the paper
explicitly builds on rather than contributes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List

Handler = Callable[[str, Any], None]

#: messages the traffic log keeps (a round of 18 bids sends 38)
LOG_LIMIT = 1024


@dataclass
class Message:
    """A broadcast message: topic, payload, and originating node."""

    topic: str
    payload: Any
    sender: str


@dataclass
class BroadcastNetwork:
    """Synchronous publish/subscribe bus with a log of recent traffic."""

    _subscribers: Dict[str, List[Handler]] = field(default_factory=dict)
    log: Deque[Message] = field(
        default_factory=lambda: deque(maxlen=LOG_LIMIT)
    )

    def subscribe(self, topic: str, handler: Handler) -> None:
        """Register ``handler`` for messages on ``topic``."""
        self._subscribers.setdefault(topic, []).append(handler)

    def broadcast(self, topic: str, payload: Any, sender: str = "") -> None:
        """Deliver ``payload`` to every subscriber of ``topic``.

        The handler list is snapshotted first: a handler that subscribes
        (or unsubscribes) during delivery must not change who receives
        *this* message, only future ones.
        """
        self.log.append(Message(topic=topic, payload=payload, sender=sender))
        for handler in list(self._subscribers.get(topic, ())):
            handler(sender, payload)

    def messages(self, topic: str) -> List[Message]:
        """The logged messages on ``topic`` in delivery order."""
        return [msg for msg in self.log if msg.topic == topic]
