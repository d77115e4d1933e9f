"""``repro.runtime`` — the asynchronous, pipelined protocol runtime.

Message-driven actors (miners, bidders) exchange the existing
``repro.protocol.messages`` over one in-process transport,
:class:`~repro.runtime.transport.DeterministicTransport`, driven by a
seeded :class:`~repro.runtime.scheduler.DeterministicScheduler`
(reproducible schedules, seeded schedule *exploration*, FaultPlan
replay, bounded inboxes with backpressure).

:class:`~repro.runtime.reactor.Runtime` drives pipelined protocol
rounds on top: round *N+1* seals while round *N* mines, reveals,
verifies, and commits.  It is the one protocol host —
:class:`~repro.protocol.exposure.ExposureProtocol` drives one
non-pipelined round of it per call — and its committed blocks are
proven bit-identical, under every schedule, to a straight-line chain of
``Miner`` calls by the differential suite
(``tests/differential/test_runtime_equivalence.py``).
Every phase boundary it journals is also a ``runtime.phase`` trace event
stamped with virtual time, the one clock a round's stall flame is read
from (:func:`repro.obs.report.phase_flame`).

See ``docs/RUNTIME.md`` for the architecture and determinism contract.
"""

from repro.runtime.reactor import (
    RoundInput,
    Runtime,
    RuntimeCosts,
    RuntimeReport,
    RuntimeRound,
)
from repro.runtime.scheduler import DeterministicScheduler
from repro.runtime.transport import DeterministicTransport

__all__ = [
    "DeterministicScheduler",
    "DeterministicTransport",
    "RoundInput",
    "Runtime",
    "RuntimeCosts",
    "RuntimeReport",
    "RuntimeRound",
]
