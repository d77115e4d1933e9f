"""Declarative fault plans: everything that can go wrong, seeded.

A :class:`FaultPlan` is the single source of truth for one chaos
scenario.  Message-level faults (drop / delay / duplication / reorder
jitter) are sampled from generators derived via :mod:`repro.common.rng`
from the plan seed, so two transports built from equal plans misbehave
identically — failure scenarios are *reproducible*, which is what makes
them testable.  :class:`~repro.runtime.DeterministicTransport` is the
one network that replays a plan.

Node-level faults are scheduled in virtual time: :class:`CrashSpec`
takes a node down at an instant (optionally bringing it back), and
:class:`PartitionSpec` splits the overlay into non-communicating groups
for a window, healing automatically when the window closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

from repro.common.errors import ValidationError
from repro.common.rng import SeedLike


@dataclass(frozen=True)
class CrashSpec:
    """Node ``node_id`` crashes at ``at`` and recovers at ``until`` (if set)."""

    node_id: str
    at: float = 0.0
    until: float = math.inf

    def __post_init__(self) -> None:
        if self.until < self.at:
            raise ValidationError("crash must end at or after it starts")

    def down_at(self, now: float) -> bool:
        return self.at <= now < self.until


@dataclass(frozen=True)
class PartitionSpec:
    """Disjoint node groups that cannot reach each other during a window.

    Nodes absent from every group are unaffected.  ``end`` defaults to
    "never heals"; pass a finite end to model partition-then-heal.
    """

    groups: Tuple[FrozenSet[str], ...]
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValidationError("partition must end at or after it starts")
        if len(self.groups) < 2:
            raise ValidationError("a partition needs at least two groups")
        seen: set = set()
        for group in self.groups:
            if seen & group:
                raise ValidationError("partition groups must be disjoint")
            seen |= group

    def active_at(self, now: float) -> bool:
        return self.start <= now < self.end

    def severs(self, sender: str, recipient: str) -> bool:
        """True when ``sender`` and ``recipient`` sit in different groups."""
        side_a = side_b = None
        for index, group in enumerate(self.groups):
            if sender in group:
                side_a = index
            if recipient in group:
                side_b = index
        return side_a is not None and side_b is not None and side_a != side_b


def make_partition(*groups: Tuple[str, ...], start: float = 0.0,
                   end: float = math.inf) -> PartitionSpec:
    """Sugar: ``make_partition(("m0", "m1"), ("m2",))``."""
    return PartitionSpec(
        groups=tuple(frozenset(g) for g in groups), start=start, end=end
    )


@dataclass(frozen=True)
class FaultPlan:
    """One seeded chaos scenario for a
    :class:`~repro.runtime.DeterministicTransport`.

    Rates are per *delivery* (one broadcast fans out to one delivery per
    subscriber), so a 0.2 drop rate loses each copy independently with
    probability 0.2 — exactly the redundancy gossip protocols exploit.
    """

    seed: SeedLike = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    min_delay: float = 0.0
    max_delay: float = 0.0
    #: probability a delivery picks up extra jitter, overtaking later sends
    reorder_rate: float = 0.0
    reorder_jitter: float = 1.0
    crashes: Tuple[CrashSpec, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "reorder_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValidationError(f"{name} must be in [0, 1)")
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise ValidationError("need 0 <= min_delay <= max_delay")
        if self.reorder_jitter < 0:
            raise ValidationError("reorder_jitter must be non-negative")


#: A plan with every fault switched off — the lossless control case.
LOSSLESS = FaultPlan()
