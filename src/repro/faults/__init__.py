"""Fault injection: fault plans, Byzantine actors, crash points.

The decentralized layer is only falsifiable if faults can actually
occur.  This package supplies them, deterministically:

* :class:`FaultPlan` — one seeded chaos scenario (message drop / delay /
  duplication / reorder, scheduled node crashes and partitions), replayed
  by the runtime's :class:`~repro.runtime.DeterministicTransport`.
* Byzantine actors — :class:`WithholdingParticipant`,
  :class:`TamperingParticipant`, :class:`GarbageSealingParticipant`,
  :class:`EquivocatingMiner` — honest implementations with exactly one
  lie each.

The protocol-side degradation these exercise lives in
:mod:`repro.runtime` (lossy networks) and :mod:`repro.protocol.exposure`
(Byzantine actors on a lossless bus); the sweep harness that measures it
lives in :mod:`repro.sim.chaos`.
"""

from repro.faults.actors import (
    EquivocatingMiner,
    GarbageSealingParticipant,
    TamperingParticipant,
    WithholdingParticipant,
    detect_equivocation,
)
from repro.faults.crash import (
    CRASH_MODES,
    CrashPlan,
    CrashPoint,
    SimulatedCrashError,
)
from repro.faults.plan import (
    LOSSLESS,
    CrashSpec,
    FaultPlan,
    PartitionSpec,
    make_partition,
)

__all__ = [
    "CRASH_MODES",
    "CrashPlan",
    "CrashPoint",
    "CrashSpec",
    "SimulatedCrashError",
    "EquivocatingMiner",
    "GarbageSealingParticipant",
    "FaultPlan",
    "LOSSLESS",
    "PartitionSpec",
    "TamperingParticipant",
    "WithholdingParticipant",
    "detect_equivocation",
    "make_partition",
]
