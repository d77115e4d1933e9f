"""Runtime mechanism monitors: §IV guarantees checked on every block.

Offline property tests prove the mechanism's economic guarantees on
sampled markets; the monitor suite checks the *same* invariants
continuously at runtime, on every outcome the system actually clears —
the difference between "the mechanism is correct" and "this deployment
is behaving".  The invariants themselves are stated once, in
:func:`repro.core.audit.audit_outcome` (its :data:`~repro.core.audit.CHECKS`
name every finding); the suite audits each outcome against its own bids
(matched, reduced and unmatched).  A violation means either a mechanism
bug or a tampered settlement layer, so
:meth:`repro.obs.Observability.check_outcome` emits each one as a
structured alert event plus a counter and, in strict mode, escalates to
:class:`~repro.common.errors.MonitorViolationError`.

The suite is **read-only**: it never mutates the outcome, and its
checks consume no randomness, so canonical outcomes are identical with
monitors on or off (the property suite enforces this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.common.errors import MonitorViolationError

if TYPE_CHECKING:
    from repro.core.audit import Violation

__all__ = ["MonitorSuite", "violation_total"]


class MonitorSuite:
    """Audits every cleared outcome and escalates in strict mode.

    ``strict=True`` escalates any violation to
    :class:`~repro.common.errors.MonitorViolationError` *after* the
    alert events and counters are emitted, so the evidence always lands
    before the process unwinds.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.checks_run = 0
        self.violations_found = 0

    @property
    def checks(self) -> Sequence[str]:
        """The names of the checks every outcome goes through."""
        # Imported lazily: repro.core pulls in repro.obs at import time,
        # so a module-level import here would be circular.
        from repro.core.audit import CHECKS

        return CHECKS

    def check_outcome(self, outcome: Any) -> List["Violation"]:
        """Audit ``outcome``; returns (never raises on) the violations."""
        from repro.core.audit import audit_outcome

        requests = [m.request for m in outcome.matches]
        requests += outcome.reduced_requests
        requests += outcome.unmatched_requests
        offers = [m.offer for m in outcome.matches]
        offers += outcome.reduced_offers
        offers += outcome.unmatched_offers
        violations = audit_outcome(requests, offers, outcome).violations
        self.checks_run += len(self.checks)
        self.violations_found += len(violations)
        return violations

    def escalate(self, violations: Sequence["Violation"]) -> None:
        """Raise in strict mode once the violations have been emitted."""
        if self.strict and violations:
            summary = "; ".join(str(v) for v in violations)
            raise MonitorViolationError(
                f"{len(violations)} mechanism invariant violation(s): "
                f"{summary}",
                violations=violations,
            )


def violation_total(registry: Any) -> int:
    """Sum of ``monitor_violations_total`` across all label sets."""
    counters: Optional[Dict[Any, float]] = getattr(
        registry, "counters", None
    )
    if not counters:
        return 0
    return int(
        sum(
            value
            for (name, _labels), value in counters.items()
            if name == "monitor_violations_total"
        )
    )
