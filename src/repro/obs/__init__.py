"""``repro.obs`` — zero-dependency market observability.

One :class:`Observability` object bundles the two instruments every
layer shares:

* :class:`~repro.obs.registry.MetricsRegistry` — labeled counters,
  gauges, and histograms (``obs.registry``);
* :class:`~repro.obs.trace.Tracer` — the structured per-round span/event
  trace with deterministic JSONL export (``obs.tracer``).

Spans are the only wall clock: a phase is a span, and
:func:`~repro.obs.trace.span_seconds` is the per-phase view every
report reads — the auction folds it into the registry as
``auction_phase_seconds{phase=...}`` histograms per round.

The default everywhere is :data:`NULL_OBS`: every write is a no-op, so
instrumented code costs (nearly) nothing until a caller opts in by
passing a live ``Observability()``.  Instrumentation is read-only by
contract — it must never change an auction outcome; the differential
suite runs with observability enabled on both engines to enforce it.

See docs/OBSERVABILITY.md for the metric catalog and trace schema, and
``python -m repro.obs.report`` for the trace summary CLI.
"""

from __future__ import annotations

from typing import Any, List, Optional, Union

from repro.obs.monitors import MonitorSuite, Violation
from repro.obs.registry import (
    LabeledRegistry,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    snapshot_diff,
)
from repro.obs.trace import NULL_TRACER, NullTracer, TraceContext, Tracer

__all__ = [
    "Observability",
    "NullObservability",
    "NULL_OBS",
    "resolve",
    "MetricsRegistry",
    "LabeledRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceContext",
    "MonitorSuite",
    "Violation",
    "snapshot_diff",
    # telemetry plane (repro.obs.telemetry, imported at the bottom)
    "TelemetryPublisher",
    "TelemetryAggregator",
]


class Observability:
    """Live instrument bundle handed down through the layers."""

    enabled = True

    __slots__ = (
        "run_id", "registry", "tracer", "monitors", "flight",
    )

    def __init__(
        self,
        run_id: str = "run",
        monitors: Optional[MonitorSuite] = None,
        flight: Optional[Any] = None,
    ) -> None:
        self.run_id = run_id
        self.registry: MetricsRegistry = MetricsRegistry()
        self.tracer: Tracer = Tracer()
        #: optional runtime invariant checks (repro.obs.monitors),
        #: evaluated via :meth:`check_outcome` after every cleared block
        self.monitors = monitors
        #: optional repro.obs.flight.FlightRecorder — bound to this
        #: bundle so protocol drivers can frame rounds and dump on abort
        self.flight = flight
        if flight is not None:
            flight.bind(self)

    def scoped(self, **labels: object) -> "Observability":
        """A view sharing this tracer but stamping ``labels`` on every
        metric series (e.g. ``mechanism="decloud"``)."""
        view = Observability.__new__(Observability)
        view.run_id = self.run_id
        view.registry = self.registry.labeled(**labels)  # type: ignore[assignment]
        view.tracer = self.tracer
        view.monitors = self.monitors
        view.flight = self.flight
        return view

    def check_outcome(
        self,
        outcome: Any,
        source: str = "auction",
        round_index: Optional[int] = None,
    ) -> List[Violation]:
        """Run the attached monitor suite against one cleared outcome.

        Emits one ``monitor.violation`` event plus a
        ``monitor_violations_total{monitor=...}`` increment per finding,
        bumps ``monitor_checks_total`` per monitor evaluated, triggers a
        flight-recorder dump when anything fired, and finally escalates
        in strict mode.  No-op without a suite attached.
        """
        suite = self.monitors
        if suite is None:
            return []
        violations = suite.check_outcome(outcome)
        for monitor in suite.monitors:
            self.registry.inc("monitor_checks_total", monitor=monitor.name)
        for violation in violations:
            self.tracer.event(
                "monitor.violation",
                monitor=violation.monitor,
                source=source,
                message=violation.message,
                **dict(violation.details),
            )
            self.registry.inc(
                "monitor_violations_total", monitor=violation.monitor
            )
        if violations:
            if self.flight is not None:
                self.flight.dump(
                    trigger="monitor",
                    error=violations[0].message,
                    round_index=round_index,
                )
            suite.escalate(violations)
        return violations

    def trace_jsonl(self, strip_wall: bool = False) -> str:
        return self.tracer.to_jsonl(strip_wall=strip_wall)

    def prometheus_text(self) -> str:
        base = self.registry
        while isinstance(base, LabeledRegistry):
            base = base._base
        return base.to_prometheus_text()


class NullObservability:
    """Shared inert bundle: the off-by-default path."""

    enabled = False

    __slots__ = ()

    run_id = "null"
    registry: NullRegistry = NULL_REGISTRY
    tracer: NullTracer = NULL_TRACER
    monitors = None
    flight = None

    def scoped(self, **labels: object) -> "NullObservability":
        return self

    def check_outcome(
        self,
        outcome: Any,
        source: str = "auction",
        round_index: Optional[int] = None,
    ) -> List[Violation]:
        return []

    def trace_jsonl(self, strip_wall: bool = False) -> str:
        return ""

    def prometheus_text(self) -> str:
        return ""


NULL_OBS = NullObservability()

ObservabilityLike = Union[Observability, NullObservability]


def resolve(obs: Optional[ObservabilityLike]) -> ObservabilityLike:
    """Map ``None`` to the shared no-op bundle."""
    return NULL_OBS if obs is None else obs


# Imported last, after the definitions above, as it always has been.
from repro.obs.telemetry import (  # noqa: E402
    TelemetryAggregator,
    TelemetryPublisher,
)
