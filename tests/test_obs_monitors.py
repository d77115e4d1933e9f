"""Runtime mechanism monitors: clean outcomes pass, corruption is caught.

The monitor suite re-checks the paper's §IV guarantees on every cleared
block.  These tests pin both directions: every golden fixture clears
with zero violations under both engines, and a deliberately corrupted
outcome (a settlement layer skimming provider revenue) trips the
budget-balance monitor exactly once — with the structured alert event,
the counter, the flight-recorder dump, and (in strict mode) the raised
:class:`~repro.common.errors.MonitorViolationError` all in place.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.common.errors import MonitorViolationError
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.obs import Observability
from repro.obs.flight import FlightRecorder, load_flight
from repro.core.audit import CHECKS
from repro.obs.monitors import MonitorSuite, violation_total
from repro.workloads.generators import MarketScenario
from tests.differential.conftest import market_from_payload

GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures" / "golden"
FIXTURES = sorted(GOLDEN_DIR.glob("*.json"))


def _clear_market(seed: int = 3, n_requests: int = 30, obs=None):
    scenario = MarketScenario(n_requests=n_requests, seed=seed)
    requests, offers = scenario.generate()
    outcome = DecloudAuction(AuctionConfig()).run(
        requests, offers, evidence=b"monitor-test", obs=obs
    )
    return outcome


class _SkimmingOutcome:
    """Wraps a real outcome but skims revenue off the first provider —
    the settlement-tamper scenario the budget-balance monitor exists
    to catch."""

    def __init__(self, base, skim: float = 0.01) -> None:
        self._base = base
        self._skim = skim

    def __getattr__(self, name):
        return getattr(self._base, name)

    def revenues(self):
        revenues = dict(self._base.revenues())
        first = next(iter(revenues))
        revenues[first] -= self._skim
        return revenues


class TestGoldenFixturesPassClean:
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_zero_violations_on_golden_fixture(self, path, engine):
        fixture = json.loads(path.read_text())
        requests, offers = market_from_payload(fixture["market"])
        config = AuctionConfig(engine=engine, **fixture["config"])
        outcome = DecloudAuction(config).run(
            requests, offers, evidence=bytes.fromhex(fixture["evidence"])
        )
        suite = MonitorSuite()
        assert suite.check_outcome(outcome) == []
        assert suite.checks_run == len(CHECKS)
        assert suite.violations_found == 0

    def test_integrated_auction_run_checks_every_monitor(self):
        obs = Observability("monitored", monitors=MonitorSuite())
        _clear_market(obs=obs)
        for check in CHECKS:
            assert obs.registry.counter_value(
                "monitor_checks_total", monitor=check
            ) == 1.0
        assert violation_total(obs.registry) == 0

    def test_generated_markets_pass_clean(self):
        suite = MonitorSuite()
        for seed in range(4):
            outcome = _clear_market(seed=seed)
            assert suite.check_outcome(outcome) == [], f"seed {seed}"


class TestCorruptedOutcomeIsCaught:
    def test_budget_balance_fires_exactly_once(self):
        outcome = _clear_market()
        assert outcome.num_trades > 0
        corrupted = _SkimmingOutcome(outcome)
        violations = MonitorSuite().check_outcome(corrupted)
        assert [v.check for v in violations] == ["budget_balance"]
        assert violations[0].details["surplus"] == pytest.approx(0.01)
        assert len(violations[0].details["offers"]) == 1

    def test_alert_event_and_counter_emitted(self):
        obs = Observability("corrupted", monitors=MonitorSuite())
        corrupted = _SkimmingOutcome(_clear_market())
        violations = obs.check_outcome(corrupted, source="test")
        assert len(violations) == 1
        assert obs.registry.counter_value(
            "monitor_violations_total", monitor="budget_balance"
        ) == 1.0
        assert violation_total(obs.registry) == 1
        alerts = [
            r
            for r in obs.tracer.records
            if r["type"] == "event" and r["name"] == "monitor.violation"
        ]
        assert len(alerts) == 1
        assert alerts[0]["attrs"]["monitor"] == "budget_balance"
        assert alerts[0]["attrs"]["source"] == "test"

    def test_monitor_violation_dumps_a_flight_bundle(self, tmp_path):
        obs = Observability(
            "corrupted",
            monitors=MonitorSuite(),
            flight=FlightRecorder(out_dir=str(tmp_path)),
        )
        corrupted = _SkimmingOutcome(_clear_market())
        obs.check_outcome(corrupted, round_index=7)
        assert len(obs.flight.dumps) == 1
        meta, records, _headers = load_flight(
            Path(obs.flight.dumps[0]).read_text()
        )
        assert meta["trigger"] == "monitor"
        assert meta["round"] == 7
        assert any(
            r.get("name") == "monitor.violation" for r in records
        )

    def test_strict_mode_escalates_after_emitting_evidence(self):
        obs = Observability(
            "strict", monitors=MonitorSuite(strict=True)
        )
        corrupted = _SkimmingOutcome(_clear_market())
        with pytest.raises(MonitorViolationError) as excinfo:
            obs.check_outcome(corrupted)
        assert excinfo.value.violations[0].check == "budget_balance"
        # the alert landed before the raise
        assert violation_total(obs.registry) == 1

    def test_clean_outcome_never_escalates_in_strict_mode(self):
        obs = Observability(
            "strict-clean", monitors=MonitorSuite(strict=True)
        )
        assert obs.check_outcome(_clear_market()) == []


class TestMonitorUnits:
    def test_budget_balance_is_exact_not_epsilon(self):
        outcome = _clear_market()
        assert outcome.num_trades > 0
        # even a one-ulp-scale skim must fire: fsum is exact
        corrupted = _SkimmingOutcome(outcome, skim=1e-9)
        assert [v.check for v in MonitorSuite().check_outcome(corrupted)] == [
            "budget_balance"
        ]
        assert MonitorSuite().check_outcome(outcome) == []

    def test_violation_total_handles_registries_without_counters(self):
        class Bare:
            pass

        assert violation_total(Bare()) == 0
