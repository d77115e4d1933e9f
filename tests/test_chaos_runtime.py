"""Chaos and crash-matrix suites on pipelined, multi-round specs.

Every harness in :mod:`repro.sim.chaos` drives the pipelined reactor
over the deterministic transport.  These suites pin graceful
degradation under message loss, mechanism integrity on every committed
block, and the crash-matrix differential: a crash at any WAL boundary
(possibly with *several* pipelined rounds in flight) recovers to
bit-identical outcomes, chain tip, and ledger state.
"""

import pytest

from repro.faults.crash import CrashPoint
from repro.sim.chaos import (
    ChaosSpec,
    CrashMatrixResult,
    run_chaos_point,
    run_chaos_sweep,
    run_crash_matrix,
    run_durable_scenario,
)

#: Byzantine but network-deterministic (drop_rate stays 0 in the crash
#: matrix): committed outcomes are schedule-invariant only for lossless
#: plans, and the continuation runtime after a crash necessarily runs a
#: different schedule than the reference.
MATRIX_SPEC = ChaosSpec(
    num_clients=2,
    num_providers=1,
    num_miners=3,
    rounds=2,
    seed=11,
    withholding_clients=1,
    equivocating_leader=True,
)

SWEEP_SPEC = ChaosSpec(num_clients=4, num_providers=2, rounds=2, seed=3)


#: the spec of ``examples/chaos_sweep.py``
EXAMPLE_SPEC = ChaosSpec(
    num_clients=6,
    num_providers=3,
    num_miners=3,
    rounds=3,
    seed=7,
    difficulty_bits=4,
    withholding_clients=1,
    tampering_clients=1,
    equivocating_leader=True,
    reorder_rate=0.1,
    duplicate_rate=0.05,
)


class TestRuntimeChaosSweep:
    def test_sweep_degrades_gracefully(self):
        points = run_chaos_sweep(SWEEP_SPEC, drop_rates=(0.0, 0.3))
        clean, degraded = points
        assert clean.success_rate == 1.0
        assert clean.integrity_failures == 0
        assert clean.welfare_retention == pytest.approx(1.0)
        # every committed block still decodes to the fault-free replay
        # on its own survivor set, however lossy the network was
        assert degraded.integrity_failures == 0
        assert degraded.messages_dropped > 0

    def test_byzantine_point_excludes_withholder_and_falls_back(self):
        spec = ChaosSpec(
            num_clients=4,
            num_providers=2,
            rounds=2,
            seed=3,
            withholding_clients=1,
            equivocating_leader=True,
        )
        point = run_chaos_point(spec, 0.0, byzantine=True)
        assert point.rounds_completed == spec.rounds
        assert point.excluded_bids >= spec.rounds  # one withheld bid/round
        # the equivocator leads (and gets rejected) once per rotation
        assert point.fallback_rounds >= 1
        assert point.integrity_failures == 0

    def test_monitored_sweep_raises_no_alerts(self):
        point = run_chaos_point(SWEEP_SPEC, 0.15, monitored=True)
        assert point.monitor_alerts == 0

    def test_light_loss_excludes_no_honest_bid(self):
        """At 10-20 % drop every honest bid still clears: a bidder that
        missed the preamble reveals on the leader's re-request, so only
        the Byzantine actors' bids are excluded — as without faults."""
        clean, light, moderate = run_chaos_sweep(
            EXAMPLE_SPEC, drop_rates=(0.0, 0.1, 0.2)
        )
        assert light.messages_dropped > 0 and moderate.messages_dropped > 0
        assert light.excluded_bids == clean.excluded_bids
        assert moderate.excluded_bids == clean.excluded_bids
        assert light.welfare == pytest.approx(clean.welfare)
        assert moderate.welfare == pytest.approx(clean.welfare)


class TestRuntimeDurableScenario:
    def test_uninterrupted_run_is_deterministic(self):
        first = run_durable_scenario(MATRIX_SPEC)
        second = run_durable_scenario(MATRIX_SPEC)
        assert first.crashes == 0
        assert all(o is not None for o in first.outcomes)
        assert first.outcomes == second.outcomes
        assert first.tip_hash == second.tip_hash
        assert first.state_digest == second.state_digest

    def test_mid_pipeline_crash_recovers_bit_identically(self):
        reference = run_durable_scenario(MATRIX_SPEC)
        crashed = run_durable_scenario(
            MATRIX_SPEC,
            crash_point=CrashPoint(at_append=2, mode="torn"),
        )
        assert crashed.crashes == 1
        assert crashed.replayed_rounds >= 1
        assert crashed.outcomes == reference.outcomes
        assert crashed.tip_hash == reference.tip_hash
        assert crashed.state_digest == reference.state_digest

    def test_unfired_crash_point_changes_nothing(self):
        reference = run_durable_scenario(MATRIX_SPEC)
        beyond = CrashPoint(at_append=reference.append_count + 10)
        untouched = run_durable_scenario(MATRIX_SPEC, crash_point=beyond)
        assert not beyond.fired
        assert untouched.crashes == 0
        assert untouched.state_digest == reference.state_digest


@pytest.fixture(scope="module")
def matrix() -> CrashMatrixResult:
    return run_crash_matrix(MATRIX_SPEC, stride=5)


class TestRuntimeCrashMatrix:
    def test_reference_run_is_clean(self, matrix):
        assert matrix.reference.crashes == 0
        assert matrix.reference.monitor_alerts == 0
        assert all(o is not None for o in matrix.reference.outcomes)

    def test_strided_boundaries_covered_in_every_mode(self, matrix):
        assert matrix.reference.append_count > 0
        assert len(matrix.points) >= 3
        assert {p.mode for p in matrix.points} == {"clean", "torn", "corrupt"}
        assert all(p.fired for p in matrix.points)
        assert all(p.crashes >= 1 for p in matrix.points)

    def test_all_crash_points_recover_bit_identically(self, matrix):
        assert matrix.all_match, "\n".join(
            f"at_append={p.at_append} mode={p.mode}: {p.detail}"
            for p in matrix.mismatches
        )

    def test_both_recovery_paths_exercised(self, matrix):
        # late boundaries leave earlier pipelined rounds durably decided
        # (credited from the chain); the in-flight tail replays
        assert any(p.resumed_rounds for p in matrix.points)
        assert any(p.replayed_rounds for p in matrix.points)
