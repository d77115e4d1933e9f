"""The crash-matrix differential: recovery is outcome-invisible.

The central durability guarantee of ``repro.store``: kill the durable
node at ANY write-ahead record boundary — with a clean, torn, or
corrupted final frame — restart it from (snapshot, valid log prefix),
and the supervised run's committed outcomes, chain tip, and ledger
state are bit-identical (``canonical_outcome`` / exact digests) to the
uninterrupted run, with zero monitor violations.
"""

import dataclasses

import pytest

from repro.sim.chaos import (
    ChaosSpec,
    CrashMatrixResult,
    run_crash_matrix,
    run_durable_scenario,
)
from repro.faults.crash import CrashPlan, CrashPoint
from repro.store import state_digest_of
from repro.store.wal import iter_frames

#: deliberately degraded (one withholder) but network-deterministic —
#: the differential contract needs the replayed round to see the exact
#: message stream the first attempt saw
MATRIX_SPEC = ChaosSpec(
    num_clients=2,
    num_providers=1,
    num_miners=3,
    rounds=1,
    seed=5,
    withholding_clients=1,
    max_delay=0.0,
)


@pytest.fixture(scope="module")
def matrix() -> CrashMatrixResult:
    return run_crash_matrix(MATRIX_SPEC, snapshot_every=1)


class TestCrashMatrix:
    def test_every_boundary_covered_in_every_mode(self, matrix):
        assert matrix.reference.append_count > 0
        assert len(matrix.points) == matrix.reference.append_count * 3
        assert all(p.fired for p in matrix.points)
        assert all(p.crashes >= 1 for p in matrix.points)

    def test_reference_run_is_clean(self, matrix):
        assert matrix.reference.crashes == 0
        assert matrix.reference.monitor_alerts == 0
        assert all(o is not None for o in matrix.reference.outcomes)

    def test_all_crash_points_recover_bit_identically(self, matrix):
        assert matrix.all_match, "\n".join(
            f"at_append={p.at_append} mode={p.mode}: {p.detail}"
            for p in matrix.mismatches
        )

    def test_torn_and_corrupt_tails_were_truncated(self, matrix):
        damaged = [
            p for p in matrix.points if p.mode in ("torn", "corrupt")
        ]
        assert damaged
        assert all(p.truncated_bytes > 0 for p in damaged)
        clean = [p for p in matrix.points if p.mode == "clean"]
        assert all(p.truncated_bytes == 0 for p in clean)

    def test_both_recovery_paths_exercised(self, matrix):
        # early boundaries leave the round undecided (abort-and-replay);
        # boundaries at/after the chain.append record leave it decided
        # (credit from the chain, resume settlement)
        assert any(p.replayed_rounds for p in matrix.points)
        assert any(p.resumed_rounds for p in matrix.points)
        assert any(p.resumed_settlements for p in matrix.points)


class TestStreamedDigestOnCrashStates:
    def test_streamed_digest_equals_materialised_at_every_boundary(self):
        # ``state_digest`` is streamed block by block; ``final_state`` is
        # the materialised state the oracle digests.  A two-round run so
        # that recovered chains hold a block journaled by reference.
        spec = dataclasses.replace(MATRIX_SPEC, rounds=2)
        reference = run_durable_scenario(
            spec, snapshot_every=1, keep_state=True
        )
        assert state_digest_of(reference.final_state) == reference.state_digest
        plan = CrashPlan(append_count=reference.append_count)
        for point in plan.points():
            run = run_durable_scenario(
                spec,
                snapshot_every=1,
                crash_point=point,
                keep_state=True,
            )
            assert run.crashes >= 1
            assert state_digest_of(run.final_state) == run.state_digest, point
            assert run.state_digest == reference.state_digest, point


class TestSupervisedScenario:
    def test_mid_round_crash_replays_to_identical_outcome(self):
        reference = run_durable_scenario(MATRIX_SPEC, snapshot_every=1)
        crashed = run_durable_scenario(
            MATRIX_SPEC,
            snapshot_every=1,
            crash_point=CrashPoint(at_append=2, mode="torn"),
        )
        assert crashed.crashes == 1
        assert crashed.replayed_rounds == 1
        assert crashed.outcomes == reference.outcomes
        assert crashed.state_digest == reference.state_digest

    def test_unfired_crash_point_changes_nothing(self):
        reference = run_durable_scenario(MATRIX_SPEC)
        beyond = CrashPoint(at_append=reference.append_count + 10)
        untouched = run_durable_scenario(MATRIX_SPEC, crash_point=beyond)
        assert not beyond.fired
        assert untouched.crashes == 0
        assert untouched.state_digest == reference.state_digest

    def test_multi_round_schedule_survives_a_crash(self):
        spec = ChaosSpec(
            num_clients=2,
            num_providers=1,
            num_miners=3,
            rounds=2,
            seed=9,
            max_delay=0.0,
        )
        reference = run_durable_scenario(spec)
        crashed = run_durable_scenario(
            spec,
            # fire inside round 1 (second round) — the first round's
            # durable state must carry through the restart
            crash_point=CrashPoint(
                at_append=reference.append_count - 3, mode="clean"
            ),
        )
        assert crashed.crashes == 1
        assert crashed.outcomes == reference.outcomes
        assert crashed.tip_hash == reference.tip_hash


class _AppendRecorder(CrashPoint):
    """Never fires; notes the record type of each of node 0's appends."""

    def __init__(self) -> None:
        super().__init__(at_append=10**9)
        self.types = []

    def on_append(self, frame):
        ((record, _start, _end),) = iter_frames(frame)
        self.types.append(record["type"])
        return None


#: a window of one block: three rounds roll the stores three times, and
#: the last two rolls drop blocks
ROLL_SPEC = dataclasses.replace(MATRIX_SPEC, rounds=3)


class TestRollBoundaryMatrix:
    def test_every_append_around_a_roll_recovers_bit_identically(self):
        recorder = _AppendRecorder()
        reference = run_durable_scenario(
            ROLL_SPEC,
            snapshot_every=1,
            crash_point=recorder,
            keep_state=True,
        )
        assert reference.crashes == 0
        assert reference.final_state["chain"]["anchor"]["height"] >= 2
        marks = [
            index
            for index, kind in enumerate(recorder.types)
            if kind == "snapshot.mark"
        ]
        assert len(marks) >= 3
        # the record whose append triggered the roll (its snapshot,
        # compaction and pruning run first), the roll's own mark, and
        # the record the roll was made for
        boundaries = sorted({i + d for i in marks for d in (-1, 0, 1)})
        for at_append in boundaries:
            for mode in ("clean", "torn", "corrupt"):
                point = CrashPoint(at_append=at_append, mode=mode)
                run = run_durable_scenario(
                    ROLL_SPEC,
                    snapshot_every=1,
                    crash_point=point,
                    keep_state=True,
                )
                assert point.fired and run.crashes >= 1, point
                assert run.outcomes == reference.outcomes, point
                assert run.tip_hash == reference.tip_hash, point
                assert run.state_digest == reference.state_digest, point
                assert state_digest_of(run.final_state) == run.state_digest
                assert run.monitor_alerts == 0, point
