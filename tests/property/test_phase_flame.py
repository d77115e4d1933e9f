"""Property: the stall flame accounts for every virtual microsecond.

The reactor marks each phase boundary of a round with a ``runtime.phase``
trace event stamped with virtual time, and
:func:`repro.obs.report.phase_flame` weighs a phase by the distance to
the round's next mark.  Over seeded fault plans (drop, duplicate, delay,
reorder, with or without a bidder who never reveals) every round's
weights must sum to its lifetime, ``finished_at − seal_opened_at``,
whether it committed or aborted: the reveal wait, re-requests and their
backoff included.
"""

from __future__ import annotations

from typing import Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.actors import WithholdingParticipant
from repro.faults.plan import FaultPlan
from repro.obs import Observability
from repro.obs.report import phase_flame
from repro.runtime import Runtime
from repro.sim.sustained import (
    SustainedSpec,
    _build_miners,
    _participants,
    build_round_inputs,
    run_sustained,
)


def _round_totals(folded: str) -> Dict[int, int]:
    totals: Dict[int, int] = {}
    for line in folded.splitlines():
        stack, weight = line.rsplit(" ", 1)
        round_index = int(stack.split(";")[1][len("round_"):])
        totals[round_index] = totals.get(round_index, 0) + int(weight)
    return totals


def _traced_run(spec: SustainedSpec, plan: FaultPlan, withholders: int):
    participants = _participants(spec)
    for pid in sorted(participants)[:withholders]:
        participants[pid] = WithholdingParticipant(
            participant_id=pid,
            deterministic=True,
            seal_seed=f"sustained-{spec.seed}".encode("ascii"),
        )
    obs = Observability("flame")
    runtime = Runtime(
        _build_miners(spec), plan=plan, schedule_seed="flame", obs=obs
    )
    report = runtime.run(build_round_inputs(spec, participants))
    return report, _round_totals(phase_flame(obs.tracer.records))


def _assert_covered(report, totals) -> None:
    for record in report.rounds:
        lifetime = (record.finished_at - record.seal_opened_at) * 1_000_000
        # one microsecond of rounding at either end of the chain
        assert abs(totals.get(record.index, 0) - lifetime) <= 1.0, record


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    drop=st.sampled_from([0.0, 0.1, 0.2]),
    duplicate=st.sampled_from([0.0, 0.1]),
    max_delay=st.sampled_from([0.0, 0.2]),
    reorder=st.sampled_from([0.0, 0.1]),
    withholders=st.integers(min_value=0, max_value=1),
)
def test_flame_weights_sum_to_each_round_lifetime(
    seed, drop, duplicate, max_delay, reorder, withholders
):
    spec = SustainedSpec(rounds=2, seed=seed % 7, difficulty_bits=4)
    plan = FaultPlan(
        seed=f"flame-{seed}",
        drop_rate=drop,
        duplicate_rate=duplicate,
        max_delay=max_delay,
        reorder_rate=reorder,
    )
    report, totals = _traced_run(spec, plan, withholders)
    _assert_covered(report, totals)


def test_aborted_rounds_are_covered_too():
    spec = SustainedSpec(rounds=2, seed=1, difficulty_bits=4)
    plan = FaultPlan(seed="flame-abort", drop_rate=0.1, max_delay=0.2)
    everyone = spec.num_clients + spec.num_providers
    report, totals = _traced_run(spec, plan, withholders=everyone)
    assert [r.error for r in report.rounds] == ["RevealTimeoutError"] * 2
    _assert_covered(report, totals)


def test_motivating_faulty_run_reads_its_whole_lifetime():
    spec = SustainedSpec(rounds=4, seed=3, difficulty_bits=4)
    plan = FaultPlan(
        seed="x", drop_rate=0.2, duplicate_rate=0.1, max_delay=0.2,
        reorder_rate=0.1,
    )
    obs = Observability("flame")
    report = Runtime(
        _build_miners(spec), plan=plan, schedule_seed="s", obs=obs
    ).run(build_round_inputs(spec, _participants(spec)))
    totals = _round_totals(phase_flame(obs.tracer.records))
    assert totals[0] == 7_991_432
    _assert_covered(report, totals)


def test_fault_free_flame_pins_the_phase_widths():
    obs = Observability("flame")
    run_sustained(SustainedSpec(rounds=3, seed=7, difficulty_bits=4), obs=obs)
    lines = set(phase_flame(obs.tracer.records).splitlines())
    seal_wait = {0: 1_569_516, 1: 1_750_000, 2: 1_750_000}
    for round_index, wait in seal_wait.items():
        frame = f"runtime;round_{round_index:04d}"
        assert f"{frame};seal {wait}" in lines
        assert f"{frame};mine 1000000" in lines
        # the verify mark is followed by the commit mark only after the
        # verify and commit widths together
        assert f"{frame};propose 250000" in lines
        assert f"{frame};verify 500000" in lines
