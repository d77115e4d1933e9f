"""Differential oracle: the runtime == a straight-line chain of miner calls.

Hypothesis explores three axes at once — scheduler seeds (delivery
order), market shapes (seeded bid populations), and fault plans — and
checks the :class:`~repro.runtime.Runtime`'s equivalence contract on
each draw against :func:`_run_reference`: the protocol round written
out as plain ``Miner`` and ``Participant`` calls, with no scheduler,
transport, observability or journaling, so it shares none of the
host's machinery:

* **fault-free plans** (including delay/reorder/duplicate-only plans,
  which perturb the schedule but lose nothing): every committed block
  is bit-identical to the reference — block hash, canonical outcome,
  exclusions, approvals, and final chain tip — for *every* scheduler
  seed and with pipelining on or off;
* **Byzantine actors without message loss**: withholding clients are
  excluded identically, so bit-equality still holds end to end;
* **lossy plans**: the contract weakens to the chaos harness's
  integrity rule — every committed block equals the fault-free replay
  (:func:`~repro.sim.engine.replay_fault_free`) on exactly its
  surviving bid set, withheld keys exclude only the withholder's own
  bids, and the reported outcome is the block's own.

Markets stay small (≤ 6 clients × 3 providers, ≤ 3 rounds, 4-bit PoW)
so dozens of examples run in seconds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import make_generator
from repro.common.timewindow import TimeWindow
from repro.core.outcome import canonical_outcome
from repro.faults.actors import WithholdingParticipant
from repro.faults.plan import FaultPlan
from repro.ledger.block import Block
from repro.ledger.miner import Miner, open_transactions
from repro.market.bids import Offer, Request
from repro.protocol.allocator import DecloudAllocator, decode_round
from repro.protocol.exposure import Participant, leader_rotation
from repro.runtime import RoundInput, Runtime
from repro.sim.engine import replay_fault_free

# ----------------------------------------------------------------------
# Shared seeded drivers: one market, the runtime and the reference
# ----------------------------------------------------------------------


def _miners(n: int = 3) -> List[Miner]:
    return [
        Miner(
            miner_id=f"m{i}",
            allocate=DecloudAllocator(),
            difficulty_bits=4,
        )
        for i in range(n)
    ]


def _market(
    market_seed: int, round_index: int, n_clients: int, n_providers: int
) -> Tuple[List[Request], List[Offer]]:
    """Seeded per-round bids; identical draws feed both drivers."""
    rng = make_generator(f"rt-eq-{market_seed}-{round_index}")
    requests = [
        Request(
            request_id=f"req-{round_index}-{i}",
            client_id=f"cli-{i}",
            submit_time=0.1 * i,
            resources={"cpu": 2, "ram": 4},
            window=TimeWindow(0, 10),
            duration=4.0,
            bid=float(rng.uniform(1.2, 3.0)),
        )
        for i in range(n_clients)
    ]
    offers = [
        Offer(
            offer_id=f"off-{round_index}-{j}",
            provider_id=f"prov-{j}",
            submit_time=0.1 * j,
            resources={"cpu": 8, "ram": 32},
            window=TimeWindow(0, 24),
            bid=float(rng.uniform(0.2, 0.8)),
        )
        for j in range(n_providers)
    ]
    return requests, offers


def _participants(
    market_seed: int,
    n_clients: int,
    n_providers: int,
    withholding: int = 0,
) -> Dict[str, Participant]:
    """One participant object per id, shared across a run's rounds.

    Both drivers build theirs from this function, so seal counters (and
    therefore temp keys, txids, and block bytes) line up by construction.
    """
    seal_seed = f"rt-eq-{market_seed}".encode("ascii")
    out: Dict[str, Participant] = {}
    for i in range(n_clients):
        cls = WithholdingParticipant if i < withholding else Participant
        out[f"cli-{i}"] = cls(
            participant_id=f"cli-{i}",
            deterministic=True,
            seal_seed=seal_seed,
        )
    for j in range(n_providers):
        out[f"prov-{j}"] = Participant(
            participant_id=f"prov-{j}",
            deterministic=True,
            seal_seed=seal_seed,
        )
    return out


def _round_bids(
    market_seed: int, round_index: int, n_clients: int, n_providers: int
) -> List[Tuple[str, object]]:
    """(participant_id, bid) pairs in the canonical submission order."""
    requests, offers = _market(
        market_seed, round_index, n_clients, n_providers
    )
    return [(r.client_id, r) for r in requests] + [
        (o.provider_id, o) for o in offers
    ]


def _run_reference(
    market_seed: int,
    rounds: int,
    n_clients: int,
    n_providers: int,
    withholding: int = 0,
):
    """Every round as straight-line miner calls on a lossless network.

    Each round: every miner admits the sealed bids, the rotating leader
    mines a preamble, every miner takes it and every disclosed reveal,
    the leader builds the body from what it admitted, every miner
    verifies it, and every miner commits it.  Returns one
    ``(block, outcome, excluded txids, approving miner ids)`` per round,
    and the miners.
    """
    miners = _miners()
    participants = _participants(
        market_seed, n_clients, n_providers, withholding
    )
    results = []
    for round_index in range(rounds):
        for pid, bid in _round_bids(
            market_seed, round_index, n_clients, n_providers
        ):
            tx = participants[pid].seal(bid)
            for miner in miners:
                miner.accept_transaction(tx)
        leader = leader_rotation(miners, round_index)[0]
        preamble = leader.build_preamble()
        phash = preamble.hash()
        for miner in miners:
            miner.accept_preamble(preamble)
        for participant in participants.values():
            for reveal in participant.reveals_for(preamble):
                for miner in miners:
                    miner.accept_reveal(phash, reveal)
        reveals = leader.collected_reveals(preamble)
        block = Block(
            preamble=preamble, body=leader.build_body(preamble, reveals)
        )
        for miner in miners:
            miner.verify_block(block)
        outcome = leader.outcome_of(block)
        for miner in miners:
            miner.commit_block(block)
        revealed = {reveal.txid for reveal in reveals}
        excluded = tuple(
            tx.txid()
            for tx in preamble.transactions
            if tx.txid() not in revealed
        )
        results.append(
            (block, outcome, excluded, [m.miner_id for m in miners])
        )
    return results, miners


def _run_runtime(
    market_seed: int,
    rounds: int,
    n_clients: int,
    n_providers: int,
    schedule_seed: int = 0,
    pipeline: bool = True,
    plan: Optional[FaultPlan] = None,
    withholding: int = 0,
):
    miners = _miners()
    runtime = Runtime(
        miners, plan=plan, schedule_seed=schedule_seed, pipeline=pipeline
    )
    participants = _participants(
        market_seed, n_clients, n_providers, withholding
    )
    inputs = [
        RoundInput(
            submissions=tuple(
                (participants[pid], bid)
                for pid, bid in _round_bids(
                    market_seed, round_index, n_clients, n_providers
                )
            )
        )
        for round_index in range(rounds)
    ]
    return runtime.run(inputs), miners


def _assert_bit_identical(reference, report, ref_miners, rt_miners):
    assert len(report.rounds) == len(reference)
    for (block, outcome, excluded, approving), rt_round in zip(
        reference, report.rounds
    ):
        run = rt_round.result
        assert run is not None, f"runtime aborted: {rt_round.error}"
        assert run.block.hash() == block.hash()
        assert canonical_outcome(run.outcome) == canonical_outcome(outcome)
        assert run.excluded_txids == excluded
        assert sorted(run.accepted_by) == sorted(approving)
    for ref_miner, rt_miner in zip(ref_miners, rt_miners):
        assert rt_miner.chain.tip_hash == ref_miner.chain.tip_hash


def _assert_integrity(result, withholding: int = 0) -> None:
    """The chaos harness's mechanism-integrity rule, on one round, plus
    the exclusion rule: every preamble bid of a withholding client (the
    first ``withholding`` clients) stays sealed."""
    withholders = {f"cli-{i}" for i in range(withholding)}
    assert {
        tx.txid()
        for tx in result.block.preamble.transactions
        if tx.sender_id in withholders
    } <= set(result.excluded_txids)
    body = result.block.require_complete()
    plaintexts = open_transactions(result.block.preamble, body.reveals)
    live_requests, live_offers = decode_round(plaintexts)
    expected = replay_fault_free(
        live_requests,
        live_offers,
        result.block.preamble.evidence(),
        None,
    )
    assert expected == body.allocation


# ----------------------------------------------------------------------
# Fault-free plans: full bit-equality across every schedule
# ----------------------------------------------------------------------


class TestFaultFreeEquivalence:
    @given(
        schedule_seed=st.integers(min_value=0, max_value=2**16),
        market_seed=st.integers(min_value=0, max_value=2**8),
        n_clients=st.integers(min_value=1, max_value=6),
        n_providers=st.integers(min_value=1, max_value=3),
        rounds=st.integers(min_value=1, max_value=3),
        pipeline=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_committed_rounds_bit_identical(
        self,
        schedule_seed,
        market_seed,
        n_clients,
        n_providers,
        rounds,
        pipeline,
    ):
        reference, ref_miners = _run_reference(
            market_seed, rounds, n_clients, n_providers
        )
        report, rt_miners = _run_runtime(
            market_seed,
            rounds,
            n_clients,
            n_providers,
            schedule_seed=schedule_seed,
            pipeline=pipeline,
        )
        _assert_bit_identical(reference, report, ref_miners, rt_miners)

    @given(
        schedule_seed=st.integers(min_value=0, max_value=2**16),
        market_seed=st.integers(min_value=0, max_value=2**8),
        min_delay=st.sampled_from((0.0, 0.02)),
        max_delay=st.sampled_from((0.05, 0.1, 0.15)),
        duplicate_rate=st.sampled_from((0.0, 0.3, 0.6)),
        reorder_rate=st.sampled_from((0.0, 0.3, 0.6)),
    )
    @settings(max_examples=25, deadline=None)
    def test_lossless_perturbations_preserve_bit_equality(
        self,
        schedule_seed,
        market_seed,
        min_delay,
        max_delay,
        duplicate_rate,
        reorder_rate,
    ):
        """Delay, reorder, and duplicate faults move messages around in
        time without losing any — so the runtime must still match the
        reference bit for bit."""
        plan = FaultPlan(
            seed=f"lossless-{market_seed}-{schedule_seed}",
            min_delay=min_delay,
            max_delay=max_delay,
            duplicate_rate=duplicate_rate,
            reorder_rate=reorder_rate,
            reorder_jitter=0.05,
        )
        reference, ref_miners = _run_reference(market_seed, 2, 4, 2)
        report, rt_miners = _run_runtime(
            market_seed, 2, 4, 2, schedule_seed=schedule_seed, plan=plan
        )
        _assert_bit_identical(reference, report, ref_miners, rt_miners)

    @given(
        schedule_seed=st.integers(min_value=0, max_value=2**16),
        market_seed=st.integers(min_value=0, max_value=2**8),
        withholding=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=20, deadline=None)
    def test_withholding_clients_excluded_identically(
        self, schedule_seed, market_seed, withholding
    ):
        """Byzantine non-revealers without message loss: the runtime
        and the reference exclude exactly the same sealed bids, so
        equality holds whole."""
        reference, ref_miners = _run_reference(
            market_seed, 2, 4, 2, withholding=withholding
        )
        report, rt_miners = _run_runtime(
            market_seed,
            2,
            4,
            2,
            schedule_seed=schedule_seed,
            withholding=withholding,
        )
        _assert_bit_identical(reference, report, ref_miners, rt_miners)
        for rt_round in report.rounds:
            if rt_round.result is not None:
                assert len(rt_round.result.excluded_txids) == withholding


# ----------------------------------------------------------------------
# Lossy plans: the integrity contract on whatever commits
# ----------------------------------------------------------------------


class TestDegradedIntegrity:
    @given(
        schedule_seed=st.integers(min_value=0, max_value=2**16),
        market_seed=st.integers(min_value=0, max_value=2**8),
        drop_rate=st.sampled_from((0.05, 0.15, 0.3)),
        duplicate_rate=st.sampled_from((0.0, 0.2)),
        reorder_rate=st.sampled_from((0.0, 0.2)),
        withholding=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=25, deadline=None)
    def test_runtime_committed_blocks_equal_fault_free_replay(
        self,
        schedule_seed,
        market_seed,
        drop_rate,
        duplicate_rate,
        reorder_rate,
        withholding,
    ):
        """Whatever survives a lossy schedule, the committed block is a
        fault-free clearing of exactly its surviving bids — the guarantee
        the chaos harness enforces on every point — and every bid whose
        key was withheld is excluded, whatever else the faults cost."""
        plan = FaultPlan(
            seed=f"lossy-{market_seed}-{schedule_seed}",
            drop_rate=drop_rate,
            duplicate_rate=duplicate_rate,
            reorder_rate=reorder_rate,
            max_delay=0.05,
        )
        report, _ = _run_runtime(
            market_seed,
            2,
            4,
            2,
            schedule_seed=schedule_seed,
            plan=plan,
            withholding=withholding,
        )
        for result in report.committed:
            _assert_integrity(result, withholding)
