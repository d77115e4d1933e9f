"""A node opens, decodes and clears each round once.

Admission screening keeps every admitted reveal's plaintext, and each
node memoises its clear under (preamble hash, exact reveal tuple), so
the proposer's self-check and every fallback re-verification are
lookups.  These tests pin what that may never change — a reveal the
node did not admit is still opened in full (and rejected), a body its
author doctors cannot poison the author's memo, the reported outcome is
the committed block's own — and the counts it exists for, through the
:class:`ExposureProtocol` façade and on the :class:`Runtime` directly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.common.errors import ProtocolError
from repro.cryptosim import symmetric
from repro.faults import EquivocatingMiner, FaultPlan
from repro.ledger.block import Block, BlockBody, BlockPreamble, KeyReveal
from repro.ledger.miner import Miner
from repro.market.bids import Request
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.exposure import ExposureProtocol, Participant, RoundResult
from repro.runtime import RoundInput, Runtime
from repro.workloads.generators import generate_market


class CountingAllocator(DecloudAllocator):
    """A DeCloud allocator that counts its clears."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def __call__(self, plaintexts, evidence):
        self.calls += 1
        return super().__call__(plaintexts, evidence)


class InPlaceDoctor(Miner):
    """A leader that rewrites its own body's allocation *in place*
    before signing it — the write reaches every nested dict the body
    was handed."""

    def build_body(self, preamble, reveals):
        body = super().build_body(preamble, reveals)
        for match in body.allocation["matches"]:
            match["payment"] = 0.0
        body.allocation["subsidy"] = self.miner_id
        return body.signed_by(self.keypair, preamble.hash())


def _miners(classes: Sequence[type] = (Miner, Miner, Miner)) -> List[Miner]:
    return [
        cls(miner_id=f"m{i}", allocate=CountingAllocator(), difficulty_bits=4)
        for i, cls in enumerate(classes)
    ]


def _clears(miners: Sequence[Miner]) -> int:
    return sum(miner.allocate.calls for miner in miners)


def _rounds(n_rounds: int) -> List[List[Tuple[Participant, object]]]:
    """Seeded (participant, bid) submissions, one participant per owner."""
    participants: Dict[str, Participant] = {}
    rounds = []
    for index in range(n_rounds):
        requests, offers = generate_market(4, seed=17 + index)
        entries = []
        for bid in list(requests) + list(offers):
            owner = (
                bid.client_id if isinstance(bid, Request) else bid.provider_id
            )
            participant = participants.setdefault(
                owner,
                Participant(
                    participant_id=owner,
                    deterministic=True,
                    seal_seed=b"work-once",
                ),
            )
            entries.append((participant, bid))
        rounds.append(entries)
    return rounds


def _facade(miners: List[Miner], n_rounds: int = 1) -> List[RoundResult]:
    protocol = ExposureProtocol(miners=miners)
    results = []
    for entries in _rounds(n_rounds):
        for participant, bid in entries:
            protocol.submit(participant, bid)
        participants = list({id(p): p for p, _ in entries}.values())
        results.append(protocol.run_round(participants))
    return results


def _reactor(
    miners: List[Miner], n_rounds: int = 1, plan: FaultPlan = None
) -> List[RoundResult]:
    runtime = Runtime(miners, plan=plan, schedule_seed="work-once")
    report = runtime.run(
        [
            RoundInput(submissions=tuple(entries))
            for entries in _rounds(n_rounds)
        ]
    )
    return list(report.committed)


@pytest.fixture
def decrypts(monkeypatch):
    """Counts every sealed-box decryption in the process."""
    counter = {"calls": 0}
    decrypt = symmetric.decrypt

    def counting(key, box):
        counter["calls"] += 1
        return decrypt(key, box)

    monkeypatch.setattr(symmetric, "decrypt", counting)
    return counter


def _admitted_round(
    n: int = 3,
) -> Tuple[List[Miner], BlockPreamble, Tuple[KeyReveal, ...]]:
    """``n`` miners that all admitted one preamble and all its reveals."""
    miners = _miners([Miner] * n)
    (entries,) = _rounds(1)
    for participant, bid in entries:
        tx = participant.seal(bid)
        for miner in miners:
            miner.accept_transaction(tx)
    preamble = miners[0].build_preamble()
    reveals = []
    for participant in {id(p): p for p, _ in entries}.values():
        reveals.extend(participant.reveals_for(preamble))
    for miner in miners:
        miner.accept_preamble(preamble)
        for reveal in reveals:
            assert miner.accept_reveal(preamble.hash(), reveal)
    return miners, preamble, miners[0].collected_reveals(preamble)


class TestMemoSafety:
    @pytest.mark.parametrize("field", ["temp_key", "blind"])
    def test_a_substituted_reveal_is_opened_in_full_and_rejected(self, field):
        miners, preamble, reveals = _admitted_round()
        leader = miners[0]
        honest = leader.build_body(preamble, reveals)
        # the same txid, a key or blind no node admitted
        swapped = dataclasses.replace(reveals[0], **{field: b"\x07" * 32})
        forged = BlockBody(
            reveals=(swapped,) + reveals[1:],
            allocation=honest.allocation,
            miner_id=leader.miner_id,
            miner_public=leader.keypair.public,
        ).signed_by(leader.keypair, preamble.hash())
        for miner in miners:
            with pytest.raises(ProtocolError, match="does not match"):
                miner.verify_block(Block(preamble=preamble, body=forged))
        # nothing of the failed clear was kept, and the honest body
        # still verifies everywhere
        for miner in miners:
            miner.verify_block(Block(preamble=preamble, body=honest))
            (work,) = miner._work.values()
            assert list(work.cleared) == [reveals]

    def test_a_body_doctored_in_place_cannot_poison_its_author(self):
        miners = _miners([InPlaceDoctor, Miner, Miner])
        (result,) = _facade(miners)
        assert result.failed_proposers == ("m0",)
        assert result.block.body.miner_id == "m1"
        assert "subsidy" not in result.block.body.allocation
        # the doctor re-verified the fallback against its own clear
        assert sorted(result.accepted_by) == ["m0", "m1", "m2"]

    @pytest.mark.parametrize("host", [_facade, _reactor])
    def test_the_equivocating_leader_is_rejected_and_the_fallback_commits(
        self, host
    ):
        miners = _miners([EquivocatingMiner, Miner, Miner])
        (result,) = host(miners)
        assert result.failed_proposers == ("m0",)
        assert result.block.body.miner_id == "m1"
        assert "subsidy" not in result.block.body.allocation
        assert sorted(result.accepted_by) == ["m0", "m1", "m2"]
        assert {m.chain.tip_hash for m in miners} == {result.block.hash()}


class TestReportedOutcome:
    def test_the_outcome_is_the_memo_entrys_not_the_last_clear(self):
        miners, preamble, reveals = _admitted_round(n=1)
        (miner,) = miners
        body = miner.build_body(preamble, reveals)
        block = Block(preamble=preamble, body=body)
        # a later clear of another reveal set moves the allocator's last
        # outcome; the block's own stays with its memo entry
        other = miner.build_body(preamble, reveals[1:])
        assert other.allocation != block.body.allocation
        assert miner.allocate.last_outcome.to_payload() == other.allocation
        miner.verify_block(block)
        assert miner.outcome_of(block).to_payload() == block.body.allocation
        miner.commit_block(block)
        assert miner.outcome_of(block) is None

    @pytest.mark.parametrize(
        "host, plan",
        [
            (_facade, None),
            (_reactor, None),
            (
                _reactor,
                FaultPlan(
                    seed="work-once",
                    drop_rate=0.1,
                    duplicate_rate=0.1,
                    max_delay=0.2,
                    reorder_rate=0.1,
                ),
            ),
        ],
        ids=["lockstep", "reactor", "reactor-lossy"],
    )
    def test_the_outcome_is_the_committed_allocation(self, host, plan):
        # the equivocator leads round 1: that round commits a fallback
        miners = _miners([Miner, EquivocatingMiner, Miner])
        kwargs = {"plan": plan} if plan is not None else {}
        results = host(miners, 3, **kwargs)
        assert len(results) == 3
        assert [r.failed_proposers for r in results][1] == ("m1",)
        for result in results:
            assert (
                result.outcome.to_payload() == result.block.body.allocation
            )
        # and nothing of a committed height is held past its commit
        for miner in miners:
            assert all(
                work.height >= len(miner.chain)
                for work in miner._work.values()
            )


class TestWorkCounts:
    @pytest.mark.parametrize("host", [_facade, _reactor])
    def test_one_clear_per_node_and_one_decrypt_per_admitted_reveal(
        self, host, decrypts
    ):
        miners = _miners()
        (result,) = host(miners)
        assert _clears(miners) == 3
        assert decrypts["calls"] == 3 * len(result.block.body.reveals)
        assert len(result.block.body.reveals) == len(
            result.block.preamble.transactions
        )

    @pytest.mark.parametrize("host", [_facade, _reactor])
    def test_the_equivocation_round_clears_once_per_node(self, host, decrypts):
        miners = _miners([EquivocatingMiner, Miner, Miner])
        (result,) = host(miners)
        assert result.failed_proposers == ("m0",)
        assert _clears(miners) == 3
        assert decrypts["calls"] == 3 * len(result.block.body.reveals)

    def test_a_reveal_the_node_never_admitted_is_still_decrypted(
        self, decrypts
    ):
        miners, preamble, reveals = _admitted_round(n=1)
        (miner,) = miners
        before = decrypts["calls"]
        # a fresh node that admitted nothing opens every reveal itself
        stranger = Miner(
            miner_id="stranger", allocate=DecloudAllocator(), difficulty_bits=4
        )
        body = miner.build_body(preamble, reveals)
        assert decrypts["calls"] == before
        opened = stranger.build_body(preamble, reveals)
        assert opened.allocation == body.allocation
        assert decrypts["calls"] == before + len(reveals)
