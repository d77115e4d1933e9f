"""Fault-injection layer: fault plans, Byzantine actors, degradation.

The protocol's claims only mean something if faults can actually occur;
these tests inject them deterministically and assert the two-phase
exposure protocol degrades exactly as designed: faulty bids drop out,
honest bids clear, typed errors fire only when quorum is unreachable.
Byzantine actors run on the lossless synchronous bus; network faults
(drops, crashes, partitions) run on the runtime's transport, the one
network that replays a :class:`FaultPlan`.
"""

import functools
import warnings

import pytest

from repro.common.errors import (
    ByzantineFaultError,
    EquivocationError,
    InsecureKeyWarning,
    RevealTimeoutError,
    ValidationError,
)
from repro.faults import (
    CrashSpec,
    EquivocatingMiner,
    FaultPlan,
    GarbageSealingParticipant,
    TamperingParticipant,
    WithholdingParticipant,
    detect_equivocation,
    make_partition,
)
from repro.ledger.miner import Miner
from repro.ledger.network import BroadcastNetwork
from repro.protocol.allocator import DecloudAllocator, decode_round
from repro.protocol.exposure import ExposureProtocol, Participant
from repro.protocol.settlement import SettlementProcessor, TokenLedger
from repro.runtime import (
    DeterministicScheduler,
    DeterministicTransport,
    RoundInput,
    Runtime,
)
from repro.sim.chaos import ChaosSpec, run_chaos_point, run_chaos_sweep
from repro.sim.engine import replay_fault_free
from tests.conftest import make_offer, make_request


def _miners(num_miners=3, bits=4, leader_cls=Miner):
    return [
        (leader_cls if i == 0 else Miner)(
            miner_id=f"m{i}",
            allocate=DecloudAllocator(),
            difficulty_bits=bits,
        )
        for i in range(num_miners)
    ]


def _protocol(num_miners=3, leader_cls=Miner):
    return ExposureProtocol(miners=_miners(num_miners, leader_cls=leader_cls))


def _participant(pid, cls=Participant):
    return cls(participant_id=pid, deterministic=True, seal_seed=b"faults")


def _market(client_cls=Participant):
    """Three clients, two providers — deep enough that the double
    auction's trade reduction still leaves honest trades when one bid
    drops out.  ``client_cls`` swaps in a Byzantine actor for alice.
    Returns (participant, bid) pairs in submission order."""
    return [
        (
            _participant("alice", client_cls),
            make_request(request_id="ra", client_id="alice", bid=2.0),
        ),
        (
            _participant("anna"),
            make_request(request_id="rb", client_id="anna", bid=1.5),
        ),
        (
            _participant("ada"),
            make_request(request_id="rc", client_id="ada", bid=1.0),
        ),
        (
            _participant("bob"),
            make_offer(offer_id="ob", provider_id="bob", bid=0.4),
        ),
        (
            _participant("ben"),
            make_offer(offer_id="oc", provider_id="ben", bid=0.6),
        ),
    ]


def _submit_market(protocol, client_cls=Participant):
    """Submit :func:`_market` on the lossless bus.
    Returns (participants, txids by participant id)."""
    market = _market(client_cls)
    txids = {
        participant.participant_id: protocol.submit(participant, bid).txid()
        for participant, bid in market
    }
    return [participant for participant, _ in market], txids


def _faulty_round(plan, client_cls=Participant):
    """One :func:`_market` round through the runtime over ``plan``.
    Returns the round record and the sender of every preamble txid."""
    runtime = Runtime(_miners(), plan=plan)
    report = runtime.run([RoundInput(submissions=tuple(_market(client_cls)))])
    (record,) = report.rounds
    senders = {}
    if record.result is not None:
        senders = {
            tx.txid(): tx.sender_id
            for tx in record.result.block.preamble.transactions
        }
    return record, senders


class TestFaultPlan:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError):
            FaultPlan(drop_rate=1.0)
        with pytest.raises(ValidationError):
            FaultPlan(duplicate_rate=-0.1)
        with pytest.raises(ValidationError):
            FaultPlan(min_delay=2.0, max_delay=1.0)

    def test_rejects_bad_windows(self):
        with pytest.raises(ValidationError):
            CrashSpec(node_id="m0", at=5.0, until=1.0)
        with pytest.raises(ValidationError):
            make_partition(("a",), ("a", "b"))  # overlapping groups
        with pytest.raises(ValidationError):
            make_partition(("a", "b"))  # one group is no partition

    def test_equal_plans_equal_fault_streams(self):
        def fates(plan):
            sched = DeterministicScheduler(seed=0)
            bus = DeterministicTransport(sched, plan=plan)
            inbox = []
            bus.subscribe_node("n0", "t", lambda s, p: inbox.append(p))
            for i in range(30):
                bus.broadcast("t", i)
            sched.run()
            return sorted(inbox)

        def plan():
            return FaultPlan(seed=42, drop_rate=0.5, duplicate_rate=0.3)

        assert fates(plan()) == fates(plan())
        assert fates(plan()) != list(range(30))  # actually faulty


class TestUnreliableNetwork:
    """The unreliable network: a :class:`FaultPlan` replayed by the
    runtime's :class:`DeterministicTransport`."""

    def _counting_net(self, plan, schedule_seed=0):
        sched = DeterministicScheduler(seed=schedule_seed)
        net = DeterministicTransport(sched, plan=plan)
        received = []
        net.subscribe_node(
            "n0", "t", lambda sender, payload: received.append(payload)
        )
        return sched, net, received

    def test_lossless_plan_delivers_everything(self):
        sched, net, received = self._counting_net(FaultPlan())
        for i in range(10):
            net.broadcast("t", i, sender="s")
        sched.run()
        assert sorted(received) == list(range(10))
        assert (net.dropped, net.censored) == (0, 0)
        assert len(net.messages("t")) == 10

    def test_drops_are_deterministic(self):
        """Drop fates follow the plan's seed, not the schedule's."""
        outcomes = []
        for schedule_seed in (0, 1):
            sched, net, received = self._counting_net(
                FaultPlan(drop_rate=0.5, seed=7), schedule_seed=schedule_seed
            )
            for i in range(50):
                net.broadcast("t", i)
            sched.run()
            outcomes.append(sorted(received))
            assert net.dropped == 50 - len(received)
        assert outcomes[0] == outcomes[1]
        assert 0 < len(outcomes[0]) < 50  # actually lossy, not degenerate

    def test_partition_and_heal(self):
        """A plan's partition window severs traffic across its groups and
        heals at its end; each side still reaches itself meanwhile."""
        plan = FaultPlan(partitions=(make_partition(("a",), ("b",), end=1.0),))
        sched = DeterministicScheduler(seed=0)
        net = DeterministicTransport(sched, plan=plan)
        inbox_a, inbox_b = [], []
        net.subscribe_node("a", "t", lambda s, p: inbox_a.append(p))
        net.subscribe_node("b", "t", lambda s, p: inbox_b.append(p))
        net.broadcast("t", "split", sender="a")
        sched.run()
        assert inbox_a == ["split"]  # own side still reachable
        assert inbox_b == []
        sched.call_at(1.0, lambda: net.broadcast("t", "joined", sender="a"))
        sched.run()
        assert inbox_b == ["joined"]


class TestBroadcastNetworkSnapshot:
    def test_subscribe_during_delivery_not_delivered_current_message(self):
        net = BroadcastNetwork()
        late_inbox = []

        def resubscriber(sender, payload):
            net.subscribe("t", lambda s, p: late_inbox.append(p))

        net.subscribe("t", resubscriber)
        net.broadcast("t", "first")  # must not blow up nor reach late_inbox
        assert late_inbox == []
        net.broadcast("t", "second")
        assert late_inbox == ["second"]


class TestParticipantKeys:
    def test_default_keypair_warns(self):
        with pytest.warns(InsecureKeyWarning):
            Participant(participant_id="naive")

    def test_deterministic_optin_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", InsecureKeyWarning)
            Participant(participant_id="sim", deterministic=True)

    def test_fresh_key_is_silent_and_unforgeable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", InsecureKeyWarning)
            p = Participant(participant_id="real", fresh_key=True)
        clone = Participant(participant_id="real", deterministic=True)
        assert p.keypair.secret != clone.keypair.secret

    def test_seal_seed_reproduces_txids(self):
        txids = []
        for _ in range(2):
            p = Participant(
                participant_id="alice", deterministic=True, seal_seed=b"s"
            )
            tx = p.seal(make_request(client_id="alice"))
            txids.append(tx.txid())
        assert txids[0] == txids[1]


class TestDegradedRounds:
    def test_acceptance_20pct_drop_one_withholder(self):
        """20% drop + a withholding participant.

        The round must complete, excluding exactly the withheld bid, and
        two identical runs must produce identical outcomes.
        """
        fingerprints = []
        for _ in range(2):
            plan = FaultPlan(seed="acceptance", drop_rate=0.2)
            record, senders = _faulty_round(
                plan, client_cls=WithholdingParticipant
            )
            result = record.result
            assert result is not None, record.error
            assert [senders[t] for t in result.excluded_txids] == ["alice"]
            matched = {
                m["request_id"]
                for m in result.block.body.allocation["matches"]
            }
            assert "ra" not in matched  # the withheld bid
            assert "rb" in matched  # the honest client still trades
            assert len(result.accepted_by) == 3
            fingerprints.append(
                (result.block.hash(), str(result.block.body.allocation))
            )
        assert fingerprints[0] == fingerprints[1]

    def test_all_reveals_withheld_raises_typed_error(self):
        protocol = _protocol()
        alice = _participant("alice", WithholdingParticipant)
        bob = _participant("bob", WithholdingParticipant)
        protocol.submit(
            alice, make_request(request_id="ra", client_id="alice")
        )
        protocol.submit(bob, make_offer(provider_id="bob"))
        with pytest.raises(RevealTimeoutError):
            protocol.run_round([alice, bob])

    def test_an_aborted_rounds_bids_stay_out_of_the_next_preamble(self):
        # a round's preamble holds the bids submitted for it, nothing an
        # earlier, aborted round left in the mempools
        protocol = _protocol()
        withholder = _participant("alice", WithholdingParticipant)
        stale = protocol.submit(
            withholder, make_request(request_id="r0", client_id="alice")
        ).txid()
        with pytest.raises(RevealTimeoutError):
            protocol.run_round([withholder])
        participants, txids = _submit_market(protocol)
        result = protocol.run_round(participants + [withholder])
        included = [tx.txid() for tx in result.block.preamble.transactions]
        assert stale not in included
        assert included == list(txids.values())
        assert result.excluded_txids == ()

    def test_tampered_reveal_excluded_with_evidence(self):
        protocol = _protocol()
        participants, txids = _submit_market(
            protocol, client_cls=TamperingParticipant
        )
        result = protocol.run_round(participants)
        assert result.excluded_txids == (txids["alice"],)
        leader = protocol.miners[0]
        reasons = [reason for _, reason in leader.rejected_reveals]
        assert "commitment mismatch" in reasons

    def test_equivocating_leader_falls_back_to_next_miner(self):
        protocol = _protocol(leader_cls=EquivocatingMiner)
        participants, _ = _submit_market(protocol)
        result = protocol.run_round(participants)
        assert result.failed_proposers == ("m0",)
        assert result.block.body.miner_id == "m1"
        # the honest body carries no Byzantine payload
        assert "subsidy" not in result.block.body.allocation
        assert len(result.accepted_by) >= protocol.quorum

    def test_all_miners_byzantine_raises(self):
        miners = [
            EquivocatingMiner(
                miner_id=f"m{i}",
                allocate=DecloudAllocator(),
                difficulty_bits=4,
            )
            for i in range(2)
        ]
        protocol = ExposureProtocol(miners=miners)
        participants, _ = _submit_market(protocol)
        with pytest.raises(ByzantineFaultError):
            protocol.run_round(participants)

    def test_crashed_majority_raises_quorum_error(self):
        plan = FaultPlan(
            crashes=(
                CrashSpec(node_id="m0", at=0.0),
                CrashSpec(node_id="m1", at=0.0),
            )
        )
        record, _ = _faulty_round(plan)
        assert record.result is None
        assert record.error == "QuorumError"

    def test_partitioned_client_drops_out_of_preamble(self):
        plan = FaultPlan(
            partitions=(
                make_partition(("alice",), ("m0", "m1", "m2")),
            )
        )
        record, senders = _faulty_round(plan)
        assert record.result is not None, record.error
        block_senders = set(senders.values())
        assert "alice" not in block_senders  # never reached any miner
        assert {"anna", "bob"} <= block_senders

    def test_detect_equivocation_from_conflicting_bodies(self):
        miner = EquivocatingMiner(
            miner_id="evil", allocate=DecloudAllocator(), difficulty_bits=4
        )
        alice = _participant("alice")
        tx = alice.seal(make_request(client_id="alice"))
        miner.accept_transaction(tx)
        preamble = miner.build_preamble()
        reveals = tuple(alice.reveals_for(preamble))
        honest, doctored = miner.equivocate(preamble, reveals)
        with pytest.raises(EquivocationError):
            detect_equivocation(preamble, honest, doctored)
        # a single consistent body is not equivocation
        detect_equivocation(preamble, honest, honest)


class TestGarbageSealing:
    """A plaintext that opens cleanly but is no bid of its sender's
    passes admission; the clear's decoder drops it, on every miner."""

    @pytest.mark.parametrize(
        "impersonate", [None, "anna"], ids=["not-json", "foreign-sender"]
    )
    def test_round_commits_without_the_bid_on_the_reactor(self, impersonate):
        garbage = functools.partial(
            GarbageSealingParticipant, impersonate=impersonate
        )
        runtime = Runtime(_miners())
        report = runtime.run([RoundInput(submissions=tuple(_market(garbage)))])
        (result,) = report.committed
        block = result.block
        assert "alice" in {tx.sender_id for tx in block.preamble.transactions}
        # the key opened its commitment and its box: admitted, not excluded
        assert result.excluded_txids == ()
        assert sorted(result.accepted_by) == ["m0", "m1", "m2"]
        assert {m.chain.tip_hash for m in runtime.miners} == {block.hash()}
        for miner in runtime.miners:
            assert not miner.rejected_reveals
        # the honest bids' clear on the block's own evidence, alone
        honest = {
            participant.participant_id: [bid.to_json()]
            for participant, bid in _market()
            if participant.participant_id != "alice"
        }
        expected = replay_fault_free(
            *decode_round(honest), block.preamble.evidence()
        )
        assert block.body.allocation == expected
        assert result.outcome.to_payload() == expected
        matched = {m["request_id"] for m in expected["matches"]}
        assert "ra" not in matched and matched


class TestGossipIngestion:
    def _miner_with_preamble(self):
        miner = Miner(
            miner_id="m", allocate=DecloudAllocator(), difficulty_bits=4
        )
        alice = _participant("alice")
        tx = alice.seal(make_request(client_id="alice"))
        miner.accept_transaction(tx)
        preamble = miner.build_preamble()
        (reveal,) = alice.reveals_for(preamble)
        return miner, preamble, reveal

    def test_duplicate_preamble_is_idempotent(self):
        miner, preamble, _ = self._miner_with_preamble()
        assert miner.accept_preamble(preamble) is True
        assert miner.accept_preamble(preamble) is False
        assert len(miner.preamble_inbox) == 1

    def test_duplicate_reveal_is_idempotent(self):
        miner, preamble, reveal = self._miner_with_preamble()
        miner.accept_preamble(preamble)
        assert miner.accept_reveal(preamble.hash(), reveal) is True
        assert miner.accept_reveal(preamble.hash(), reveal) is False
        assert len(miner.reveal_inbox[preamble.hash()]) == 1

    def test_reveal_before_preamble_is_screened_on_arrival(self):
        miner, preamble, reveal = self._miner_with_preamble()
        # reordered gossip: the reveal races ahead of its preamble
        assert miner.accept_reveal(preamble.hash(), reveal) is False
        assert miner.collected_reveals(preamble) == ()
        miner.accept_preamble(preamble)
        assert miner.collected_reveals(preamble) == (reveal,)


class TestDuplicateDeliverySafety:
    def test_settlement_is_idempotent_per_block(self):
        class _Bid:
            def __init__(self, **kw):
                self.__dict__.update(kw)

        match = _Bid(
            request=_Bid(client_id="cli", request_id="req"),
            offer=_Bid(provider_id="prov"),
            payment=5.0,
        )
        processor = SettlementProcessor(ledger=TokenLedger())
        first = processor.settle_block(
            [match], auto_fund=True, block_hash="b1"
        )
        again = processor.settle_block(
            [match], auto_fund=True, block_hash="b1"
        )
        assert first == again
        assert len(processor.ledger.escrows) == 1
        assert processor.ledger.total_supply() == 5.0


class TestChaosHarness:
    def test_sweep_is_deterministic(self):
        spec = ChaosSpec(rounds=1, num_clients=4, withholding_clients=1)
        sweep_a = run_chaos_sweep(spec, drop_rates=(0.0, 0.3))
        sweep_b = run_chaos_sweep(spec, drop_rates=(0.0, 0.3))
        for a, b in zip(sweep_a, sweep_b):
            assert (a.welfare, a.excluded_bids, a.messages_dropped) == (
                b.welfare,
                b.excluded_bids,
                b.messages_dropped,
            )

    def test_faultless_point_retains_all_welfare(self):
        spec = ChaosSpec(rounds=1, num_clients=4)
        (point,) = run_chaos_sweep(spec, drop_rates=(0.0,))
        assert point.success_rate == 1.0
        assert point.welfare_retention == pytest.approx(1.0)
        assert point.integrity_failures == 0

    def test_byzantine_point_completes_with_exclusions(self):
        spec = ChaosSpec(
            rounds=1,
            num_clients=4,
            withholding_clients=1,
            equivocating_leader=True,
        )
        point = run_chaos_point(spec, 0.2)
        assert point.success_rate == 1.0
        assert point.excluded_bids >= 1
        assert point.fallback_rounds == 1
        assert point.integrity_failures == 0
