"""Unit tests for the async runtime: scheduler, transport, reactor.

The heavyweight guarantees (bit-equality with straight-line miner calls
across schedules and fault plans, trace determinism) live in the
differential and property suites; these tests pin the building blocks —
seeded scheduling, fault-keyed transport fates, backpressure, pipelining
overlap — plus a single/multi-round equivalence smoke between the
pipelined runtime and the :class:`ExposureProtocol` façade's sequential
rounds.
"""

import pytest

from repro.core.outcome import canonical_outcome
from repro.faults.actors import WithholdingParticipant
from repro.faults.plan import CrashSpec, FaultPlan, make_partition
from repro.ledger.miner import Miner
from repro.protocol import messages
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.exposure import ExposureProtocol, Participant
from repro.runtime import (
    DeterministicScheduler,
    DeterministicTransport,
    RoundInput,
    Runtime,
    RuntimeCosts,
)
from tests.conftest import make_offer, make_request


def _miners(n=3, bits=4, prefix="m"):
    return [
        Miner(
            miner_id=f"{prefix}{i}",
            allocate=DecloudAllocator(),
            difficulty_bits=bits,
        )
        for i in range(n)
    ]


def _participant(pid):
    return Participant(
        participant_id=pid, deterministic=True, seal_seed=b"runtime"
    )


def _market_bids():
    """Submission order shared by both drivers (3 clients, 2 providers)."""
    return [
        ("alice", make_request(request_id="ra", client_id="alice", bid=2.0)),
        ("anna", make_request(request_id="rb", client_id="anna", bid=1.5)),
        ("ada", make_request(request_id="rc", client_id="ada", bid=1.0)),
        ("bob", make_offer(offer_id="ob", provider_id="bob", bid=0.4)),
        ("ben", make_offer(offer_id="oc", provider_id="ben", bid=0.6)),
    ]


def _facade_rounds(rounds=1):
    protocol = ExposureProtocol(miners=_miners())
    # one participant object per id across all rounds, mirroring the
    # runtime side below (seal counters must line up between engines)
    participants = {pid: _participant(pid) for pid, _ in _market_bids()}
    results = []
    for _ in range(rounds):
        for pid, bid in _market_bids():
            protocol.submit(participants[pid], bid)
        results.append(protocol.run_round(list(participants.values())))
    return results


def _runtime_rounds(
    rounds=1, schedule_seed=0, pipeline=True, plan=None, spacing=0.0
):
    runtime = Runtime(
        _miners(), plan=plan, schedule_seed=schedule_seed, pipeline=pipeline
    )
    participants = {pid: _participant(pid) for pid, _ in _market_bids()}
    bids = _market_bids()
    inputs = [
        RoundInput(
            submissions=tuple(
                (participants[pid], bid) for pid, bid in bids
            ),
            offsets=tuple(i * spacing for i in range(len(bids))),
        )
        for _ in range(rounds)
    ]
    return runtime.run(inputs), runtime


class TestScheduler:
    def test_same_seed_same_order(self):
        def trace_for(seed):
            sched = DeterministicScheduler(seed=seed)
            order = []
            for i in range(10):
                sched.call_later(0.0, lambda i=i: order.append(i))
            sched.run()
            return order

        assert trace_for(7) == trace_for(7)

    def test_different_seeds_permute_cotemporal_events(self):
        orders = set()
        for seed in range(8):
            sched = DeterministicScheduler(seed=seed)
            order = []
            for i in range(6):
                sched.call_later(0.0, lambda i=i: order.append(i))
            sched.run()
            orders.add(tuple(order))
        assert len(orders) > 1  # seeds genuinely explore schedules

    def test_time_ordering_beats_tiebreak(self):
        sched = DeterministicScheduler(seed=0)
        order = []
        sched.call_later(2.0, lambda: order.append("late"))
        sched.call_later(1.0, lambda: order.append("early"))
        sched.run()
        assert order == ["early", "late"]
        assert sched.now == 2.0

    def test_cancel(self):
        sched = DeterministicScheduler(seed=0)
        order = []
        handle = sched.call_later(1.0, lambda: order.append("cancelled"))
        sched.call_later(2.0, lambda: order.append("kept"))
        sched.cancel(handle)
        sched.run()
        assert order == ["kept"]


class TestDeterministicTransport:
    def _bus(self, plan=None, **kwargs):
        sched = DeterministicScheduler(seed=1)
        bus = DeterministicTransport(sched, plan=plan, **kwargs)
        inbox = []
        bus.subscribe_node("n0", "t", lambda s, p: inbox.append(p))
        return sched, bus, inbox

    def test_faultless_plan_delivers_everything(self):
        sched, bus, inbox = self._bus()
        for i in range(10):
            bus.broadcast("t", i)
        sched.run()
        assert sorted(inbox) == list(range(10))
        assert bus.dropped == 0

    def test_keyed_fates_are_independent_of_send_order(self):
        """The same logical key draws the same fate at any stream position.

        This is the property crash-recovery replay rests on: a
        continuation re-broadcasts the surviving suffix of a run, so
        global send order differs — fates must not.
        """
        def fates(keys):
            sched = DeterministicScheduler(seed=1)
            bus = DeterministicTransport(
                sched, plan=FaultPlan(seed=5, drop_rate=0.5)
            )
            inbox = []
            bus.subscribe_node("n0", "t", lambda s, p: inbox.append(p))
            for key in keys:
                bus.broadcast("t", key, key=key)
            sched.run()
            return set(inbox)

        keys = [f"k{i}" for i in range(30)]
        full = fates(keys)
        suffix = fates(keys[10:])
        assert 0 < len(full) < 30  # actually lossy
        assert suffix == {k for k in full if k in keys[10:]}

    def test_topic_isolation(self):
        sched, bus, inbox = self._bus()
        bus.broadcast("other", "x")
        sched.run()
        assert inbox == []

    def test_drop_rate_statistics(self):
        sched, bus, inbox = self._bus(plan=FaultPlan(seed=5, drop_rate=0.5))
        for i in range(1000):
            bus.broadcast("t", i, key=f"k{i}")
        sched.run()
        assert bus.dropped + len(inbox) == 1000
        assert 400 <= bus.dropped <= 600

    def test_crash_window_censors_at_arrival_time(self):
        plan = FaultPlan(
            min_delay=1.2,
            max_delay=1.4,
            crashes=(CrashSpec(node_id="n0", at=1.0, until=2.0),),
        )
        sched, bus, inbox = self._bus(plan=plan)
        bus.broadcast("t", "in-window", key="a")  # lands ~1.3: censored
        sched.run()
        assert inbox == []
        assert bus.censored == 1
        bus.broadcast("t", "recovered", key="b")  # lands past 2.0
        sched.run()
        assert inbox == ["recovered"]

    @pytest.mark.parametrize(
        "plan, crashed, sender, expected",
        [
            pytest.param(
                FaultPlan(seed=1, duplicate_rate=0.99), (), "",
                ["msg", "msg"], id="duplicate-delivered-twice",
            ),
            pytest.param(
                FaultPlan(), ("chatty",), "chatty", [],
                id="crashed-sender-silent",
            ),
            pytest.param(
                FaultPlan(crashes=(CrashSpec(node_id="n0", at=0.0),)),
                (), "", [], id="plan-scheduled-crash",
            ),
        ],
    )
    def test_single_send_fates(self, plan, crashed, sender, expected):
        sched, bus, inbox = self._bus(plan=plan)
        for node in crashed:
            bus.crash_node(node)
        bus.broadcast("t", "msg", sender=sender, key="k")
        sched.run()
        assert inbox == expected

    def test_scripted_crash_censors_until_recovery(self):
        sched, bus, inbox = self._bus()
        bus.crash_node("n0")
        bus.broadcast("t", "lost")
        sched.run()
        assert inbox == []
        assert bus.censored == 1
        bus.recover_node("n0")
        bus.broadcast("t", "after")
        sched.run()
        assert inbox == ["after"]

    def test_delay_reorders_across_broadcasts(self):
        sched, bus, inbox = self._bus(plan=FaultPlan(seed=3, max_delay=1.0))
        for i in range(20):
            bus.broadcast("t", i)
        sched.run()
        assert sorted(inbox) == list(range(20))
        assert inbox != list(range(20))  # delivery order != send order

    def test_messages_log_keeps_every_send(self):
        """``messages`` lists what was *sent*, delivered or not."""
        _sched, bus, _inbox = self._bus(plan=FaultPlan(seed=0, drop_rate=0.9))
        bus.broadcast("topic-x", "payload", sender="s")
        assert [m.payload for m in bus.messages("topic-x")] == ["payload"]

    def test_backpressure_defers_and_eventually_delivers(self):
        sched, bus, inbox = self._bus(inbox_capacity=2)
        for i in range(10):
            bus.broadcast("t", i)
        sched.run()
        assert sorted(inbox) == list(range(10))  # nothing lost
        assert bus.deferred > 0  # but the edge genuinely pushed back
        assert bus.inbox_high_watermark <= 2

    def test_partition_and_heal(self):
        sched = DeterministicScheduler(seed=0)
        bus = DeterministicTransport(sched)
        inbox_a, inbox_b = [], []
        bus.subscribe_node("a", "t", lambda s, p: inbox_a.append(p))
        bus.subscribe_node("b", "t", lambda s, p: inbox_b.append(p))
        bus.partition(("a",), ("b",))
        bus.broadcast("t", "split", sender="a")
        sched.run()
        assert inbox_a == ["split"] and inbox_b == []
        bus.heal()
        bus.broadcast("t", "joined", sender="a")
        sched.run()
        assert inbox_b == ["joined"]


class TestRuntimeEngine:
    def test_single_round_bit_identical_to_lockstep(self):
        (facade,) = _facade_rounds(rounds=1)
        report, _ = _runtime_rounds(rounds=1)
        (run,) = report.committed
        assert run.block.hash() == facade.block.hash()
        assert canonical_outcome(run.outcome) == canonical_outcome(
            facade.outcome
        )
        assert run.excluded_txids == facade.excluded_txids
        assert sorted(run.accepted_by) == sorted(facade.accepted_by)

    def test_three_rounds_pipelined_chain_matches_lockstep(self):
        facade = _facade_rounds(rounds=3)
        report, runtime = _runtime_rounds(rounds=3)
        assert len(report.committed) == 3
        for sequential, run in zip(facade, report.committed):
            assert run.block.hash() == sequential.block.hash()
        # the pipelined runtime's chains equal the sequential chains
        assert report.overlap_rounds == 2  # rounds 1 and 2 overlapped
        for miner in runtime.miners:
            assert miner.chain.tip_hash == facade[-1].block.hash()

    def test_schedule_seeds_do_not_change_outcomes(self):
        hashes = set()
        for seed in range(5):
            report, _ = _runtime_rounds(rounds=2, schedule_seed=seed)
            hashes.add(tuple(r.block.hash() for r in report.committed))
        assert len(hashes) == 1

    def test_pipelining_improves_virtual_throughput(self):
        # Sustained arrivals: each round's bids trickle in over ~1.2
        # virtual seconds, comparable to the mine+verify+commit span —
        # the regime pipelining exists for.
        pipelined, _ = _runtime_rounds(rounds=4, pipeline=True, spacing=0.3)
        lockstepped, _ = _runtime_rounds(rounds=4, pipeline=False, spacing=0.3)
        assert len(pipelined.committed) == len(lockstepped.committed) == 4
        assert pipelined.overlap_rounds == 3
        assert lockstepped.overlap_rounds == 0
        assert pipelined.virtual_time < lockstepped.virtual_time
        # identical blocks either way: pipelining is pure schedule
        for fast, slow in zip(pipelined.committed, lockstepped.committed):
            assert fast.block.hash() == slow.block.hash()

    def test_withheld_reveal_excluded_and_round_commits(self):
        from repro.faults.actors import WithholdingParticipant

        runtime = Runtime(_miners(), schedule_seed=3)
        withholder = WithholdingParticipant(
            participant_id="alice", deterministic=True, seal_seed=b"runtime"
        )
        others = {
            pid: _participant(pid) for pid, _ in _market_bids() if pid != "alice"
        }
        submissions = tuple(
            (withholder if pid == "alice" else others[pid], bid)
            for pid, bid in _market_bids()
        )
        report = runtime.run([RoundInput(submissions=submissions)])
        (result,) = report.committed
        assert len(result.excluded_txids) == 1
        matched = {
            m["request_id"] for m in result.block.body.allocation["matches"]
        }
        assert "ra" not in matched and "rb" in matched

    def test_re_request_reaches_a_participant_that_missed_the_preamble(self):
        """An honest bidder cut off while the preamble is announced
        (t=1.0) reveals when the leader re-requests (t=2.0); a withholder
        in the same round stays sealed."""
        plan = FaultPlan(
            partitions=(
                make_partition(
                    ("anna",), ("m0", "m1", "m2"), start=0.5, end=1.5
                ),
            )
        )
        runtime = Runtime(_miners(), plan=plan, schedule_seed=3)
        withholder = WithholdingParticipant(
            participant_id="alice", deterministic=True, seal_seed=b"runtime"
        )
        submissions = tuple(
            (withholder if pid == "alice" else _participant(pid), bid)
            for pid, bid in _market_bids()
        )
        report = runtime.run([RoundInput(submissions=submissions)])
        (result,) = report.committed
        sender_of = {
            tx.txid(): tx.sender_id
            for tx in result.block.preamble.transactions
        }
        assert runtime.transport.censored > 0  # anna missed the preamble
        assert runtime.transport.messages(messages.TOPIC_REVEAL_REQUEST)
        assert [sender_of[t] for t in result.excluded_txids] == ["alice"]
        matched = {
            m["request_id"] for m in result.block.body.allocation["matches"]
        }
        assert "rb" in matched  # anna's bid cleared via the re-request

    def test_equivocating_leader_falls_back(self):
        from repro.faults.actors import EquivocatingMiner

        miners = _miners()
        miners[0] = EquivocatingMiner(
            miner_id="m0", allocate=DecloudAllocator(), difficulty_bits=4
        )
        runtime = Runtime(miners, schedule_seed=0)
        participants = {pid: _participant(pid) for pid, _ in _market_bids()}
        report = runtime.run(
            [
                RoundInput(
                    submissions=tuple(
                        (participants[pid], bid)
                        for pid, bid in _market_bids()
                    )
                )
            ]
        )
        (result,) = report.committed
        assert result.failed_proposers == ("m0",)
        assert result.block.body.miner_id == "m1"

    def test_crashed_majority_aborts_with_quorum_reason(self):
        runtime = Runtime(_miners(), schedule_seed=0)
        runtime.transport.crash_node("m0")
        runtime.transport.crash_node("m1")
        report = runtime.run([RoundInput(submissions=())])
        assert report.committed == []
        assert report.rounds[0].error == "QuorumError"
