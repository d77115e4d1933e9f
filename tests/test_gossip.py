"""Unit tests for gossip over the runtime's deterministic transport.

Bids, reveals and blocks travel as topic broadcasts on a
:class:`DeterministicTransport`; its loss and delay are drawn from a
:class:`FaultPlan` and delivered in virtual-time order by the
:class:`DeterministicScheduler`.
"""

import pytest

from repro.common.errors import ValidationError
from repro.faults.plan import FaultPlan
from repro.runtime import DeterministicScheduler, DeterministicTransport


def _network(plan=None, schedule_seed=0):
    sched = DeterministicScheduler(seed=schedule_seed)
    return sched, DeterministicTransport(sched, plan=plan)


def _collector(network, node_id, topic):
    inbox = []
    network.subscribe_node(node_id, topic, lambda s, p: inbox.append((s, p)))
    return inbox


class TestDelivery:
    def test_lossless_delivers_all(self):
        sched, network = _network(FaultPlan(drop_rate=0.0, seed=1))
        inbox_a = _collector(network, "a", "t")
        inbox_b = _collector(network, "b", "t")
        for i in range(10):
            network.broadcast("t", i)
        sched.run()
        assert sorted(p for _, p in inbox_a) == list(range(10))
        assert sorted(p for _, p in inbox_b) == list(range(10))

    def test_delivery_in_time_order(self):
        sched, network = _network(FaultPlan(seed=2, min_delay=0.0, max_delay=1.0))
        times = []
        network.subscribe_node("a", "t", lambda s, p: times.append(sched.now))
        for i in range(20):
            network.broadcast("t", i, key=f"k{i}")
        sched.run()
        assert len(times) == 20
        assert times == sorted(times)
        assert len(set(times)) > 1  # delays actually vary

    def test_deterministic_given_seed(self):
        def run(seed):
            sched, network = _network(FaultPlan(drop_rate=0.3, seed=seed))
            inbox = _collector(network, "a", "t")
            for i in range(50):
                network.broadcast("t", i, key=f"k{i}")
            sched.run()
            return sorted(p for _, p in inbox)

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestLoss:
    def test_zero_drop_loses_nothing(self):
        sched, network = _network(FaultPlan(drop_rate=0.0, seed=6))
        inbox = _collector(network, "a", "t")
        for i in range(100):
            network.broadcast("t", i, key=f"k{i}")
        sched.run()
        assert network.dropped == 0
        assert len(inbox) == 100

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            FaultPlan(drop_rate=1.0)
        with pytest.raises(ValidationError):
            FaultPlan(min_delay=-1.0)
        with pytest.raises(ValidationError):
            FaultPlan(min_delay=2.0, max_delay=1.0)


class TestProtocolOverLossyGossip:
    def test_lost_reveal_drops_only_that_bid(self):
        """A participant whose reveal is lost silently leaves the round."""
        from repro.ledger.miner import Miner
        from repro.protocol.allocator import DecloudAllocator
        from repro.protocol.exposure import Participant
        from tests.conftest import make_offer, make_request

        miner = Miner(
            miner_id="m", allocate=DecloudAllocator(), difficulty_bits=4
        )
        sched, network = _network(FaultPlan(drop_rate=0.0, seed=9))
        network.subscribe_node(
            "m", "bids", lambda s, tx: miner.accept_transaction(tx)
        )

        alice = Participant(participant_id="alice")
        anna = Participant(participant_id="anna")
        bob = Participant(participant_id="bob")
        bids = [
            (alice, make_request(request_id="ra", client_id="alice", bid=2.0)),
            (anna, make_request(request_id="rb", client_id="anna", bid=1.9)),
            (bob, make_offer(provider_id="bob", bid=0.4)),
        ]
        for participant, bid in bids:
            network.broadcast("bids", participant.seal(bid))
        sched.run()

        preamble = miner.build_preamble()
        assert len(preamble.transactions) == 3

        # Reveal phase over a lossy channel: drop anna's key.
        reveals = []
        for participant, _ in bids:
            for reveal in participant.reveals_for(preamble):
                if participant is not anna:
                    reveals.append(reveal)
        body = miner.build_body(preamble, tuple(reveals))
        matched = {m["request_id"] for m in body.allocation["matches"]}
        assert "rb" not in matched  # anna's bid stayed sealed
