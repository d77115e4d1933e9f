"""Unit tests for the protocol layer: exposure, contracts, reputation."""

import pytest

from repro.common.errors import ContractError, ProtocolError
from repro.ledger.chain import Blockchain
from repro.protocol.allocator import DecloudAllocator, decode_round
from repro.protocol.contracts import AgreementState, AllocationContract
from repro.protocol.exposure import (
    ExposureProtocol,
    Participant,
    build_miner_network,
)
from repro.protocol.reputation import (
    ACCEPT_RECOVERY,
    BASE_PENALTY,
    INITIAL_SCORE,
    ReputationLedger,
)
from tests.conftest import make_offer, make_request


class TestReputation:
    def test_initial_score(self):
        assert ReputationLedger().score("anyone") == INITIAL_SCORE

    def test_rejection_penalty(self):
        ledger = ReputationLedger()
        score = ledger.record_rejection("c1")
        assert score == pytest.approx(INITIAL_SCORE - BASE_PENALTY)

    def test_escalating_penalties(self):
        ledger = ReputationLedger()
        first = INITIAL_SCORE - ledger.record_rejection("c1")
        before = ledger.score("c1")
        second = before - ledger.record_rejection("c1")
        assert second > first  # streak penalty escalates

    def test_acceptance_resets_streak(self):
        ledger = ReputationLedger()
        ledger.record_rejection("c1")
        ledger.record_acceptance("c1")
        assert ledger.records["c1"].consecutive_rejections == 0

    def test_acceptance_recovers_score(self):
        ledger = ReputationLedger()
        ledger.record_rejection("c1")
        before = ledger.score("c1")
        ledger.record_acceptance("c1")
        assert ledger.score("c1") == pytest.approx(before + ACCEPT_RECOVERY)

    def test_score_floor(self):
        ledger = ReputationLedger()
        for _ in range(50):
            ledger.record_rejection("c1")
        assert ledger.score("c1") == 0.0

    def test_score_ceiling(self):
        ledger = ReputationLedger()
        for _ in range(10):
            ledger.record_acceptance("c1")
        assert ledger.score("c1") == 1.0

    def test_threshold(self):
        ledger = ReputationLedger()
        assert ledger.meets_threshold("c1", 0.9)
        for _ in range(5):
            ledger.record_rejection("c1")
        assert not ledger.meets_threshold("c1", 0.9)


class TestDecodeRound:
    def test_splits_requests_and_offers(self):
        request = make_request(client_id="alice")
        offer = make_offer(provider_id="bob")
        plaintexts = {
            "alice": [request.to_json()],
            "bob": [offer.to_json()],
        }
        requests, offers = decode_round(plaintexts)
        assert [r.request_id for r in requests] == [request.request_id]
        assert [o.offer_id for o in offers] == [offer.offer_id]

    def test_spoofed_owner_dropped(self):
        request = make_request(client_id="alice")
        requests, offers = decode_round({"mallory": [request.to_json()]})
        assert requests == [] and offers == []

    def test_garbage_payload_skipped(self):
        requests, offers = decode_round({"x": [b"not json"]})
        assert requests == [] and offers == []

    def test_a_sender_sealing_a_list_is_skipped(self):
        late = make_request(request_id="late", client_id="a", submit_time=5.0)
        early = make_request(request_id="early", client_id="c", submit_time=1.0)
        offer = make_offer(provider_id="d")
        requests, offers = decode_round({
            "a": [late.to_json()],
            "b": [b"[]"],
            "c": [early.to_json()],
            "d": [offer.to_json()],
        })
        assert requests == [early, late]
        assert offers == [offer]

    def test_orders_by_submit_time(self):
        late = make_request(request_id="late", client_id="a", submit_time=5.0)
        early = make_request(request_id="early", client_id="a", submit_time=1.0)
        requests, _ = decode_round({"a": [late.to_json(), early.to_json()]})
        assert [r.request_id for r in requests] == ["early", "late"]


class TestAllocator:
    def test_payload_deterministic(self):
        request = make_request(client_id="alice", bid=2.0)
        offer = make_offer(provider_id="bob", bid=0.5)
        plaintexts = {"alice": [request.to_json()], "bob": [offer.to_json()]}
        a = DecloudAllocator()(plaintexts, b"ev")
        b = DecloudAllocator()(plaintexts, b"ev")
        assert a == b

    def test_last_outcome_cached(self):
        allocator = DecloudAllocator()
        request = make_request(client_id="alice", bid=2.0)
        offer = make_offer(provider_id="bob", bid=0.5)
        allocator({"alice": [request.to_json()], "bob": [offer.to_json()]}, b"e")
        assert allocator.last_outcome is not None


class TestParticipant:
    def test_seal_rejects_foreign_bid(self):
        participant = Participant(participant_id="alice")
        with pytest.raises(ProtocolError):
            participant.seal(make_request(client_id="bob"))

    def test_reveals_only_for_included(self):
        participant = Participant(participant_id="alice")
        tx = participant.seal(make_request(client_id="alice"))
        protocol = build_miner_network(1, difficulty_bits=4)
        protocol.miners[0].accept_transaction(tx)
        preamble = protocol.miners[0].build_preamble()
        reveals = participant.reveals_for(preamble)
        assert len(reveals) == 1
        # second call: nothing pending
        assert participant.reveals_for(preamble) == []


class TestExposureProtocol:
    def _run_round(self, num_miners=2):
        # Two clients: with a single buyer/seller pair, trade reduction
        # correctly cancels the only trade (McAfee needs > 1 pair).
        protocol = build_miner_network(num_miners, difficulty_bits=6)
        alice = Participant(participant_id="alice")
        anna = Participant(participant_id="anna")
        provider = Participant(participant_id="bob")
        protocol.submit(
            alice, make_request(request_id="req-a", client_id="alice", bid=2.0)
        )
        protocol.submit(
            anna, make_request(request_id="req-b", client_id="anna", bid=1.5)
        )
        protocol.submit(provider, make_offer(provider_id="bob", bid=0.5))
        return protocol, protocol.run_round([alice, anna, provider])

    def test_round_verified_by_all(self):
        protocol, result = self._run_round(num_miners=3)
        assert len(result.accepted_by) == 3
        assert all(len(m.chain) == 1 for m in protocol.miners)

    def test_outcome_has_trade(self):
        _, result = self._run_round()
        # The lower-valued client is the price-setter and is excluded;
        # the higher-valued one trades.
        assert result.outcome.num_trades == 1
        assert result.outcome.matches[0].request.client_id == "alice"

    def test_multiple_rounds_extend_chain(self):
        protocol = build_miner_network(2, difficulty_bits=6)
        client = Participant(participant_id="alice")
        provider = Participant(participant_id="bob")
        for round_index in range(3):
            protocol.submit(
                client,
                make_request(
                    request_id=f"req-{round_index}",
                    client_id="alice",
                    bid=2.0,
                ),
            )
            protocol.submit(
                provider,
                make_offer(
                    offer_id=f"off-{round_index}",
                    provider_id="bob",
                    bid=0.5,
                ),
            )
            protocol.run_round([client, provider])
        assert all(len(m.chain) == 3 for m in protocol.miners)
        assert all(m.chain.verify_linkage() for m in protocol.miners)

    def test_empty_round_produces_empty_block(self):
        protocol = build_miner_network(1, difficulty_bits=4)
        result = protocol.run_round([])
        assert result.block.preamble.transactions == ()

    def test_requires_a_miner(self):
        with pytest.raises(ProtocolError):
            ExposureProtocol(miners=[])


class TestContracts:
    def _contract_with_block(self):
        protocol = build_miner_network(1, difficulty_bits=4)
        alice = Participant(participant_id="alice")
        anna = Participant(participant_id="anna")
        provider = Participant(participant_id="bob")
        protocol.submit(
            alice, make_request(request_id="req-0", client_id="alice", bid=2.0)
        )
        protocol.submit(
            anna, make_request(request_id="req-1", client_id="anna", bid=1.5)
        )
        protocol.submit(provider, make_offer(provider_id="bob", bid=0.5))
        result = protocol.run_round([alice, anna, provider])
        assert result.outcome.match_for("req-0") is not None
        chain = protocol.miners[0].chain
        contract = AllocationContract(chain=chain)
        block_hash = result.block.hash()
        contract.register_block(block_hash, {"req-0": "alice"})
        return contract, block_hash

    def test_accept_flow(self):
        contract, block_hash = self._contract_with_block()
        agreement = contract.accept("alice", block_hash, "req-0")
        assert agreement.state is AgreementState.AGREED
        assert contract.state_of(block_hash, "req-0") is AgreementState.AGREED

    def test_deny_flow_penalizes_and_queues(self):
        contract, block_hash = self._contract_with_block()
        contract.deny("alice", block_hash, "req-0")
        assert contract.reputation.score("alice") < 1.0
        assert contract.resubmission_queue  # provider must resubmit

    def test_double_accept_rejected(self):
        contract, block_hash = self._contract_with_block()
        contract.accept("alice", block_hash, "req-0")
        with pytest.raises(ContractError):
            contract.accept("alice", block_hash, "req-0")

    def test_foreign_caller_rejected(self):
        contract, block_hash = self._contract_with_block()
        with pytest.raises(ContractError):
            contract.accept("mallory", block_hash, "req-0")

    def test_unknown_block_rejected(self):
        contract, _ = self._contract_with_block()
        with pytest.raises(ContractError):
            contract.register_block("00" * 32, {})

    def test_unknown_request_rejected(self):
        contract, block_hash = self._contract_with_block()
        with pytest.raises(ContractError):
            contract.accept("alice", block_hash, "req-unknown")

    def test_provider_threshold_blocks_low_reputation(self):
        contract, block_hash = self._contract_with_block()
        for _ in range(8):
            contract.reputation.record_rejection("alice")
        contract.set_provider_threshold("", 0.9)  # provider_id is "" in payload
        with pytest.raises(ContractError):
            contract.accept("alice", block_hash, "req-0")

    def test_invalid_threshold_rejected(self):
        contract, _ = self._contract_with_block()
        with pytest.raises(ContractError):
            contract.set_provider_threshold("p", 2.0)

    def test_agreements_filter(self):
        contract, block_hash = self._contract_with_block()
        contract.accept("alice", block_hash, "req-0")
        assert len(contract.agreements(AgreementState.AGREED)) == 1
        assert contract.agreements(AgreementState.DENIED) == []
