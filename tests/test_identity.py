"""Unit tests for the identity registry and its protocol integration."""

import pytest

from repro.common.errors import ProtocolError
from repro.cryptosim import schnorr
from repro.protocol.exposure import ExposureProtocol, Participant
from repro.protocol.identity import IdentityRegistry
from repro.ledger.miner import Miner
from repro.protocol.allocator import DecloudAllocator
from tests import rfc8032
from tests.conftest import make_offer, make_request


ALICE, MALLORY, UNKNOWN = (
    schnorr.KeyPair.generate(seed=name).public
    for name in (b"alice", b"mallory", b"unknown")
)


class TestRegistry:
    def test_first_come_binding(self):
        registry = IdentityRegistry()
        registry.register("alice", ALICE)
        assert registry.is_bound("alice")
        assert registry.key_of("alice") == ALICE

    def test_idempotent_reregistration(self):
        registry = IdentityRegistry()
        registry.register("alice", ALICE)
        registry.register("alice", ALICE)  # no error

    def test_conflicting_claim_rejected(self):
        registry = IdentityRegistry()
        registry.register("alice", ALICE)
        with pytest.raises(ProtocolError):
            registry.register("alice", MALLORY)

    def test_verify(self):
        registry = IdentityRegistry()
        registry.register("alice", ALICE)
        assert registry.verify("alice", ALICE)
        assert not registry.verify("alice", MALLORY)
        assert not registry.verify("unknown", ALICE)

    def test_key_of_unregistered_raises(self):
        with pytest.raises(ProtocolError):
            IdentityRegistry().key_of("ghost")

    def test_check_or_register(self):
        registry = IdentityRegistry()
        registry.check_or_register("alice", ALICE)
        registry.check_or_register("alice", ALICE)
        with pytest.raises(ProtocolError):
            registry.check_or_register("alice", UNKNOWN)

    @pytest.mark.parametrize(
        "public",
        [
            bytes(32),  # order 4
            (1).to_bytes(32, "little"),  # the identity
            (rfc8032.p - 1).to_bytes(32, "little"),  # order 2
            (rfc8032.p + 1).to_bytes(32, "little"),  # the identity, non-canonical
            ALICE[:31],
            ALICE.hex(),
            123,
        ],
        ids=["order-4", "identity", "order-2", "noncanonical", "short", "hex", "int"],
    )
    def test_key_no_secret_stands_behind_is_refused(self, public):
        registry = IdentityRegistry()
        for claim in (registry.register, registry.check_or_register):
            with pytest.raises(ProtocolError, match="not a usable"):
                claim("mallory", public)
        assert not registry.is_bound("mallory")


class TestFreshKeys:
    def test_default_key_is_derivable(self):
        a = Participant(participant_id="alice")
        b = Participant(participant_id="alice")
        assert a.keypair == b.keypair  # simulation convenience

    def test_fresh_key_is_not_derivable(self):
        a = Participant(participant_id="alice", fresh_key=True)
        b = Participant(participant_id="alice", fresh_key=True)
        assert a.keypair != b.keypair


class TestProtocolIntegration:
    def _protocol(self):
        miners = [
            Miner(
                miner_id="m0",
                allocate=DecloudAllocator(),
                difficulty_bits=4,
            )
        ]
        return ExposureProtocol(miners=miners, registry=IdentityRegistry())

    def test_honest_resubmission_allowed(self):
        protocol = self._protocol()
        alice = Participant(participant_id="alice", fresh_key=True)
        protocol.submit(alice, make_request(request_id="r1", client_id="alice"))
        protocol.submit(alice, make_request(request_id="r2", client_id="alice"))

    def test_impersonation_rejected_at_submission(self):
        protocol = self._protocol()
        alice = Participant(participant_id="alice", fresh_key=True)
        protocol.submit(alice, make_request(client_id="alice"))
        mallory = Participant(participant_id="alice", fresh_key=True)
        with pytest.raises(ProtocolError):
            protocol.submit(
                mallory, make_request(request_id="r-evil", client_id="alice")
            )

    def test_round_with_registry(self):
        protocol = self._protocol()
        alice = Participant(participant_id="alice", fresh_key=True)
        anna = Participant(participant_id="anna", fresh_key=True)
        bob = Participant(participant_id="bob", fresh_key=True)
        protocol.submit(
            alice, make_request(request_id="ra", client_id="alice", bid=2.0)
        )
        protocol.submit(
            anna, make_request(request_id="rb", client_id="anna", bid=1.5)
        )
        protocol.submit(bob, make_offer(provider_id="bob", bid=0.4))
        result = protocol.run_round([alice, anna, bob])
        assert result.outcome.num_trades == 1
