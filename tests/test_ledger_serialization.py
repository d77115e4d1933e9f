"""Unit tests for chain JSON import/export."""

import json

import pytest

from repro.common.errors import LedgerError
from repro.ledger.serialization import chain_from_json, chain_to_json
from repro.protocol.exposure import Participant, build_miner_network
from tests.conftest import make_offer, make_request


def _chain_with_blocks(rounds=2):
    protocol = build_miner_network(1, difficulty_bits=4)
    alice = Participant(participant_id="alice")
    anna = Participant(participant_id="anna")
    bob = Participant(participant_id="bob")
    for i in range(rounds):
        protocol.submit(
            alice,
            make_request(request_id=f"ra{i}", client_id="alice", bid=2.0),
        )
        protocol.submit(
            anna,
            make_request(request_id=f"rb{i}", client_id="anna", bid=1.5),
        )
        protocol.submit(
            bob, make_offer(offer_id=f"o{i}", provider_id="bob", bid=0.5)
        )
        protocol.run_round([alice, anna, bob])
    return protocol.miners[0].chain


class TestRoundTrip:
    def test_hashes_preserved(self):
        chain = _chain_with_blocks()
        restored = chain_from_json(chain_to_json(chain))
        assert len(restored) == len(chain)
        for original, copy in zip(chain, restored):
            assert original.hash() == copy.hash()

    def test_restored_chain_valid(self):
        chain = _chain_with_blocks()
        restored = chain_from_json(chain_to_json(chain))
        assert restored.verify_linkage()
        assert restored.tip_hash == chain.tip_hash

    def test_allocations_preserved(self):
        chain = _chain_with_blocks()
        restored = chain_from_json(chain_to_json(chain))
        for original, copy in zip(chain, restored):
            assert (
                original.require_complete().allocation
                == copy.require_complete().allocation
            )

    def test_unverified_import(self):
        chain = _chain_with_blocks()
        restored = chain_from_json(chain_to_json(chain), verify=False)
        assert len(restored) == len(chain)


    def test_decoded_blocks_share_signer_ids_keys_and_txids(self):
        # equal is the contract; shared is what keeps a decoded chain
        # from holding every repeat signer's id and key once per bid
        restored = chain_from_json(chain_to_json(_chain_with_blocks()))
        first, second = (
            {tx.sender_id: tx for tx in block.preamble.transactions}
            for block in restored
        )
        assert sorted(first) == sorted(second) == ["alice", "anna", "bob"]
        for sender, tx in first.items():
            assert tx.sender_public is second[sender].sender_public
        for block in restored:
            by_txid = {tx.txid(): tx for tx in block.preamble.transactions}
            assert len(block.body.reveals) == 3
            for reveal in block.body.reveals:
                tx = by_txid[reveal.txid]
                assert reveal.txid is tx.txid()
                assert reveal.sender_id is tx.sender_id


class TestTampering:
    def test_recorded_hash_mismatch_rejected(self):
        chain = _chain_with_blocks(rounds=1)
        data = json.loads(chain_to_json(chain))
        data["blocks"][0]["hash"] = "0" * 64
        with pytest.raises(LedgerError):
            chain_from_json(json.dumps(data))

    def test_tampered_allocation_rejected(self):
        chain = _chain_with_blocks(rounds=1)
        data = json.loads(chain_to_json(chain))
        data["blocks"][0]["body"]["allocation"]["matches"] = []
        with pytest.raises(LedgerError):
            chain_from_json(json.dumps(data))

    def test_garbage_rejected(self):
        with pytest.raises(LedgerError):
            chain_from_json("{not json")

    def test_wrong_version_rejected(self):
        chain = _chain_with_blocks(rounds=1)
        data = json.loads(chain_to_json(chain))
        data["format_version"] = 99
        with pytest.raises(LedgerError):
            chain_from_json(json.dumps(data))
