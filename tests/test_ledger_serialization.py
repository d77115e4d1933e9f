"""Unit tests for chain JSON import/export."""

import copy
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import LedgerError
from repro.ledger.chain import Blockchain
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


# ----------------------------------------------------------------------
# A decode boundary: any malformed shape is a LedgerError, nothing else
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _document():
    chain = _chain_with_blocks(rounds=1)
    return json.loads(chain_to_json(chain))


def _paths(node, prefix=()):
    """Every (container path, key) pair in a JSON document."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


def _mutate(document, path, key, kind, value):
    target = document
    for step in path:
        target = target[step]
    old = target[key]
    if kind == "drop":
        del target[key]
    elif kind == "swap":
        # A fresh copy: the sampled lists and dicts are shared between
        # examples, and swapping one into itself would make a cycle.
        target[key] = copy.deepcopy(value)
    elif kind == "corrupt" and isinstance(old, str) and old:
        target[key] = "z" + old[1:]
    elif kind == "truncate" and isinstance(old, (str, list)):
        target[key] = old[: len(old) // 2]


_SWAPS = st.sampled_from(
    [None, 0, -1, 1.5, True, "", "zz", "00", [], {}, 2**300, [0, 0]]
)
_MUTATION = st.tuples(
    st.integers(min_value=0),
    st.sampled_from(["drop", "swap", "corrupt", "truncate"]),
    _SWAPS,
)


class TestMalformedDocuments:
    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("difficulty_bits"),
        lambda d: d["blocks"][0].pop("preamble"),
        lambda d: d.__setitem__("anchor", None),
        lambda d: d["blocks"][0]["preamble"]["transactions"][0]
        .__setitem__("sender_public", "zz"),
        lambda d: d["blocks"][0]["preamble"]["transactions"][0]
        .__setitem__("box", "00"),
    ], ids=["no-difficulty", "no-preamble", "null-anchor", "bad-hex-key",
            "short-box"])
    def test_each_known_shape_is_a_ledger_error(self, mutate):
        document = copy.deepcopy(_document())
        mutate(document)
        with pytest.raises(LedgerError):
            chain_from_json(json.dumps(document))

    @pytest.mark.parametrize("text", ["[]", "null", "7", '"chain"'])
    def test_a_non_object_document_is_a_ledger_error(self, text):
        with pytest.raises(LedgerError):
            chain_from_json(text)

    @settings(max_examples=200, deadline=None)
    @given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
    def test_mutated_documents_decode_or_raise_ledger_error(self, mutations):
        document = copy.deepcopy(_document())
        for pick, kind, value in mutations:
            paths = list(_paths(document))
            if not paths:
                break
            path, key = paths[pick % len(paths)]
            _mutate(document, path, key, kind, value)
        try:
            restored = chain_from_json(json.dumps(document))
        except LedgerError:
            return
        assert isinstance(restored, Blockchain)
