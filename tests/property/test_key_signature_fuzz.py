"""Typed rejection of hostile public keys and signatures.

Keys and signatures reach a node in transactions, blocks, chain
documents, snapshots and WAL records.  At every JSON decoder a key or
signature field that is not the hex of 32 or 64 bytes is a typed
:class:`ReproError`, never a crash (the WAL's binary codec holds them
at those fixed widths; ``tests/property/test_store_properties.py``
fuzzes it); :func:`schnorr.verify` answers every malformed,
non-canonical or small-order input with ``False``; and a document or
log written in the integer format that preceded Ed25519 is refused as
a whole.
"""

import copy
import hashlib
import json
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    LedgerError,
    RecoveryError,
    ReproError,
)
from repro.cryptosim import schnorr
from repro.ledger import serialization
from repro.ledger.block import Block
from repro.ledger.serialization import (
    block_from_dict,
    block_to_dict,
    chain_from_json,
    chain_to_json,
    tx_from_dict,
    tx_to_dict,
)
from repro.ledger.transaction import SealedBidTransaction
from repro.store import NodeStore
from repro.store.wal import MAGIC
from tests import rfc8032
from tests.test_ledger_serialization import _chain_with_blocks
from tests.test_store_recovery import leader_block, sealed_bid


def _old_key() -> str:
    """A key as the 1024-bit Schnorr group wrote it: ``hex(int)``."""
    return hex(int.from_bytes(hashlib.sha512(b"old key").digest() * 2, "big"))


def _old_signature() -> list:
    """A signature as the Schnorr group wrote it: two ``hex(int)``."""
    return [hex(2**255 + 12345), hex(2**1000 + 678)]


def _hex_of(size):
    return st.binary(min_size=size, max_size=size).map(bytes.hex)


def _hostile(size):
    """Anything a key or signature field of ``size`` bytes could carry."""
    return st.one_of(
        _hex_of(size),  # well formed: decodes (verification decides)
        _hex_of(size).map(str.upper),
        st.binary(min_size=0, max_size=2 * size).map(bytes.hex),
        _hex_of(size).map(lambda text: text[:-1]),  # odd length
        _hex_of(size).map(lambda text: "zz" + text[2:]),  # not hex
        _hex_of(size).map(lambda text: text[:-2] + " 0"),
        st.text(max_size=2 * size + 2),
        st.integers(),
        st.floats(allow_nan=True),
        st.none(),
        st.booleans(),
        st.binary(min_size=size, max_size=size),
        st.lists(_hex_of(size // 2), max_size=3),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
        st.just(_old_key()),
        st.just(_old_signature()),
    )


def _decoded_or_typed(decode, data):
    try:
        return decode(data)
    except ReproError:
        return None


@pytest.fixture(scope="module")
def chain_document():
    return json.loads(chain_to_json(_chain_with_blocks(rounds=1)))


class TestDecodersRejectHostileFields:
    @settings(max_examples=150, deadline=None)
    @given(public=_hostile(32), signature=_hostile(64))
    def test_tx_from_dict(self, public, signature):
        data = tx_to_dict(sealed_bid(0))
        data.update(sender_public=public, signature=signature)
        tx = _decoded_or_typed(tx_from_dict, data)
        if tx is not None:
            assert isinstance(tx, SealedBidTransaction)
            assert (len(tx.sender_public), len(tx.signature)) == (32, 64)
            assert (tx.sender_public, tx.signature) == (
                bytes.fromhex(public), bytes.fromhex(signature)
            )

    @settings(max_examples=100, deadline=None)
    @given(public=_hostile(32), signature=_hostile(64), tx_field=_hostile(64))
    def test_block_from_dict(self, public, signature, tx_field):
        data = block_to_dict(leader_block([sealed_bid(0)]))
        data["body"].update(miner_public=public, signature=signature)
        data["preamble"]["transactions"][0]["signature"] = tx_field
        block = _decoded_or_typed(block_from_dict, data)
        if block is not None:
            assert isinstance(block, Block)
            assert len(block.body.miner_public) == 32
            assert block.body.signature == bytes.fromhex(signature)
            assert len(block.body.signature) == 64

    @settings(max_examples=100, deadline=None)
    @given(
        field=st.sampled_from(
            ["sender_public", "signature", "miner_public", "body_signature"]
        ),
        value=st.one_of(_hostile(32), _hostile(64)),
    )
    def test_chain_from_json(self, chain_document, field, value):
        if isinstance(value, bytes):  # JSON has no bytes: the raw text
            value = value.decode("latin-1")
        document = copy.deepcopy(chain_document)
        block = document["blocks"][0]
        if field in ("sender_public", "signature"):
            block["preamble"]["transactions"][0][field] = value
        else:
            block["body"]["signature" if field == "body_signature" else field] = value
        try:
            chain = chain_from_json(json.dumps(document))
        except LedgerError:
            return
        # the field was rewritten to the same bytes (e.g. in upper case)
        assert chain.tip_hash == document["blocks"][-1]["hash"]


class TestVerifyRefusesWithoutRaising:
    def _assert_refused(self, public, signature, message=b"m"):
        assert schnorr.verify(public, message, signature) is False
        assert schnorr.SignatureCache().verify(public, message, signature) is False

    @settings(max_examples=100, deadline=None)
    @given(public=st.binary(min_size=32, max_size=32),
           signature=st.binary(min_size=64, max_size=64))
    def test_random_keys_and_signatures(self, public, signature):
        self._assert_refused(public, signature)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.binary(min_size=1, max_size=8),
           multiple=st.integers(min_value=1, max_value=15))
    def test_response_at_or_above_the_group_order(self, seed, multiple):
        keypair = schnorr.KeyPair.generate(seed=seed)
        signature = schnorr.sign(keypair.secret, b"m")
        response = int.from_bytes(signature[32:], "little") + multiple * rfc8032.L
        if response < 1 << 256:
            self._assert_refused(
                keypair.public, signature[:32] + response.to_bytes(32, "little")
            )
        self._assert_refused(keypair.public, signature[:32] + rfc8032.L.to_bytes(32, "little"))

    @pytest.mark.parametrize("negative", [False, True], ids=["x+", "x-"])
    def test_non_canonical_y(self, negative):
        keypair = schnorr.KeyPair.generate(seed=b"k")
        signature = schnorr.sign(keypair.secret, b"m")
        for y in range(rfc8032.p, 1 << 255):
            public = (y | negative << 255).to_bytes(32, "little")
            self._assert_refused(public, signature)

    def test_small_order_points_canonical_and_not(self):
        encodings = {rfc8032.compress(point) for point in rfc8032.small_order_points()}
        assert len(encodings) == 8
        for encoding in list(encodings):
            y = int.from_bytes(encoding, "little")
            encodings.add((y ^ 1 << 255).to_bytes(32, "little"))  # other sign
            if (y & ((1 << 255) - 1)) + rfc8032.p < 1 << 255:
                encodings.add((y + rfc8032.p).to_bytes(32, "little"))
        forgeries = [
            rfc8032.compress(point) + bytes(32)
            for point in rfc8032.small_order_points()
        ]
        for public in encodings:
            assert not schnorr.valid_public_key(public)
            for forgery in forgeries:
                for message in (b"", b"m", b"any message"):
                    self._assert_refused(public, forgery, message)

    def test_a_refused_signature_leaves_hashlib_working(self):
        assert not schnorr.verify(bytes(range(32)), b"m", bytes(64))
        assert hashlib.sha256(b"abc").hexdigest().startswith("ba7816bf")


class TestOldFormatDocuments:
    """``serialization.FORMAT_VERSION`` 2 holds Ed25519 bytes; a document
    or log written with the Schnorr group's integers is refused."""

    def test_format_version_was_bumped(self):
        assert serialization.FORMAT_VERSION == 2

    def test_old_chain_document_is_a_ledger_error(self, chain_document):
        old = copy.deepcopy(chain_document)
        old["format_version"] = 1
        with pytest.raises(LedgerError, match="format version"):
            chain_from_json(json.dumps(old))
        # the old integer fields under the new version number
        old["format_version"] = serialization.FORMAT_VERSION
        tx = old["blocks"][0]["preamble"]["transactions"][0]
        tx.update(sender_public=_old_key(), signature=_old_signature())
        with pytest.raises(LedgerError, match="bytes of hex"):
            chain_from_json(json.dumps(old))

    @pytest.mark.parametrize("record_type", ["mempool.admit", "chain.append"])
    def test_old_wal_is_a_recovery_error(self, record_type):
        # a record of the integer era, in that log's canonical-JSON
        # envelope: refused as a whole, by the frame's format byte
        tx = tx_to_dict(sealed_bid(1))
        tx.update(sender_public=_old_key(), signature=_old_signature())
        data = {"tx": tx}
        if record_type == "chain.append":
            block = block_to_dict(leader_block([sealed_bid(1)]))
            block["preamble"]["transactions"] = [tx]
            block["body"].update(
                miner_public=_old_key(), signature=_old_signature()
            )
            data = {"block": block, "hash": "0" * 64}
        payload = json.dumps(
            {"seq": 0, "type": record_type, "data": data},
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        header = struct.pack(">2sII", MAGIC, len(payload), zlib.crc32(payload))
        store = NodeStore.in_memory()
        store.wal.backend.replace(header + payload)
        with pytest.raises(RecoveryError, match="WAL_FORMAT"):
            store.recover(difficulty_bits=4)
        assert store.wal.backend.read() == header + payload
