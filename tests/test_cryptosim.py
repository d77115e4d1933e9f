"""Unit tests for the cryptographic primitives."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.common.errors import DecryptionError, SignatureError
from repro.cryptosim import commitments, hashing, schnorr, symmetric
from tests import rfc8032


class TestHashing:
    def test_sha256_known_vector(self):
        assert (
            hashing.sha256_hex(b"abc")
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_canonical_json_key_order_independent(self):
        assert hashing.canonical_json({"b": 1, "a": 2}) == hashing.canonical_json(
            {"a": 2, "b": 1}
        )

    def test_hash_obj_stable(self):
        assert hashing.hash_obj([1, "x"]) == hashing.hash_obj([1, "x"])

    def test_hash_concat_framing(self):
        # Length-prefixing means ("ab","c") != ("a","bc").
        assert hashing.hash_concat(b"ab", b"c") != hashing.hash_concat(b"a", b"bc")


def _encoding(y: int, negative: bool = False) -> bytes:
    """A 32-byte key spelling ``y`` (and the sign bit naming ``x``)."""
    return (y | negative << 255).to_bytes(32, "little")


#: every key no secret stands behind, named by its y-coordinate (``-``
#: sets the sign bit that names x): the eight small-order points — y of
#: 1 the identity, P-1 order 2, 0 order 4, ±Y8 order 8 — the sign bit
#: set on x = 0, and the non-canonical spellings y + P < 2^255
_Y8 = 2707385501144840649318225287225658788936804267575313519463743609750303402022
DEGENERATE_KEYS = {
    name: _encoding(y, name.endswith("-"))
    for name, y in [
        ("0", 0), ("0-", 0), ("1", 1), ("1-", 1), ("P-1", rfc8032.p - 1),
        ("Y8", _Y8), ("Y8-", _Y8), ("P-Y8", rfc8032.p - _Y8),
        ("P-Y8-", rfc8032.p - _Y8), ("P", rfc8032.p), ("P-", rfc8032.p),
        ("P+1", rfc8032.p + 1),
    ]
}


class TestSchnorrSignatures:
    def test_sign_verify_roundtrip(self):
        keypair = schnorr.KeyPair.generate(seed=b"k1")
        signature = schnorr.sign(keypair.secret, b"message")
        assert schnorr.verify(keypair.public, b"message", signature)

    def test_wrong_message_fails(self):
        keypair = schnorr.KeyPair.generate(seed=b"k1")
        signature = schnorr.sign(keypair.secret, b"message")
        assert not schnorr.verify(keypair.public, b"other", signature)

    def test_wrong_key_fails(self):
        keypair = schnorr.KeyPair.generate(seed=b"k1")
        other = schnorr.KeyPair.generate(seed=b"k2")
        signature = schnorr.sign(keypair.secret, b"message")
        assert not schnorr.verify(other.public, b"message", signature)

    def test_tampered_signature_fails(self):
        keypair = schnorr.KeyPair.generate(seed=b"k1")
        signature = schnorr.sign(keypair.secret, b"message")
        for index in (0, 31, 32, 63):  # both ends of R and of S
            tampered = bytearray(signature)
            tampered[index] ^= 1
            assert not schnorr.verify(keypair.public, b"message", bytes(tampered))

    def test_deterministic_signing(self):
        keypair = schnorr.KeyPair.generate(seed=b"k1")
        assert schnorr.sign(keypair.secret, b"m") == schnorr.sign(
            keypair.secret, b"m"
        )

    def test_seeded_keygen_deterministic(self):
        assert schnorr.KeyPair.generate(seed=b"s") == schnorr.KeyPair.generate(
            seed=b"s"
        )

    def test_unseeded_keygen_random(self):
        assert schnorr.KeyPair.generate() != schnorr.KeyPair.generate()

    def test_malformed_signature_rejected(self):
        keypair = schnorr.KeyPair.generate(seed=b"k1")
        assert not schnorr.verify(keypair.public, b"m", bytes(64))
        assert not schnorr.verify(keypair.public, b"m", "garbage")  # type: ignore[arg-type]
        assert not schnorr.verify(keypair.public, b"m", schnorr.sign(keypair.secret, b"m")[:63])

    @pytest.mark.parametrize(
        "public", list(DEGENERATE_KEYS.values()), ids=list(DEGENERATE_KEYS)
    )
    def test_degenerate_public_key_cannot_forge(self, public):
        # Under a small-order key A the check [S]B = R + [k]A holds for
        # S = 0 whenever R = -[k]A, a small-order point too: trying the
        # eight R on a few messages yields a signature that needs no
        # secret, and RFC 8032 verification accepts it wherever it can
        # decode the key.
        forgeries = [
            (b"any message %d" % attempt, rfc8032.compress(point) + bytes(32))
            for attempt in range(8)
            for point in rfc8032.small_order_points()
        ]
        if rfc8032.decompress(public) is not None:
            assert any(rfc8032.verify(public, m, f) for m, f in forgeries)
        assert not any(schnorr.verify(public, m, f) for m, f in forgeries)
        assert not schnorr.valid_public_key(public)

    def test_out_of_range_public_key_rejected_not_raised(self):
        keypair = schnorr.KeyPair.generate(seed=b"k1")
        signature = schnorr.sign(keypair.secret, b"m")
        for y in (rfc8032.p + 2, rfc8032.p + 18, (1 << 255) - 1):
            assert not schnorr.verify(_encoding(y), b"m", signature)
        for public in (
            None, keypair.public.hex(), 4, 4.0, bytearray(keypair.public),
            keypair.public[:31], keypair.public + b"\0", b"",
        ):
            assert not schnorr.verify(public, b"m", signature)  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "signature",
        [1.0, "ab" * 64, None, True, "mixed", "ab"],
        ids=["floats", "strings", "nones", "bools", "mixed", "2-char str"],
    )
    def test_non_integer_components_rejected_not_raised(self, signature):
        # A frame off the wire can carry anything; "mixed" is the right
        # signature as a (R, S) pair and as a bytearray.
        keypair = schnorr.KeyPair.generate(seed=b"k1")
        if signature == "mixed":
            good = schnorr.sign(keypair.secret, b"m")
            cases = [(good[:32], good[32:]), bytearray(good), memoryview(good)]
        else:
            cases = [signature]
        for case in cases:
            assert not schnorr.verify(keypair.public, b"m", case)
            assert not schnorr.SignatureCache().verify(keypair.public, b"m", case)

    def test_a_secret_of_another_size_is_refused(self):
        for secret in (b"", bytes(31), bytes(33)):
            with pytest.raises(SignatureError):
                schnorr.sign(secret, b"m")

    def test_require_valid_raises(self):
        keypair = schnorr.KeyPair.generate(seed=b"k1")
        with pytest.raises(SignatureError):
            schnorr.require_valid(keypair.public, b"m", bytes(64))


#: a process in which no library named like libsodium loads
_WITHOUT_LIBSODIUM = """
import ctypes, ctypes.util
real = ctypes.CDLL
def refuse(name, *args, **kwargs):
    if name and "sodium" in str(name):
        raise OSError(name + ": cannot open shared object file")
    return real(name, *args, **kwargs)
ctypes.CDLL = refuse
ctypes.util.find_library = lambda name: None
try:
    import repro.cryptosim
except ImportError as error:
    print(error)
else:
    print("imported")
"""


def test_import_without_libsodium_is_an_import_error_naming_it():
    src = pathlib.Path(schnorr.__file__).parents[2]  # the dir holding repro/
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_LIBSODIUM],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert "libsodium >= 1.0.18" in result.stdout, result.stdout


class TestSignatureCache:
    def _signed(self, seed=b"k1", message=b"message"):
        keypair = schnorr.KeyPair.generate(seed=seed)
        return keypair.public, message, schnorr.sign(keypair.secret, message)

    def test_hit_never_enters_verify(self, schnorr_verify_calls):
        calls = schnorr_verify_calls
        cache = schnorr.SignatureCache()
        triple = self._signed()
        assert cache.verify(*triple) and cache.verify(*triple)
        assert len(calls) == 1 and len(cache) == 1

    def test_every_part_of_the_triple_is_in_the_key(self, schnorr_verify_calls):
        cache = schnorr.SignatureCache()
        public, message, signature = self._signed()
        assert cache.verify(public, message, signature)
        calls = schnorr_verify_calls
        calls.clear()
        other_public = schnorr.KeyPair.generate(seed=b"k2").public
        tampered = [
            (other_public, message, signature),
            (public, b"other", signature),
            (public, message, _flip(signature, 0)),  # R
            (public, message, _flip(signature, 32)),  # S
        ]
        for triple in tampered:
            assert not cache.verify(*triple)
        assert len(calls) == len(tampered)  # none was answered from the cache

    def test_key_is_the_screened_triple_itself(self, schnorr_verify_calls):
        """An equal triple made of other objects hits; a forged signature,
        a swapped key or another message under the same honest payload
        misses and goes through verify."""
        cache = schnorr.SignatureCache()
        public, message, signature = self._signed()
        assert cache.verify(public, message, signature)
        calls = schnorr_verify_calls
        calls.clear()
        copy = tuple(bytes(bytearray(part)) for part in (public, message, signature))
        assert not any(a is b for a, b in zip(copy, (public, message, signature)))
        assert cache.verify(*copy)
        assert calls == []
        other = schnorr.KeyPair.generate(seed=b"k2")
        honest_elsewhere = schnorr.sign(other.secret, b"other message")
        misses = [
            (public, message, _flip(signature, 40)),
            (other.public, message, signature),
            (public, b"other message", signature),
            (other.public, message, honest_elsewhere),
        ]
        for triple in misses:
            assert not cache.verify(*triple)
        assert len(calls) == len(misses) and len(cache) == 1

    def test_failures_are_never_cached(self, schnorr_verify_calls):
        calls = schnorr_verify_calls
        cache = schnorr.SignatureCache()
        public, message, signature = self._signed()
        forged = (public, message, _flip(signature, 33))
        assert not cache.verify(*forged) and not cache.verify(*forged)
        assert len(calls) == 2 and len(cache) == 0

    def test_size_bound_evicts_oldest_first(self, monkeypatch, schnorr_verify_calls):
        monkeypatch.setattr(schnorr.SignatureCache, "MAX_ENTRIES", 2)
        cache = schnorr.SignatureCache()
        triples = [self._signed(message=bytes([i])) for i in range(3)]
        for triple in triples:
            assert cache.verify(*triple)
        assert len(cache) == 2
        calls = schnorr_verify_calls
        calls.clear()
        assert cache.verify(*triples[2]) and cache.verify(*triples[1])
        assert calls == []
        assert cache.verify(*triples[0])  # evicted: verified afresh
        assert len(calls) == 1 and len(cache) == 2


    def test_forgotten_triple_is_verified_afresh(self, schnorr_verify_calls):
        calls = schnorr_verify_calls
        cache = schnorr.SignatureCache()
        kept, dropped = self._signed(message=b"kept"), self._signed(message=b"dropped")
        assert cache.verify(*kept) and cache.verify(*dropped)
        cache.forget(*dropped)
        cache.forget(*dropped)  # forgetting twice, or the unknown, is harmless
        cache.forget(kept[0], b"never seen", kept[2])
        cache.forget(b"", b"malformed", None)
        assert len(cache) == 1
        calls.clear()
        assert cache.verify(*kept) and calls == []
        assert cache.verify(*dropped) and len(calls) == 1 and len(cache) == 2

    def test_size_bound_holds_across_forgetting(
        self, monkeypatch, schnorr_verify_calls
    ):
        monkeypatch.setattr(schnorr.SignatureCache, "MAX_ENTRIES", 3)
        cache = schnorr.SignatureCache()
        triples = [self._signed(message=bytes([i])) for i in range(8)]
        for index, triple in enumerate(triples):
            assert cache.verify(*triple)
            if index % 3 == 0:
                cache.forget(*triple)
            assert len(cache) <= 3
        # 0, 3, 6 forgotten; of the rest the oldest two made room
        calls = schnorr_verify_calls
        calls.clear()
        assert all(cache.verify(*triples[i]) for i in (4, 5, 7)) and calls == []
        assert cache.verify(*triples[2]) and len(calls) == 1 and len(cache) == 3


def _flip(data: bytes, index: int) -> bytes:
    flipped = bytearray(data)
    flipped[index] ^= 1
    return bytes(flipped)


class TestSymmetric:
    def test_roundtrip(self):
        key = symmetric.generate_key(seed=b"s")
        box = symmetric.encrypt(key, b"secret bid data")
        assert symmetric.decrypt(key, box) == b"secret bid data"

    def test_empty_plaintext(self):
        key = symmetric.generate_key(seed=b"s")
        assert symmetric.decrypt(key, symmetric.encrypt(key, b"")) == b""

    def test_long_plaintext(self):
        key = symmetric.generate_key(seed=b"s")
        plaintext = bytes(range(256)) * 41
        assert symmetric.decrypt(key, symmetric.encrypt(key, plaintext)) == plaintext

    def test_wrong_key_raises(self):
        box = symmetric.encrypt(symmetric.generate_key(seed=b"a"), b"data")
        with pytest.raises(DecryptionError):
            symmetric.decrypt(symmetric.generate_key(seed=b"b"), box)

    def test_tampered_ciphertext_raises(self):
        key = symmetric.generate_key(seed=b"s")
        box = symmetric.encrypt(key, b"data!")
        bad = symmetric.SealedBox(
            nonce=box.nonce,
            ciphertext=bytes([box.ciphertext[0] ^ 1]) + box.ciphertext[1:],
            tag=box.tag,
        )
        with pytest.raises(DecryptionError):
            symmetric.decrypt(key, bad)

    def test_tampered_tag_raises(self):
        key = symmetric.generate_key(seed=b"s")
        box = symmetric.encrypt(key, b"data!")
        bad = symmetric.SealedBox(
            nonce=box.nonce,
            ciphertext=box.ciphertext,
            tag=bytes([box.tag[0] ^ 1]) + box.tag[1:],
        )
        with pytest.raises(DecryptionError):
            symmetric.decrypt(key, bad)

    def test_bytes_roundtrip(self):
        key = symmetric.generate_key(seed=b"s")
        box = symmetric.encrypt(key, b"payload")
        parsed = symmetric.SealedBox.from_bytes(box.to_bytes())
        assert symmetric.decrypt(key, parsed) == b"payload"

    def test_short_box_rejected(self):
        with pytest.raises(DecryptionError):
            symmetric.SealedBox.from_bytes(b"short")

    def test_bad_key_size_rejected(self):
        with pytest.raises(DecryptionError):
            symmetric.encrypt(b"short-key", b"data")

    def test_distinct_nonces_give_distinct_ciphertexts(self):
        key = symmetric.generate_key(seed=b"s")
        a = symmetric.encrypt(key, b"data", nonce=b"0" * 16)
        b = symmetric.encrypt(key, b"data", nonce=b"1" * 16)
        assert a.ciphertext != b.ciphertext


class TestCommitments:
    def test_open_valid(self):
        commitment, opening = commitments.commit(b"value")
        assert commitments.verify_opening(commitment, opening)

    def test_wrong_value_fails(self):
        commitment, opening = commitments.commit(b"value")
        bad = commitments.Opening(value=b"other", blind=opening.blind)
        assert not commitments.verify_opening(commitment, bad)

    def test_wrong_blind_fails(self):
        commitment, opening = commitments.commit(b"value")
        bad = commitments.Opening(value=opening.value, blind=b"x" * 16)
        assert not commitments.verify_opening(commitment, bad)

    def test_hiding(self):
        a, _ = commitments.commit(b"value", blind=b"A" * 16)
        b, _ = commitments.commit(b"value", blind=b"B" * 16)
        assert a.digest != b.digest

    def test_short_blind_rejected(self):
        from repro.common.errors import CryptoError

        with pytest.raises(CryptoError):
            commitments.commit(b"v", blind=b"xy")
