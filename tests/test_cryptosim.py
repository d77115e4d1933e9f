"""Unit tests for the cryptographic primitives."""

import pytest

from repro.common.errors import DecryptionError, SignatureError
from repro.cryptosim import commitments, hashing, schnorr, symmetric


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


class TestSchnorrGroup:
    def test_generator_order(self):
        assert pow(schnorr.G, schnorr.Q, schnorr.P) == 1

    def test_safe_prime_relation(self):
        assert schnorr.P == 2 * schnorr.Q + 1


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
        challenge, response = schnorr.sign(keypair.secret, b"message")
        assert not schnorr.verify(
            keypair.public, b"message", (challenge, (response + 1) % schnorr.Q)
        )

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
        assert not schnorr.verify(keypair.public, b"m", (0, 0))
        assert not schnorr.verify(keypair.public, b"m", "garbage")  # type: ignore[arg-type]
        assert not schnorr.verify(keypair.public, b"m", (-1, 5))

    @pytest.mark.parametrize(
        "public", [0, 1, schnorr.P, 2 * schnorr.P], ids=["0", "1", "P", "2P"]
    )
    def test_degenerate_public_key_cannot_forge(self, public):
        # With public in {0, P, 2P} the recomputed commitment is 0 whatever
        # the response; with public = 1 it is G^response.  Either way the
        # matching challenge is computable with no secret at all.
        response = 12345
        commitment = 0 if public != 1 else pow(schnorr.G, response, schnorr.P)
        challenge = (
            schnorr._hash_to_int(
                b"chal",
                commitment.to_bytes(160, "big"),
                public.to_bytes(160, "big"),
                b"any message",
            )
            % schnorr.Q
        )
        assert not schnorr.verify(public, b"any message", (challenge, response))

    def test_out_of_range_public_key_rejected_not_raised(self):
        signature = schnorr.sign(schnorr.KeyPair.generate(seed=b"k1").secret, b"m")
        assert not schnorr.verify(-5, b"m", signature)  # no OverflowError escapes
        assert not schnorr.verify(schnorr.P + 4, b"m", signature)
        for public in (None, "4", 4.0, b"\x04"):
            assert not schnorr.verify(public, b"m", signature)  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "signature",
        [(1.0, 2.0), ("1", "2"), (None, None), (True, False), (1, 2.0), "ab"],
        ids=["floats", "strings", "nones", "bools", "mixed", "2-char str"],
    )
    def test_non_integer_components_rejected_not_raised(self, signature):
        # A frame off the wire can carry anything: each of these used to
        # reach ``pow`` or the range comparison and raise TypeError.
        keypair = schnorr.KeyPair.generate(seed=b"k1")
        assert not schnorr.verify(keypair.public, b"m", signature)
        assert not schnorr.SignatureCache().verify(keypair.public, b"m", signature)

    def test_require_valid_raises(self):
        keypair = schnorr.KeyPair.generate(seed=b"k1")
        with pytest.raises(SignatureError):
            schnorr.require_valid(keypair.public, b"m", (1, 1))


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
        public, message, (challenge, response) = self._signed()
        assert cache.verify(public, message, (challenge, response))
        calls = schnorr_verify_calls
        calls.clear()
        other_public = schnorr.KeyPair.generate(seed=b"k2").public
        tampered = [
            (other_public, message, (challenge, response)),
            (public, b"other", (challenge, response)),
            (public, message, (challenge ^ 1, response)),
            (public, message, (challenge, response ^ 1)),
        ]
        for triple in tampered:
            assert not cache.verify(*triple)
        assert len(calls) == len(tampered)  # none was answered from the cache

    def test_key_is_the_screened_triple_itself(self, schnorr_verify_calls):
        """An equal triple made of other objects hits; a forged signature,
        a swapped key or another message under the same honest payload
        misses and goes through verify."""
        cache = schnorr.SignatureCache()
        public, message, (challenge, response) = self._signed()
        assert cache.verify(public, message, [challenge, response])
        calls = schnorr_verify_calls
        calls.clear()
        copy = (int(str(public)), bytes(bytearray(message)))
        assert copy[0] is not public and copy[1] is not message
        assert cache.verify(copy[0], copy[1], (challenge, response))
        assert calls == []
        other = schnorr.KeyPair.generate(seed=b"k2")
        forged = (challenge, (response + 1) % schnorr.Q)
        honest_elsewhere = schnorr.sign(other.secret, b"other message")
        misses = [
            (public, message, forged),
            (other.public, message, (challenge, response)),
            (public, b"other message", (challenge, response)),
            (other.public, message, honest_elsewhere),
        ]
        for triple in misses:
            assert not cache.verify(*triple)
        assert len(calls) == len(misses) and len(cache) == 1

    def test_failures_are_never_cached(self, schnorr_verify_calls):
        calls = schnorr_verify_calls
        cache = schnorr.SignatureCache()
        public, message, (challenge, response) = self._signed()
        forged = (public, message, (challenge, (response + 1) % schnorr.Q))
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
        cache.forget(0, b"malformed", (1.0, None))
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


class TestKeyTables:
    """The per-signer ``Y^(-1)`` tables: pure functions of the key,
    bounded, and no memory of any verdict."""

    def _signed(self, seed, message=b"message"):
        keypair = schnorr.KeyPair.generate(seed=seed)
        return keypair.public, message, schnorr.sign(keypair.secret, message)

    def test_table_is_built_once_per_key_and_depends_on_the_key_alone(self):
        schnorr._key_table.cache_clear()
        public, message, signature = self._signed(b"k1")
        assert schnorr.verify(public, message, signature)
        assert schnorr.verify(public, b"other", schnorr.sign(
            schnorr.KeyPair.generate(seed=b"k1").secret, b"other"
        ))
        info = schnorr._key_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        low, high = schnorr._key_table(public)
        P, columns = schnorr.P, schnorr._COLUMNS
        inverse = pow(public, -1, P)
        assert len(low) == len(high) == 1 << schnorr._KEY_ROWS == 256
        assert low[0] == high[0] == 1 and low[1] == inverse
        # row r weighs inverse^(2^(16 r)); the high table starts at row 8
        assert low[3] == inverse * pow(inverse, 1 << columns, P) % P
        assert low[128] == pow(inverse, 1 << 7 * columns, P)
        assert high[1] == pow(inverse, 1 << 8 * columns, P)
        assert high[255] == pow(inverse, sum(
            1 << row * columns for row in range(8, 16)
        ), P)

    def test_key_first_seen_with_a_forgery_still_verifies_a_good_signature(self):
        schnorr._key_table.cache_clear()
        public, message, (challenge, response) = self._signed(b"k1")
        forged = (challenge, (response + 1) % schnorr.Q)
        assert not schnorr.verify(public, message, forged)
        assert schnorr._key_table.cache_info().currsize == 1  # table, no verdict
        assert schnorr.verify(public, message, (challenge, response))
        assert not schnorr.verify(public, message, forged)
        assert schnorr._key_table.cache_info().misses == 1

    def test_malformed_input_builds_no_table(self):
        schnorr._key_table.cache_clear()
        public, message, (challenge, response) = self._signed(b"k1")
        for key, signature in [
            (0, (challenge, response)),
            (schnorr.P, (challenge, response)),
            (public, (challenge, schnorr.Q)),
            (public, (1 << 256, response)),  # no SHA-256 value is this wide
            (public, (schnorr.Q - 1, response)),
            (public, "garbage"),
        ]:
            assert not schnorr.verify(key, message, signature)
        assert schnorr._key_table.cache_info().currsize == 0

    def test_lru_evicts_at_the_bound_and_a_re_seen_key_rebuilds(self):
        schnorr._key_table.cache_clear()
        bound = schnorr._MAX_KEY_TABLES
        assert schnorr._key_table.cache_info().maxsize == bound
        first = self._signed(b"evicted")
        assert schnorr.verify(*first)
        kept = self._signed(b"kept")
        assert schnorr.verify(*kept)
        for i in range(bound - 1):
            assert schnorr.verify(*self._signed(b"filler-%d" % i))
            if i % 50 == 0:
                assert schnorr.verify(*kept)  # recently used: stays
        info = schnorr._key_table.cache_info()
        assert info.currsize == bound and info.misses == bound + 1
        assert schnorr.verify(*kept)
        assert schnorr._key_table.cache_info().misses == bound + 1
        assert schnorr.verify(*first)  # rebuilt, same verdict
        assert not schnorr.verify(first[0], b"other", first[2])
        assert schnorr._key_table.cache_info().misses == bound + 2
        assert schnorr._key_table.cache_info().currsize == bound


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
