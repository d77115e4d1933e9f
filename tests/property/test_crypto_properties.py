"""Property tests: cryptographic primitives."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cryptosim import commitments, schnorr, symmetric
from tests import rfc8032

keys = st.binary(min_size=32, max_size=32)
payloads = st.binary(min_size=0, max_size=2048)


class TestSymmetricProperties:
    @given(key=keys, plaintext=payloads)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, key, plaintext):
        box = symmetric.encrypt(key, plaintext)
        assert symmetric.decrypt(key, box) == plaintext

    @given(key=keys, plaintext=payloads)
    @settings(max_examples=50, deadline=None)
    def test_serialization_roundtrip(self, key, plaintext):
        box = symmetric.encrypt(key, plaintext)
        parsed = symmetric.SealedBox.from_bytes(box.to_bytes())
        assert symmetric.decrypt(key, parsed) == plaintext

    @given(key=keys, plaintext=payloads,
           nonce=st.binary(min_size=16, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_box_equals_the_byte_wise_xor(self, key, plaintext, nonce):
        # the integer XOR must give exactly the bytes of the per-byte one
        stream = symmetric._keystream(
            symmetric._derive(key, b"enc"), nonce, len(plaintext)
        )
        box = symmetric.encrypt(key, plaintext, nonce=nonce)
        assert box.ciphertext == bytes(
            p ^ s for p, s in zip(plaintext, stream)
        )
        assert symmetric.decrypt(key, box) == bytes(
            c ^ s for c, s in zip(box.ciphertext, stream)
        )

    @given(key=keys, plaintext=payloads,
           nonce=st.binary(min_size=16, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_box_equals_the_streaming_hmac_construction(
        self, key, plaintext, nonce
    ):
        # one-shot ``hmac.digest`` must give every byte ``hmac.new`` gave
        def mac(k, msg):
            return hmac.new(k, msg, hashlib.sha256).digest()

        enc_key, mac_key = mac(key, b"enc"), mac(key, b"mac")
        stream = b"".join(
            hashlib.sha256(enc_key + nonce + i.to_bytes(8, "big")).digest()
            for i in range(-(-len(plaintext) // 32))
        )
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        box = symmetric.encrypt(key, plaintext, nonce=nonce)
        assert box == symmetric.SealedBox(
            nonce=nonce,
            ciphertext=ciphertext,
            tag=mac(mac_key, nonce + ciphertext),
        )
        assert symmetric.decrypt(key, box) == plaintext

    @given(key=keys, plaintext=st.binary(min_size=1, max_size=512),
           flip=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_any_ciphertext_bitflip_detected(self, key, plaintext, flip):
        import pytest

        box = symmetric.encrypt(key, plaintext)
        index = flip % len(box.ciphertext)
        tampered = symmetric.SealedBox(
            nonce=box.nonce,
            ciphertext=(
                box.ciphertext[:index]
                + bytes([box.ciphertext[index] ^ 0x01])
                + box.ciphertext[index + 1 :]
            ),
            tag=box.tag,
        )
        with pytest.raises(Exception):
            symmetric.decrypt(key, tampered)


class TestSchnorrProperties:
    @given(seed=st.binary(min_size=1, max_size=16), message=payloads)
    @settings(max_examples=25, deadline=None)
    def test_sign_verify(self, seed, message):
        keypair = schnorr.KeyPair.generate(seed=seed)
        assert schnorr.verify(
            keypair.public, message, schnorr.sign(keypair.secret, message)
        )

    @given(
        seed=st.binary(min_size=1, max_size=16),
        message=st.binary(min_size=1, max_size=64),
        other=st.binary(min_size=1, max_size=64),
    )
    @settings(max_examples=25, deadline=None)
    def test_signature_binds_message(self, seed, message, other):
        if message == other:
            return
        keypair = schnorr.KeyPair.generate(seed=seed)
        signature = schnorr.sign(keypair.secret, message)
        assert not schnorr.verify(keypair.public, other, signature)


# ----------------------------------------------------------------------
# The textbook formulas: RFC 8032's Ed25519 in plain Python
# (``tests/rfc8032.py``), which the libsodium binding must agree with bit
# for bit on every input ``schnorr._components`` lets through.
# ----------------------------------------------------------------------
seeds = st.binary(min_size=1, max_size=16)
messages = st.binary(min_size=0, max_size=256)
bit = st.integers(min_value=0, max_value=10_000)


def _flip(data: bytes, position: int) -> bytes:
    flipped = bytearray(data)
    flipped[position // 8 % len(data)] ^= 1 << position % 8
    return bytes(flipped)


def _agrees(public, message, signature) -> bool:
    """``schnorr.verify`` equals the oracle where the screen lets the
    input through, and is ``False`` where it does not."""
    verdict = schnorr.verify(public, message, signature)
    if schnorr._components(public, signature):
        return verdict == rfc8032.verify(public, message, signature)
    return verdict is False


class TestSchnorrAgainstTextbookFormulas:
    def test_rfc8032_test_vectors(self):
        for secret, public, message, signature in rfc8032.VECTORS:
            secret, public, message, signature = map(
                bytes.fromhex, (secret, public, message, signature)
            )
            assert rfc8032.public_key(secret) == public
            assert rfc8032.sign(secret, message) == signature
            assert rfc8032.verify(public, message, signature)
            assert _public_of(secret) == public
            assert schnorr.sign(secret, message) == signature
            assert schnorr.verify(public, message, signature)

    @given(seed=seeds, message=messages)
    @settings(max_examples=25, deadline=None)
    def test_sign_bit_identical(self, seed, message):
        keypair = schnorr.KeyPair.generate(seed=seed)
        assert keypair.secret == hashlib.sha256(b"keygen" + seed).digest()
        assert keypair.public == rfc8032.public_key(keypair.secret)
        assert schnorr.sign(keypair.secret, message) == rfc8032.sign(
            keypair.secret, message
        )

    def test_sign_bit_identical_for_full_width_secrets(self):
        # the secret is hashed and clamped, so every 32 bytes is a secret
        for secret in (bytes(32), b"\xff" * 32, bytes(31) + b"\x01"):
            assert _public_of(secret) == rfc8032.public_key(secret)
            assert schnorr.sign(secret, b"m") == rfc8032.sign(secret, b"m")

    def test_sign_bit_identical_for_seeded_and_full_width_keys(self):
        pairs = [schnorr.KeyPair.generate(seed=b"seeded-%d" % i) for i in range(3)]
        pairs += [schnorr.KeyPair.generate() for _ in range(3)]  # random
        for keypair in pairs:
            assert keypair.public == rfc8032.public_key(keypair.secret)
            for message in (b"", b"m", bytes(range(256))):
                signature = schnorr.sign(keypair.secret, message)
                assert signature == rfc8032.sign(keypair.secret, message)
                assert schnorr.verify(keypair.public, message, signature)
                assert rfc8032.verify(keypair.public, message, signature)

    @given(seed=seeds, message=st.binary(min_size=1, max_size=64),
           flips=st.tuples(bit, bit, bit, bit))
    @settings(max_examples=25, deadline=None)
    def test_verify_agrees_on_valid_and_bit_flipped(self, seed, message, flips):
        keypair = schnorr.KeyPair.generate(seed=seed)
        signature = rfc8032.sign(keypair.secret, message)
        cases = [
            (keypair.public, message, signature),
            (keypair.public, _flip(message, flips[0]), signature),
            (keypair.public, message, _flip(signature, flips[1] % 256)),  # R
            (keypair.public, message, _flip(signature, 256 + flips[2] % 256)),  # S
            (_flip(keypair.public, flips[3]), message, signature),
        ]
        assert all(_agrees(*case) for case in cases)
        verdicts = [schnorr.verify(*case) for case in cases]
        assert verdicts == [True, False, False, False, False]

    @given(seed=seeds, message=messages)
    @settings(max_examples=10, deadline=None)
    def test_verify_agrees_on_out_of_range_inputs(self, seed, message):
        keypair = schnorr.KeyPair.generate(seed=seed)
        signature = rfc8032.sign(keypair.secret, message)
        commitment, response = signature[:32], int.from_bytes(signature[32:], "little")
        y = int.from_bytes(keypair.public, "little") & ((1 << 255) - 1)
        sign_bit = keypair.public[31] & 0x80
        for wide in (response + rfc8032.L, rfc8032.L, (1 << 256) - 1):
            # S >= L: the same signature plus a multiple of L, or no scalar
            bad = commitment + wide.to_bytes(32, "little")
            assert schnorr.verify(keypair.public, message, bad) is False
            assert rfc8032.verify(keypair.public, message, bad) is False
        for noncanonical in range(rfc8032.p, 1 << 255):
            public = bytearray(noncanonical.to_bytes(32, "little"))
            public[31] |= sign_bit
            assert schnorr.verify(bytes(public), message, signature) is False
            assert rfc8032.verify(bytes(public), message, signature) is False
            # a non-canonical R passes the screen; the library refuses it
            bad = noncanonical.to_bytes(32, "little") + signature[32:]
            assert schnorr.verify(keypair.public, message, bad) is False
            assert rfc8032.verify(keypair.public, message, bad) is False
        assert y < rfc8032.p  # a real key is canonical

    @given(message=messages, public=st.binary(min_size=32, max_size=32),
           signature=st.binary(min_size=64, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_verify_agrees_on_arbitrary_in_range_triples(
        self, message, public, signature
    ):
        # random bytes: mostly not a point, or a point outside the
        # prime-order subgroup, never a signature
        assert _agrees(public, message, signature)
        assert schnorr.verify(public, message, signature) is False

    @given(seed=seeds, message=st.binary(min_size=1, max_size=64),
           flips=st.tuples(bit, bit, bit))
    @settings(max_examples=15, deadline=None)
    def test_verify_agrees_on_first_and_second_sight_of_a_key(
        self, seed, message, flips
    ):
        keypair = schnorr.KeyPair.generate(seed=seed)
        signature = rfc8032.sign(keypair.secret, message)
        outsider = rfc8032.compress(rfc8032.add(  # a key with a torsion part
            rfc8032.decompress(keypair.public), rfc8032.small_order_points()[1]
        ))
        cases = [
            (keypair.public, message, signature),
            (keypair.public, _flip(message, flips[0]), signature),
            (keypair.public, message, _flip(signature, flips[1] % 256)),
            (keypair.public, message, _flip(signature, 256 + flips[2] % 256)),
            (keypair.public, message, bytes(64)),
            (outsider, message, signature),
            (keypair.public, message, signature[:32] + bytes(32)),
        ]
        expected = [rfc8032.verify(*case) for case in cases]
        assert expected[0] is True and not any(expected[1:])
        first = [schnorr.verify(*case) for case in cases]
        second = [schnorr.verify(*case) for case in cases]
        assert first == expected and second == expected

    def test_small_order_commitment_is_refused_though_the_oracle_accepts(self):
        # A key's owner can make the equation hold with R the identity:
        # S = H(R || A || M) * a gives [S]B = [k]A = R + [k]A.  RFC 8032
        # (and OpenSSL) accept it, libsodium does not; the screen refuses
        # it before any library is asked.
        identity = rfc8032.compress(rfc8032.IDENTITY)
        for seed in (b"owner", b"other owner"):
            keypair = schnorr.KeyPair.generate(seed=seed)
            scalar = rfc8032.expand(keypair.secret)[0]
            for message in (b"", b"m", bytes(range(256))):
                k = rfc8032._hash_int(identity + keypair.public + message) % rfc8032.L
                crafted = identity + (k * scalar % rfc8032.L).to_bytes(32, "little")
                assert rfc8032.verify(keypair.public, message, crafted)
                assert schnorr.verify(keypair.public, message, crafted) is False
                assert not schnorr._components(keypair.public, crafted)
                assert _agrees(keypair.public, message, crafted)

    @given(seed=seeds, message=messages, flip=bit)
    @settings(max_examples=25, deadline=None)
    def test_matches_the_cryptography_package(self, seed, message, flip):
        ed25519 = pytest.importorskip(
            "cryptography.hazmat.primitives.asymmetric.ed25519"
        )
        keypair = schnorr.KeyPair.generate(seed=seed)
        theirs = ed25519.Ed25519PrivateKey.from_private_bytes(keypair.secret)
        signature = schnorr.sign(keypair.secret, message)
        assert theirs.sign(message) == signature
        flipped = _flip(signature, flip)
        try:
            theirs.public_key().verify(flipped, message)
            accepted = True
        except Exception:
            accepted = False
        assert accepted is schnorr.verify(keypair.public, message, flipped) is False


def _public_of(secret: bytes) -> bytes:
    """The public key libsodium derives for any 32-byte secret."""
    return schnorr._signing_key(secret).raw[schnorr.KEY_SIZE:]


class TestCommitmentProperties:
    @given(value=payloads)
    @settings(max_examples=50, deadline=None)
    def test_opens(self, value):
        commitment, opening = commitments.commit(value)
        assert commitments.verify_opening(commitment, opening)

    @given(value=payloads, other=payloads)
    @settings(max_examples=50, deadline=None)
    def test_binding(self, value, other):
        if value == other:
            return
        commitment, opening = commitments.commit(value)
        forged = commitments.Opening(value=other, blind=opening.blind)
        assert not commitments.verify_opening(commitment, forged)
