"""Property tests: cryptographic primitives."""

import hashlib
import hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cryptosim import commitments, schnorr, symmetric

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
# The textbook formulas ``repro.cryptosim.schnorr`` computed before the
# comb tables.  They live here only: the oracle the production kernel
# must agree with bit for bit.
# ----------------------------------------------------------------------
P, Q, G = schnorr.P, schnorr.Q, schnorr.G


def _challenge(commitment: int, public: int, message: bytes) -> int:
    return (
        schnorr._hash_to_int(
            b"chal",
            commitment.to_bytes(160, "big"),
            public.to_bytes(160, "big"),
            message,
        )
        % Q
    )


def oracle_sign(secret: int, message: bytes):
    nonce = (
        schnorr._hash_to_int(b"nonce", secret.to_bytes(160, "big"), message)
        % (Q - 1)
        + 1
    )
    challenge = _challenge(pow(G, nonce, P), pow(G, secret, P), message)
    return challenge, (nonce + challenge * secret) % Q


def oracle_verify(public: int, message: bytes, signature) -> bool:
    if not (isinstance(public, int) and 1 < public < P):
        return False
    challenge, response = signature
    if not (0 <= challenge < Q and 0 <= response < Q):
        return False
    commitment = (
        pow(G, response, P) * pow(pow(public, challenge, P), P - 2, P)
    ) % P
    return _challenge(commitment, public, message) == challenge


seeds = st.binary(min_size=1, max_size=16)
messages = st.binary(min_size=0, max_size=256)
bit = st.integers(min_value=0, max_value=10_000)


class TestSchnorrAgainstTextbookFormulas:
    @given(seed=seeds, message=messages)
    @settings(max_examples=25, deadline=None)
    def test_sign_bit_identical(self, seed, message):
        keypair = schnorr.KeyPair.generate(seed=seed)
        assert keypair.public == pow(G, keypair.secret, P)
        assert schnorr.sign(keypair.secret, message) == oracle_sign(
            keypair.secret, message
        )

    def test_sign_bit_identical_for_full_width_secrets(self):
        # seeded keys are 256-bit; ``KeyPair.generate()`` draws up to Q-1
        for secret in (1, Q - 1, Q // 3, (1 << 1022) + 12345):
            assert schnorr.sign(secret, b"m") == oracle_sign(secret, b"m")

    def test_sign_bit_identical_for_seeded_and_full_width_keys(self):
        # handed the public key, as every caller signs; a full-width
        # secret's G^secret and response reach all six G blocks
        pairs = [schnorr.KeyPair.generate(seed=b"seeded-%d" % i) for i in range(3)]
        pairs += [schnorr.KeyPair(secret=s, public=pow(G, s, P)) for s in (
            Q - 1, Q // 3, (1 << 1022) + 12345, (1 << 880) - 1, 1 << 880,
        )]
        for keypair in pairs:
            for message in (b"", b"m", bytes(range(256))):
                signature = schnorr.sign(keypair.secret, message, keypair.public)
                assert signature == oracle_sign(keypair.secret, message)
                assert schnorr.verify(keypair.public, message, signature)
                assert oracle_verify(keypair.public, message, signature)

    @given(seed=seeds, message=messages)
    @settings(max_examples=25, deadline=None)
    def test_sign_bit_identical_when_handed_the_public_key(self, seed, message):
        keypair = schnorr.KeyPair.generate(seed=seed)
        assert schnorr.sign(
            keypair.secret, message, keypair.public
        ) == oracle_sign(keypair.secret, message)

    @given(seed=seeds, message=st.binary(min_size=1, max_size=64),
           flips=st.tuples(bit, bit, bit, bit))
    @settings(max_examples=25, deadline=None)
    def test_verify_agrees_on_valid_and_bit_flipped(self, seed, message, flips):
        keypair = schnorr.KeyPair.generate(seed=seed)
        challenge, response = oracle_sign(keypair.secret, message)
        flipped_message = bytearray(message)
        flipped_message[flips[0] % len(message)] ^= 1 << (flips[0] % 8)
        cases = [
            (keypair.public, message, (challenge, response)),
            (keypair.public, bytes(flipped_message), (challenge, response)),
            (keypair.public, message, (challenge ^ (1 << flips[1] % 256), response)),
            (keypair.public, message, (challenge, response ^ (1 << flips[2] % 512))),
            (keypair.public ^ (1 << flips[3] % 1024), message, (challenge, response)),
        ]
        verdicts = [schnorr.verify(*case) for case in cases]
        assert verdicts == [oracle_verify(*case) for case in cases]
        assert verdicts[0] is True and not any(verdicts[1:4])

    @given(seed=seeds, message=messages)
    @settings(max_examples=10, deadline=None)
    def test_verify_agrees_on_out_of_range_inputs(self, seed, message):
        keypair = schnorr.KeyPair.generate(seed=seed)
        challenge, response = oracle_sign(keypair.secret, message)
        for signature in (
            (challenge + Q, response),
            (challenge, response + Q),
            (Q, response),
            (challenge, Q),
            (-1, response),
            (challenge, -1),
            (0, 0),
        ):
            assert (
                schnorr.verify(keypair.public, message, signature)
                == oracle_verify(keypair.public, message, signature)
                is False
            )
        for public in (0, 1, P, 2 * P, -1):
            assert (
                schnorr.verify(public, message, (challenge, response))
                == oracle_verify(public, message, (challenge, response))
                is False
            )

    @given(message=messages, public=st.integers(min_value=2, max_value=P - 1),
           challenge=st.integers(min_value=0, max_value=Q - 1),
           response=st.integers(min_value=0, max_value=Q - 1))
    @settings(max_examples=25, deadline=None)
    def test_verify_agrees_on_arbitrary_in_range_triples(
        self, message, public, challenge, response
    ):
        # includes keys outside the order-Q subgroup, where inverting by
        # the subgroup order would differ from the true inverse
        assert schnorr.verify(public, message, (challenge, response)) == (
            oracle_verify(public, message, (challenge, response))
        )

    def test_fixed_base_power_edges_and_comb_boundaries(self):
        rows, columns = schnorr._G_ROWS, schnorr._COLUMNS
        block_bits, blocks = schnorr._G_BLOCK_BITS, schnorr._G_BLOCKS
        assert block_bits == rows * columns == 176
        assert blocks * block_bits >= Q.bit_length() > (blocks - 1) * block_bits
        exponents = {0, 1, Q - 1, Q, Q + 1, 2 * Q + 5}
        # the first and last column of every row of every block
        for shift in range(0, blocks * block_bits + 1, columns):
            exponents.update({
                (1 << shift) - 1, 1 << shift, (1 << shift) + 1,
                1 << shift + columns - 1,
            })
        for block in range(1, blocks + 1):  # each 176-bit block boundary
            edge = 1 << block * block_bits
            exponents.update({edge - 1, edge, edge + 1})
        for block in range(blocks):
            base = block * block_bits
            for column in (0, 1, columns - 1):
                # every row of the block set in one column: entry 2047
                exponents.add(
                    sum(1 << (base + row * columns + column) for row in range(rows))
                )
            for row in range(rows):  # a whole row: one entry, every column
                exponents.add(((1 << columns) - 1) << (base + row * columns))
            exponents.add(((1 << block_bits) - 1) << base)  # the whole block
        tables = schnorr._g_tables(Q - 1)
        assert len(tables) == blocks
        assert all(len(table) == 1 << rows for table in tables)
        for exponent in exponents:
            assert schnorr._g_pow(exponent) == pow(G, exponent, P), exponent
            if exponent < 1 << blocks * block_bits:
                # unreduced, so the top rows above Q's width are read too
                assert schnorr._comb_pow(tables, exponent) == pow(
                    G, exponent, P
                ), exponent

    def test_an_exponent_builds_exactly_the_blocks_it_reaches(self):
        block_bits = schnorr._G_BLOCK_BITS
        schnorr._g_block.cache_clear()
        assert schnorr._g_pow(0) == 1
        assert schnorr._g_block.cache_info().currsize == 0
        for block in range(schnorr._G_BLOCKS):
            for exponent in (1 << block * block_bits, (1 << (block + 1) * block_bits) - 1):
                exponent %= Q  # the top block's last bit lies above Q
                if exponent.bit_length() <= block * block_bits:
                    continue
                assert schnorr._g_pow(exponent) == pow(G, exponent, P)
                assert schnorr._g_block.cache_info().currsize == block + 1
        # a seeded key's response (nonce + challenge * secret, 256-bit
        # terms) reaches 3 of the 6 blocks
        schnorr._g_block.cache_clear()
        keypair = schnorr.KeyPair.generate(seed=b"three blocks")
        signature = schnorr.sign(keypair.secret, b"m", keypair.public)
        assert schnorr._g_block.cache_info().currsize == 2  # 256-bit nonce
        assert schnorr.verify(keypair.public, b"m", signature)
        assert schnorr._g_block.cache_info().currsize == 3

    @given(exponent=st.integers(min_value=0, max_value=Q - 1))
    @settings(max_examples=100, deadline=None)
    def test_fixed_base_power_random(self, exponent):
        assert schnorr._g_pow(exponent) == pow(G, exponent, P)

    @given(public=st.integers(min_value=2, max_value=P - 1),
           challenge=st.integers(min_value=0, max_value=(1 << 256) - 1),
           response=st.one_of(
               st.integers(min_value=0, max_value=Q - 1),
               st.integers(min_value=0, max_value=(1 << 512) - 1),
           ))
    @settings(max_examples=25, deadline=None)
    def test_single_pass_commitment_equals_two_pows(
        self, public, challenge, response
    ):
        # the value the verdict hashes, for keys in and out of the
        # subgroup, with the key tables above the G blocks the response
        # reaches (as verify lays them out) and above all six
        expected = pow(G, response, P) * pow(pow(public, challenge, P), P - 2, P) % P
        for g_tables in {schnorr._g_tables(response), schnorr._g_tables(Q - 1)}:
            assert schnorr._comb_pow(
                g_tables + schnorr._key_table(public),
                response | challenge << len(g_tables) * schnorr._G_BLOCK_BITS,
            ) == expected

    def test_key_table_edges_and_comb_boundaries(self):
        public = schnorr.KeyPair.generate(seed=b"edges").public
        tables = schnorr._key_table(public)
        rows, columns = schnorr._KEY_ROWS, schnorr._COLUMNS
        table_bits = rows * columns
        assert len(tables) == schnorr._KEY_BLOCKS == 2
        assert all(len(table) == 1 << rows for table in tables)
        assert len(tables) * table_bits == schnorr._CHALLENGE_BITS == 256
        inverse = pow(public, P - 2, P)
        challenges = {0, 1, (1 << 256) - 1}
        # the first and last column of every row of both tables
        for shift in range(0, 256, columns):
            challenges.update({
                (1 << shift) - 1, 1 << shift, (1 << shift) + 1,
                1 << shift + columns - 1,
            })
        for block in range(len(tables)):
            base = block * table_bits
            for column in (0, columns - 1):  # every row in one column: 255
                challenges.add(
                    sum(1 << (base + row * columns + column) for row in range(rows))
                )
            challenges.add(((1 << table_bits) - 1) << base)  # the whole table
        # across the 128-bit split between the two tables
        split = 1 << table_bits
        challenges.update({
            split - 1, split, split + 1, split | (split >> 1),
            ((1 << columns) - 1) << (table_bits - columns // 2),
            (split - 1) << (table_bits // 2),
        })
        for challenge in challenges:
            assert schnorr._comb_pow(tables, challenge) == pow(
                inverse, challenge, P
            ), challenge

    @given(seed=seeds, message=st.binary(min_size=1, max_size=64),
           flips=st.tuples(bit, bit, bit), twist=st.integers(2, P - 2))
    @settings(max_examples=15, deadline=None)
    def test_verify_through_a_cached_table_agrees_on_first_and_second_sight(
        self, seed, message, flips, twist
    ):
        keypair = schnorr.KeyPair.generate(seed=seed)
        challenge, response = oracle_sign(keypair.secret, message)
        flipped_message = bytearray(message)
        flipped_message[flips[0] % len(message)] ^= 1 << (flips[0] % 8)
        # almost surely outside the order-Q subgroup (half of Z_P* is)
        outsider = keypair.public * twist % P
        cases = [
            (keypair.public, message, (challenge, response)),
            (keypair.public, bytes(flipped_message), (challenge, response)),
            (keypair.public, message, (challenge ^ (1 << flips[1] % 256), response)),
            (keypair.public, message, (challenge, response ^ (1 << flips[2] % 512))),
            (keypair.public, message, (0, response)),
            (keypair.public, message, (challenge, 0)),
            (keypair.public, message, (0, 0)),
            (P - 1, message, (challenge, response)),  # order 2
            (outsider, message, (challenge, response)),
            (keypair.public, message, (1 << 256, response)),
            (keypair.public, message, (challenge | 1 << 256, response)),
            (keypair.public, message, (Q - 1, response)),
        ]
        expected = [oracle_verify(*case) for case in cases]
        assert expected[0] is True and not any(expected[1:])
        schnorr._key_table.cache_clear()
        first = [schnorr.verify(*case) for case in cases]
        built = schnorr._key_table.cache_info().misses
        second = [schnorr.verify(*case) for case in cases]
        assert first == expected and second == expected
        # one table per distinct key, none rebuilt on second sight, and a
        # challenge no SHA-256 value can equal never reaches the tables
        assert built == len({keypair.public, P - 1, outsider})
        assert schnorr._key_table.cache_info().misses == built


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
