"""Ed25519 as RFC 8032 specifies it, in plain Python: the test oracle.

Section 5.1 defines the scheme and section 6 gives it as code; this
module follows both, with the curve in extended coordinates
``(X, Y, Z, T)`` (``x = X/Z``, ``y = Y/Z``, ``x*y = T/Z``).  It is slow
(milliseconds a signature) and not constant time, and it exists only so
that ``repro.cryptosim.schnorr`` has something independent to agree
with.  ``VECTORS`` are section 7.1's test vectors.

Verification is the RFC's cofactorless check ``[S]B == R + [k]A``.  It
rejects a non-canonical ``R`` or ``A`` (``y >= p``, or ``x = 0`` with the
sign bit set) and ``S >= L``; it accepts the small-order keys, which
``schnorr`` refuses before libsodium sees them (and a small-order ``R``,
which libsodium refuses and RFC 8032 does not).
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

Point = Tuple[int, int, int, int]

p = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
d = -121665 * pow(121666, -1, p) % p
SQRT_M1 = pow(2, (p - 1) // 4, p)
IDENTITY: Point = (0, 1, 1, 0)


def _hash_int(data: bytes) -> int:
    return int.from_bytes(hashlib.sha512(data).digest(), "little")


def add(P: Point, Q: Point) -> Point:
    a = (P[1] - P[0]) * (Q[1] - Q[0]) % p
    b = (P[1] + P[0]) * (Q[1] + Q[0]) % p
    c = 2 * P[3] * Q[3] * d % p
    e = 2 * P[2] * Q[2] % p
    f, g, h, i = b - a, e - c, e + c, b + a
    return f * g % p, h * i % p, g * h % p, f * i % p


def mul(scalar: int, P: Point) -> Point:
    result = IDENTITY
    while scalar > 0:
        if scalar & 1:
            result = add(result, P)
        P = add(P, P)
        scalar >>= 1
    return result


def equal(P: Point, Q: Point) -> bool:
    return (P[0] * Q[2] - Q[0] * P[2]) % p == 0 and (
        P[1] * Q[2] - Q[1] * P[2]
    ) % p == 0


def recover_x(y: int, sign: int) -> Optional[int]:
    if y >= p:
        return None
    x2 = (y * y - 1) * pow(d * y * y + 1, -1, p) % p
    if x2 == 0:
        return None if sign else 0
    x = pow(x2, (p + 3) // 8, p)
    if (x * x - x2) % p:
        x = x * SQRT_M1 % p
    if (x * x - x2) % p:
        return None
    return p - x if (x & 1) != sign else x


def compress(P: Point) -> bytes:
    z = pow(P[2], -1, p)
    x, y = P[0] * z % p, P[1] * z % p
    return (y | (x & 1) << 255).to_bytes(32, "little")


def decompress(encoded: bytes) -> Optional[Point]:
    y = int.from_bytes(encoded, "little")
    sign, y = y >> 255, y & ((1 << 255) - 1)
    x = recover_x(y, sign)
    if x is None:
        return None
    return x, y, 1, x * y % p


_BASE_Y = 4 * pow(5, -1, p) % p
_BASE_X = recover_x(_BASE_Y, 0)
B: Point = (_BASE_X, _BASE_Y, 1, _BASE_X * _BASE_Y % p)


def expand(secret: bytes) -> Tuple[int, bytes]:
    """The secret scalar (clamped) and the nonce prefix."""
    digest = hashlib.sha512(secret).digest()
    scalar = int.from_bytes(digest[:32], "little")
    scalar &= (1 << 254) - 8
    scalar |= 1 << 254
    return scalar, digest[32:]


def public_key(secret: bytes) -> bytes:
    return compress(mul(expand(secret)[0], B))


def sign(secret: bytes, message: bytes, nonce: Optional[int] = None) -> bytes:
    """The RFC's deterministic signature; a ``nonce`` in place of the
    derived ``r`` gives another valid signature on the same message, one
    the RFC's signer never produces."""
    scalar, prefix = expand(secret)
    public = compress(mul(scalar, B))
    r = _hash_int(prefix + message) % L if nonce is None else nonce % L
    commitment = compress(mul(r, B))
    k = _hash_int(commitment + public + message) % L
    return commitment + ((r + k * scalar) % L).to_bytes(32, "little")


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    if len(public) != 32 or len(signature) != 64:
        return False
    A = decompress(public)
    R = decompress(signature[:32])
    s = int.from_bytes(signature[32:], "little")
    if A is None or R is None or s >= L:
        return False
    k = _hash_int(signature[:32] + public + message) % L
    return equal(mul(s, B), add(R, mul(k, A)))


def small_order_points() -> Tuple[Point, ...]:
    """The eight points ``P`` with ``[8]P`` the identity.

    ``[L]Q`` strips the prime-order part of any point ``Q``, leaving its
    torsion part; the first ``Q`` whose torsion part has order 8
    generates all eight."""
    y = 2
    while True:
        Q = decompress(y.to_bytes(32, "little"))
        torsion = mul(L, Q) if Q is not None else IDENTITY
        if not equal(mul(4, torsion), IDENTITY):
            break
        y += 1
    points = [IDENTITY]
    while len(points) < 8:
        points.append(add(points[-1], torsion))
    return tuple(points)


#: RFC 8032 section 7.1: (secret, public, message, signature), in hex
VECTORS = (
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
    (
        "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
        "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
        "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
        "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b58909351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704",
    ),
)
