"""X25519 elliptic-curve Diffie-Hellman key agreement (RFC 7748).

This is the key-agreement scheme REX nodes run during mutual attestation:
each enclave embeds its ephemeral public key in the *user data* field of its
SGX quote, and after a successful quote verification both sides combine the
peer's public key with their own private key to obtain the same 32-byte
shared secret (Section III-A of the paper).

The implementation follows RFC 7748 section 5 exactly: the Montgomery
ladder over Curve25519 (p = 2^255 - 19, A = 486662) with the standard
scalar clamping.  Python's arbitrary-precision integers make the field
arithmetic straightforward; this is not constant-time (it does not need to
be -- the "hardware" here is simulated), but it is *correct*, and the test
suite checks the RFC 7748 vectors including the 1,000-iteration ladder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["P", "A24", "x25519", "X25519PrivateKey", "X25519PublicKey"]

#: The Curve25519 prime, 2^255 - 19.
P = 2**255 - 19

#: (A - 2) / 4 for A = 486662, used in the Montgomery ladder step.
A24 = 121665

#: The standard base point (u = 9).
_BASE_POINT = (9).to_bytes(32, "little")


def _decode_u_coordinate(u: bytes) -> int:
    """Decode a 32-byte little-endian u-coordinate, masking the top bit."""
    if len(u) != 32:
        raise ValueError(f"u-coordinate must be 32 bytes, got {len(u)}")
    value = int.from_bytes(u, "little")
    return value & ((1 << 255) - 1)


def _decode_scalar(k: bytes) -> int:
    """Decode and clamp a 32-byte scalar per RFC 7748 section 5."""
    if len(k) != 32:
        raise ValueError(f"scalar must be 32 bytes, got {len(k)}")
    raw = bytearray(k)
    raw[0] &= 248
    raw[31] &= 127
    raw[31] |= 64
    return int.from_bytes(raw, "little")


def _cswap(swap: int, x2: int, x3: int) -> tuple[int, int]:
    """Conditionally swap two field elements (branch form; not const-time)."""
    if swap:
        return x3, x2
    return x2, x3


def _ladder(k: int, u: int) -> int:
    """Montgomery ladder scalar multiplication on Curve25519.

    Returns the u-coordinate of ``k * (u, v)`` working entirely in the
    x-only (Montgomery) coordinate system, per RFC 7748.
    """
    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        swap ^= k_t
        x2, x3 = _cswap(swap, x2, x3)
        z2, z3 = _cswap(swap, z2, z3)
        swap = k_t

        a = (x2 + z2) % P
        aa = (a * a) % P
        b = (x2 - z2) % P
        bb = (b * b) % P
        e = (aa - bb) % P
        c = (x3 + z3) % P
        d = (x3 - z3) % P
        da = (d * a) % P
        cb = (c * b) % P
        x3 = (da + cb) % P
        x3 = (x3 * x3) % P
        z3 = (da - cb) % P
        z3 = (z3 * z3) % P
        z3 = (z3 * x1) % P
        x2 = (aa * bb) % P
        z2 = (e * (aa + A24 * e)) % P

    x2, x3 = _cswap(swap, x2, x3)
    z2, z3 = _cswap(swap, z2, z3)
    # Fermat inversion: z2^(p-2) mod p.
    return (x2 * pow(z2, P - 2, P)) % P


def x25519(scalar: bytes, u_coordinate: bytes = _BASE_POINT) -> bytes:
    """RFC 7748 X25519 function: scalar multiplication on Curve25519.

    Parameters
    ----------
    scalar:
        32-byte private scalar (clamped internally).
    u_coordinate:
        32-byte little-endian u-coordinate of the input point; defaults to
        the curve base point (u = 9), which computes the public key.

    Returns
    -------
    bytes
        The 32-byte little-endian u-coordinate of the result.
    """
    k = _decode_scalar(scalar)
    u = _decode_u_coordinate(u_coordinate)
    return _ladder(k, u).to_bytes(32, "little")


@dataclass(frozen=True)
class X25519PublicKey:
    """An X25519 public key (a 32-byte u-coordinate)."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != 32:
            raise ValueError("X25519 public key must be 32 bytes")


@dataclass(frozen=True)
class X25519PrivateKey:
    """An X25519 private key with Diffie-Hellman exchange.

    Notes
    -----
    ``exchange`` rejects the all-zero shared secret, which arises when the
    peer supplied a low-order point -- the standard contributory-behaviour
    check mandated by RFC 7748 section 6.1.
    """

    data: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.data) != 32:
            raise ValueError("X25519 private key must be 32 bytes")

    @classmethod
    def from_seed(cls, seed: bytes) -> "X25519PrivateKey":
        """Derive a deterministic private key from arbitrary seed bytes.

        Used throughout the simulator so experiments are reproducible while
        still exercising the real key-agreement math.
        """
        return cls(hashlib.sha256(b"x25519-seed:" + seed).digest())

    def public_key(self) -> X25519PublicKey:
        """Compute the corresponding public key (scalar * base point)."""
        return X25519PublicKey(x25519(self.data))

    def exchange(self, peer: X25519PublicKey) -> bytes:
        """Compute the 32-byte shared secret with ``peer``.

        Raises
        ------
        ValueError
            If the resulting shared secret is all zeros (low-order point).
        """
        secret = x25519(self.data, peer.data)
        if secret == b"\x00" * 32:
            raise ValueError("X25519 exchange produced the all-zero secret")
        return secret
