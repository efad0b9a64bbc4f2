"""ChaCha20 stream cipher (RFC 8439 section 2).

The block function and the keystream-XOR cipher used by the
:class:`~repro.tee.crypto.aead.ChaCha20Poly1305` AEAD.  Inside REX this is
what stands in for the SGX SSL symmetric cipher protecting every raw-data
and model message between attested enclaves.

The implementation follows the RFC exactly -- a 4x4 state of 32-bit words
(constants | key | counter | nonce), 20 rounds of quarter-rounds (10
column + 10 diagonal), serialized little-endian -- but the round function
is fully unrolled into straight-line code over 16 local variables: the
transcription with one helper call per quarter round spent most of its
time on call frames and list indexing, which made the scalar path the
wall-clock floor for every small sealed message.  The keystream XOR is a
single big-integer XOR over the whole message rather than a per-byte
loop.  Validated against the RFC 8439 test vectors in the test suite.
"""

from __future__ import annotations

import struct

__all__ = ["chacha20_block", "chacha20_blocks", "chacha20_encrypt"]

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"


def _core(words: tuple) -> bytes:
    """Run the 20 ChaCha rounds on one 16-word state; returns the
    serialized output block (working state + input state)."""
    s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15 = words
    x0, x1, x2, x3 = s0, s1, s2, s3
    x4, x5, x6, x7 = s4, s5, s6, s7
    x8, x9, x10, x11 = s8, s9, s10, s11
    x12, x13, x14, x15 = s12, s13, s14, s15

    for _ in range(10):
        # Column quarter-rounds: (0,4,8,12) (1,5,9,13) (2,6,10,14) (3,7,11,15).
        x0 = (x0 + x4) & _MASK32
        x12 ^= x0
        x12 = ((x12 << 16) | (x12 >> 16)) & _MASK32
        x8 = (x8 + x12) & _MASK32
        x4 ^= x8
        x4 = ((x4 << 12) | (x4 >> 20)) & _MASK32
        x0 = (x0 + x4) & _MASK32
        x12 ^= x0
        x12 = ((x12 << 8) | (x12 >> 24)) & _MASK32
        x8 = (x8 + x12) & _MASK32
        x4 ^= x8
        x4 = ((x4 << 7) | (x4 >> 25)) & _MASK32

        x1 = (x1 + x5) & _MASK32
        x13 ^= x1
        x13 = ((x13 << 16) | (x13 >> 16)) & _MASK32
        x9 = (x9 + x13) & _MASK32
        x5 ^= x9
        x5 = ((x5 << 12) | (x5 >> 20)) & _MASK32
        x1 = (x1 + x5) & _MASK32
        x13 ^= x1
        x13 = ((x13 << 8) | (x13 >> 24)) & _MASK32
        x9 = (x9 + x13) & _MASK32
        x5 ^= x9
        x5 = ((x5 << 7) | (x5 >> 25)) & _MASK32

        x2 = (x2 + x6) & _MASK32
        x14 ^= x2
        x14 = ((x14 << 16) | (x14 >> 16)) & _MASK32
        x10 = (x10 + x14) & _MASK32
        x6 ^= x10
        x6 = ((x6 << 12) | (x6 >> 20)) & _MASK32
        x2 = (x2 + x6) & _MASK32
        x14 ^= x2
        x14 = ((x14 << 8) | (x14 >> 24)) & _MASK32
        x10 = (x10 + x14) & _MASK32
        x6 ^= x10
        x6 = ((x6 << 7) | (x6 >> 25)) & _MASK32

        x3 = (x3 + x7) & _MASK32
        x15 ^= x3
        x15 = ((x15 << 16) | (x15 >> 16)) & _MASK32
        x11 = (x11 + x15) & _MASK32
        x7 ^= x11
        x7 = ((x7 << 12) | (x7 >> 20)) & _MASK32
        x3 = (x3 + x7) & _MASK32
        x15 ^= x3
        x15 = ((x15 << 8) | (x15 >> 24)) & _MASK32
        x11 = (x11 + x15) & _MASK32
        x7 ^= x11
        x7 = ((x7 << 7) | (x7 >> 25)) & _MASK32

        # Diagonal quarter-rounds: (0,5,10,15) (1,6,11,12) (2,7,8,13) (3,4,9,14).
        x0 = (x0 + x5) & _MASK32
        x15 ^= x0
        x15 = ((x15 << 16) | (x15 >> 16)) & _MASK32
        x10 = (x10 + x15) & _MASK32
        x5 ^= x10
        x5 = ((x5 << 12) | (x5 >> 20)) & _MASK32
        x0 = (x0 + x5) & _MASK32
        x15 ^= x0
        x15 = ((x15 << 8) | (x15 >> 24)) & _MASK32
        x10 = (x10 + x15) & _MASK32
        x5 ^= x10
        x5 = ((x5 << 7) | (x5 >> 25)) & _MASK32

        x1 = (x1 + x6) & _MASK32
        x12 ^= x1
        x12 = ((x12 << 16) | (x12 >> 16)) & _MASK32
        x11 = (x11 + x12) & _MASK32
        x6 ^= x11
        x6 = ((x6 << 12) | (x6 >> 20)) & _MASK32
        x1 = (x1 + x6) & _MASK32
        x12 ^= x1
        x12 = ((x12 << 8) | (x12 >> 24)) & _MASK32
        x11 = (x11 + x12) & _MASK32
        x6 ^= x11
        x6 = ((x6 << 7) | (x6 >> 25)) & _MASK32

        x2 = (x2 + x7) & _MASK32
        x13 ^= x2
        x13 = ((x13 << 16) | (x13 >> 16)) & _MASK32
        x8 = (x8 + x13) & _MASK32
        x7 ^= x8
        x7 = ((x7 << 12) | (x7 >> 20)) & _MASK32
        x2 = (x2 + x7) & _MASK32
        x13 ^= x2
        x13 = ((x13 << 8) | (x13 >> 24)) & _MASK32
        x8 = (x8 + x13) & _MASK32
        x7 ^= x8
        x7 = ((x7 << 7) | (x7 >> 25)) & _MASK32

        x3 = (x3 + x4) & _MASK32
        x14 ^= x3
        x14 = ((x14 << 16) | (x14 >> 16)) & _MASK32
        x9 = (x9 + x14) & _MASK32
        x4 ^= x9
        x4 = ((x4 << 12) | (x4 >> 20)) & _MASK32
        x3 = (x3 + x4) & _MASK32
        x14 ^= x3
        x14 = ((x14 << 8) | (x14 >> 24)) & _MASK32
        x9 = (x9 + x14) & _MASK32
        x4 ^= x9
        x4 = ((x4 << 7) | (x4 >> 25)) & _MASK32

    return struct.pack(
        "<16L",
        (x0 + s0) & _MASK32,
        (x1 + s1) & _MASK32,
        (x2 + s2) & _MASK32,
        (x3 + s3) & _MASK32,
        (x4 + s4) & _MASK32,
        (x5 + s5) & _MASK32,
        (x6 + s6) & _MASK32,
        (x7 + s7) & _MASK32,
        (x8 + s8) & _MASK32,
        (x9 + s9) & _MASK32,
        (x10 + s10) & _MASK32,
        (x11 + s11) & _MASK32,
        (x12 + s12) & _MASK32,
        (x13 + s13) & _MASK32,
        (x14 + s14) & _MASK32,
        (x15 + s15) & _MASK32,
    )


def _check_params(key: bytes, counter: int, nonce: bytes) -> None:
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    if not 0 <= counter <= _MASK32:
        raise ValueError("ChaCha20 counter must fit in 32 bits")


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Compute one 64-byte ChaCha20 keystream block.

    Parameters
    ----------
    key:
        32-byte key.
    counter:
        32-bit block counter.
    nonce:
        12-byte nonce.
    """
    _check_params(key, counter, nonce)
    return _core(_CONSTANTS + struct.unpack("<8L", key) + (counter,) + struct.unpack("<3L", nonce))


def _check_block_span(counter: int, n_blocks: int) -> None:
    """Reject keystream spans that would wrap the 32-bit block counter.

    RFC 8439 gives ChaCha20 a 32-bit counter; a span crossing 2**32 would
    silently wrap to block 0 and *reuse keystream* -- for this AEAD that
    means the Poly1305 one-time key XORed into late ciphertext, a
    catastrophic confidentiality break.  Every keystream producer (scalar
    and vectorized) must reject the span instead.
    """
    if n_blocks and counter + n_blocks - 1 > _MASK32:
        raise ValueError(
            f"ChaCha20 block counter overflow: counter {counter} + "
            f"{n_blocks} blocks crosses 2**32; keystream would repeat"
        )


def chacha20_blocks(key: bytes, counter: int, nonce: bytes, n_blocks: int) -> bytes:
    """Concatenated keystream blocks ``counter .. counter + n_blocks - 1``.

    The shared head/tail of the state tuple is built once; only the
    counter word changes per block.
    """
    _check_params(key, counter, nonce)
    _check_block_span(counter, n_blocks)
    head = _CONSTANTS + struct.unpack("<8L", key)
    tail = struct.unpack("<3L", nonce)
    return b"".join(_core(head + (counter + i,) + tail) for i in range(n_blocks))


def chacha20_encrypt(key: bytes, counter: int, nonce: bytes, plaintext) -> bytes:
    """Encrypt (or decrypt) ``plaintext`` with the ChaCha20 keystream.

    The cipher is its own inverse: encrypting the ciphertext again with
    the same key, counter and nonce decrypts it.
    """
    n = len(plaintext)
    keystream = chacha20_blocks(key, counter, nonce, (n + 63) // 64)
    x = int.from_bytes(plaintext, "little") ^ int.from_bytes(keystream[:n], "little")
    return x.to_bytes(n, "little")
