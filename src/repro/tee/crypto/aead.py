"""ChaCha20-Poly1305 AEAD construction (RFC 8439 section 2.8).

This is the secure-channel cipher for REX: once two enclaves have mutually
attested and derived a pairwise key (X25519 + HKDF), every subsequent
message -- raw rating triplets or serialized models -- crosses the
untrusted host and network only as AEAD ciphertext.  The associated data
binds each message to its (sender, receiver, sequence) header so the
untrusted relay cannot splice messages between channels undetected.

Fast-path structure (the seal/open pipeline is fused end to end):

- **One keystream generation per seal/open.**  The Poly1305 one-time key
  is keystream block 0 and the payload keystream starts at block 1, so
  both are requested as a single batch (:func:`~repro.tee.crypto.
  fastchacha.chacha20_seal_xor`) instead of one call for the key block
  and another for the payload.
- **Zero-copy MAC transcript.**  The Poly1305 input ``aad || pad || ct ||
  pad || lengths`` is never materialized: :func:`~repro.tee.crypto.
  poly1305.poly1305_aead_tag` walks the segments (memoryviews of the wire
  buffer) directly, eliminating the pad/join copies per message.
- **One dispatch.**  Every public call asks :func:`_select_path` once
  which kernel runs.  The only knobs are the backend
  (:mod:`~repro.tee.crypto.backend`) and :data:`VECTOR_MIN_BYTES`.

All wire bytes are bit-identical to the unfused construction on every
path; tests pin the RFC vectors and scalar/vector/lanes/native equivalence.
"""

from __future__ import annotations

import hmac

from repro.tee.crypto import backend as _backend
from repro.tee.crypto.chacha20 import chacha20_blocks
from repro.tee.crypto.fastchacha import chacha20_seal_xor, chacha20_seal_xor_many
from repro.tee.crypto.poly1305 import poly1305_aead_tag

__all__ = [
    "AeadError",
    "ChaCha20Poly1305",
    "TAG_LENGTH",
    "NONCE_LENGTH",
    "KEY_LENGTH",
    "VECTOR_MIN_BYTES",
    "open_many",
    "seal_many",
    "seal_many_into",
]

TAG_LENGTH = 16
NONCE_LENGTH = 12
KEY_LENGTH = 32

#: Total plaintext bytes of one public call from which the numpy backend
#: leaves the scalar keystream loop.  Both measured crossovers sit at
#: 256-384 B: scalar/vector 1.00 at 256 B and 1.47 at 384 B for one
#: message, scalar/lanes 0.87 and 1.32 for two (EXPERIMENTS.md, "Crypto
#: throughput").  Not settable: a test that forces a path monkeypatches it.
VECTOR_MIN_BYTES = 384


class AeadError(Exception):
    """Raised when AEAD decryption fails authentication.

    In the REX protocol this maps to "drop the message and distrust the
    channel": a failed tag means the ciphertext was forged, truncated, or
    replayed under the wrong nonce.
    """


def _select_path(messages: int, total_bytes: int) -> str:
    """The one dispatch decision: which kernel serves a public call of
    ``messages`` messages and ``total_bytes`` plaintext bytes in all.

    ========  ========  ===================  ==============================
    native    any       any                  ``native`` (OpenSSL)
    numpy     any       < VECTOR_MIN_BYTES   ``scalar`` (unrolled loop)
    numpy     1         >= VECTOR_MIN_BYTES  ``vector`` (fused NumPy)
    numpy     > 1       >= VECTOR_MIN_BYTES  ``lanes`` (one stacked keystream)
    ========  ========  ===================  ==============================

    Only seals have a lane kernel; :func:`open_many` opens a ``lanes``
    batch message by message on the vector kernel.
    """
    if _backend.aead_backend() == "native":
        return "native"
    if total_bytes < VECTOR_MIN_BYTES:
        return "scalar"
    return "lanes" if messages > 1 else "vector"


def _keystream_xor(path: str, key: bytes, nonce: bytes, data) -> tuple:
    """One fused keystream batch: returns ``(poly_key, data XOR ks)``.

    Block 0 keys Poly1305, blocks 1.. carry the payload (RFC 8439
    sections 2.6/2.8) -- generated together on either numpy kernel.
    """
    if path == "scalar":
        n = len(data)
        stream = chacha20_blocks(key, 0, nonce, 1 + (n + 63) // 64)
        x = int.from_bytes(data, "little") ^ int.from_bytes(stream[64 : 64 + n], "little")
        return stream[:32], x.to_bytes(n, "little")
    return chacha20_seal_xor(key, nonce, data)


def _seal_one(path: str, key: bytes, nonce: bytes, plaintext, aad) -> bytes:
    if path == "native":
        return _backend.native_seal(key, nonce, plaintext, aad)
    poly_key, ciphertext = _keystream_xor(path, key, nonce, plaintext)
    return ciphertext + poly1305_aead_tag(poly_key, aad, ciphertext)


def _open_one(path: str, key: bytes, nonce: bytes, data, aad) -> bytes:
    if path == "native":
        ok, plaintext = _backend.native_open(key, nonce, data, aad)
        if not ok:
            raise AeadError("authentication tag mismatch")
        return plaintext
    view = memoryview(data)
    ciphertext, tag = view[:-TAG_LENGTH], view[-TAG_LENGTH:]
    # The open pipeline mirrors seal: the same single keystream batch
    # yields the Poly1305 key (block 0) and the payload keystream
    # (blocks 1..).  The candidate plaintext never leaves this frame
    # unless the tag verifies.
    poly_key, plaintext = _keystream_xor(path, key, nonce, ciphertext)
    expected = poly1305_aead_tag(poly_key, aad, ciphertext)
    if not hmac.compare_digest(expected, tag):
        raise AeadError("authentication tag mismatch")
    return plaintext


class ChaCha20Poly1305:
    """RFC 8439 AEAD cipher bound to a single 32-byte key.

    Examples
    --------
    >>> cipher = ChaCha20Poly1305(b"k" * 32)
    >>> ct = cipher.encrypt(b"\\x00" * 12, b"hello", b"header")
    >>> cipher.decrypt(b"\\x00" * 12, ct, b"header")
    b'hello'
    """

    def __init__(self, key: bytes):
        if len(key) != KEY_LENGTH:
            raise ValueError(f"key must be {KEY_LENGTH} bytes, got {len(key)}")
        self._key = key

    def encrypt(self, nonce: bytes, plaintext, aad=b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 16-byte tag."""
        if len(nonce) != NONCE_LENGTH:
            raise ValueError(f"nonce must be {NONCE_LENGTH} bytes")
        return _seal_one(_select_path(1, len(plaintext)), self._key, nonce, plaintext, aad)

    def decrypt(self, nonce: bytes, data, aad=b"") -> bytes:
        """Verify the tag and decrypt; raises :class:`AeadError` on failure.

        ``data`` may be any bytes-like object (e.g. a memoryview of the
        framed wire buffer); the ciphertext and tag are consumed as
        zero-copy views.
        """
        if len(nonce) != NONCE_LENGTH:
            raise ValueError(f"nonce must be {NONCE_LENGTH} bytes")
        if len(data) < TAG_LENGTH:
            raise AeadError("ciphertext shorter than the authentication tag")
        return _open_one(_select_path(1, len(data) - TAG_LENGTH), self._key, nonce, data, aad)


def seal_many_into(requests, outs) -> None:
    """Seal a whole batch of messages into caller-provided frames.

    ``requests`` is a sequence of ``(cipher, nonce, plaintext, aad)``
    tuples -- one per message, each with its *own* cipher (channel key) --
    and ``outs[i]`` a writable buffer of exactly ``len(plaintext) +
    TAG_LENGTH`` bytes that receives ``ciphertext || tag`` in place
    (typically the sealed span of a preallocated wire frame, making the
    epoch's frames zero-copy end to end).

    One :func:`_select_path` decision covers the batch.  On ``lanes`` a
    single lane-kernel invocation generates every message's keystream at
    once, then Poly1305 runs per message over the in-frame ciphertext; on
    every other path the chosen kernel seals message by message (OpenSSL's
    fused AEAD is fast enough that cross-message batching cannot beat it).
    All paths produce byte-identical wire output; tests pin it.
    """
    m = len(requests)
    if len(outs) != m:
        raise ValueError("outs must provide one frame per request")
    for (cipher, nonce, plaintext, _), out in zip(requests, outs):
        if len(nonce) != NONCE_LENGTH:
            raise ValueError(f"nonce must be {NONCE_LENGTH} bytes")
        if len(out) != len(plaintext) + TAG_LENGTH:
            raise ValueError("frame must hold ciphertext plus tag exactly")
    if m == 0:
        return

    path = _select_path(m, sum(len(plaintext) for _, _, plaintext, _ in requests))
    if path == "lanes":
        ct_views = [memoryview(out)[: len(pt)] for (_, _, pt, _), out in zip(requests, outs)]
        lanes = [(cipher._key, nonce, pt) for cipher, nonce, pt, _ in requests]
        sealed = chacha20_seal_xor_many(lanes, outs=ct_views)
        for (poly_key, _), (_, _, _, aad), out, ct in zip(sealed, requests, outs, ct_views):
            memoryview(out)[len(ct) :] = poly1305_aead_tag(poly_key, aad, ct)
        return

    for (cipher, nonce, plaintext, aad), out in zip(requests, outs):
        memoryview(out)[:] = _seal_one(path, cipher._key, nonce, plaintext, aad)


def seal_many(requests) -> list:
    """Batch seal returning one ``ciphertext || tag`` bytes per request.

    Same dispatch as :func:`seal_many_into`; use the ``_into`` form when
    the sealed bytes belong inside a larger frame.
    """
    outs = [bytearray(len(pt) + TAG_LENGTH) for _, _, pt, _ in requests]
    seal_many_into(requests, outs)
    return [bytes(out) for out in outs]


def open_many(requests) -> list:
    """Batch verify-and-decrypt; returns one plaintext per request.

    ``requests`` is a sequence of ``(cipher, nonce, data, aad)`` tuples
    (``data`` = ``ciphertext || tag``, any bytes-like).  Messages are
    verified one by one on the kernel :func:`_select_path` chose for the
    batch, and no plaintext is released until every tag has verified: the
    first failure raises :class:`AeadError` naming the message index -- a
    batch is an epoch, and one forged frame poisons the epoch.
    """
    if not requests:
        return []
    for _, nonce, data, _ in requests:
        if len(nonce) != NONCE_LENGTH:
            raise ValueError(f"nonce must be {NONCE_LENGTH} bytes")
        if len(data) < TAG_LENGTH:
            raise AeadError("ciphertext shorter than the authentication tag")

    total = sum(len(data) - TAG_LENGTH for _, _, data, _ in requests)
    path = _select_path(len(requests), total)
    plaintexts = []
    for i, (cipher, nonce, data, aad) in enumerate(requests):
        try:
            plaintexts.append(_open_one(path, cipher._key, nonce, data, aad))
        except AeadError:
            raise AeadError(f"authentication tag mismatch at batch index {i}") from None
    return plaintexts
