"""Vectorized ChaCha20 keystream generation with NumPy.

The scalar implementation in :mod:`repro.tee.crypto.chacha20` is a direct
RFC transcription, ideal for auditing but slow in pure Python.  REX's
model-sharing baseline pushes hundreds of kilobytes of ciphertext per edge
per epoch, so the AEAD layer uses this batch implementation for large
payloads: all keystream blocks are produced at once by running the 20
ChaCha rounds over the full block batch.

Two structural optimizations keep per-operation NumPy dispatch off the
profile (it dominated the original ``(16, n)``-row formulation):

- **Row grouping.** The state lives in four row groups A/B/C/D (constants,
  key-low, key-high, counter+nonce), each a ``(4, n)`` array, so the four
  independent column quarter-rounds of a round execute as *one* sequence
  of whole-group operations instead of four.  Diagonal rounds reuse the
  same sequence through the classic SIMD lane-rotation trick: each group
  carries 1-3 duplicated rows so its rotated-by-k view is a contiguous
  slice; two bulk row copies per group sync the duplicates per double
  round.
- **In-place arithmetic.** All adds/xors/rotates write into the group
  arrays or two preallocated scratch buffers, so the round loop performs
  no allocations.

Equivalence with the scalar reference is asserted by tests over random
keys, nonces, counters and lengths.
"""

from __future__ import annotations

import struct
import sys

import numpy as np

from repro.tee.crypto.chacha20 import _check_block_span

__all__ = [
    "chacha20_keystream",
    "chacha20_xor",
    "chacha20_seal_xor",
    "chacha20_seal_xor_many",
]

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_NATIVE_LE = sys.byteorder == "little"


def _grouped_rounds(groups: tuple, scratch: tuple) -> None:
    """Run the 20 ChaCha rounds in place on the A/B/C/D row groups."""
    a_rows, b_rows, c_rows, d_rows = groups
    t1, t2 = scratch
    a = a_rows
    b0, b1 = b_rows[0:4], b_rows[1:5]
    c0, c1 = c_rows[0:4], c_rows[2:6]
    d0, d1 = d_rows[0:4], d_rows[3:7]

    def quarter_rounds(va, vb, vc, vd):
        """Four independent quarter-rounds as whole-group operations."""
        va += vb
        np.bitwise_xor(vd, va, out=vd)
        np.left_shift(vd, 16, out=t1)
        np.right_shift(vd, 16, out=t2)
        np.bitwise_or(t1, t2, out=vd)
        vc += vd
        np.bitwise_xor(vb, vc, out=vb)
        np.left_shift(vb, 12, out=t1)
        np.right_shift(vb, 20, out=t2)
        np.bitwise_or(t1, t2, out=vb)
        va += vb
        np.bitwise_xor(vd, va, out=vd)
        np.left_shift(vd, 8, out=t1)
        np.right_shift(vd, 24, out=t2)
        np.bitwise_or(t1, t2, out=vd)
        vc += vd
        np.bitwise_xor(vb, vc, out=vb)
        np.left_shift(vb, 7, out=t1)
        np.right_shift(vb, 25, out=t2)
        np.bitwise_or(t1, t2, out=vb)

    with np.errstate(over="ignore"):
        for _ in range(10):
            quarter_rounds(a, b0, c0, d0)
            # Rotate lanes: sync the duplicate rows so the shifted views
            # b1/c1/d1 see the post-column-round values.
            b_rows[4] = b_rows[0]
            c_rows[4:6] = c_rows[0:2]
            d_rows[4:7] = d_rows[0:3]
            quarter_rounds(a, b1, c1, d1)
            # Rotate back: the canonical rows 0..3 pick up diagonal results.
            b_rows[0] = b_rows[4]
            c_rows[0:2] = c_rows[4:6]
            d_rows[0:3] = d_rows[4:7]


def _keystream_bytes(key: bytes, counter: int, nonce: bytes, n_blocks: int) -> np.ndarray:
    """All keystream blocks for ``counter .. counter+n_blocks-1`` as a flat
    uint8 array of length ``64 * n_blocks`` (block-major, little-endian)."""
    key_words = struct.unpack("<8L", key)
    nonce_words = struct.unpack("<3L", nonce)
    counters = np.arange(counter, counter + n_blocks, dtype=np.uint64).astype(np.uint32)

    a_rows = np.empty((4, n_blocks), dtype=np.uint32)
    b_rows = np.empty((5, n_blocks), dtype=np.uint32)
    c_rows = np.empty((6, n_blocks), dtype=np.uint32)
    d_rows = np.empty((7, n_blocks), dtype=np.uint32)
    for i in range(4):
        a_rows[i] = _CONSTANTS[i]
        b_rows[i] = key_words[i]
        c_rows[i] = key_words[4 + i]
    d_rows[0] = counters
    for i in range(3):
        d_rows[1 + i] = nonce_words[i]

    scratch = (np.empty((4, n_blocks), dtype=np.uint32), np.empty((4, n_blocks), dtype=np.uint32))
    _grouped_rounds((a_rows, b_rows, c_rows, d_rows), scratch)

    out = np.empty((n_blocks, 16), dtype=np.uint32)
    with np.errstate(over="ignore"):
        for i in range(4):
            out[:, i] = a_rows[i]
            out[:, i] += _CONSTANTS[i]
            out[:, 4 + i] = b_rows[i]
            out[:, 4 + i] += key_words[i]
            out[:, 8 + i] = c_rows[i]
            out[:, 8 + i] += key_words[4 + i]
        out[:, 12] = d_rows[0]
        out[:, 12] += counters
        for i in range(3):
            out[:, 13 + i] = d_rows[1 + i]
            out[:, 13 + i] += nonce_words[i]
    if not _NATIVE_LE:
        out = out.astype("<u4")
    return out.reshape(-1).view(np.uint8)


def _check_params(key: bytes, counter: int, nonce: bytes, n_blocks: int) -> None:
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    # Same counter-wrap contract as the scalar reference: a span crossing
    # 2**32 would wrap to block 0 and reuse keystream.
    _check_block_span(counter, n_blocks)


def chacha20_keystream(key: bytes, counter: int, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` bytes of ChaCha20 keystream, all blocks at once."""
    n_blocks = (length + 63) // 64
    _check_params(key, counter, nonce, n_blocks)
    if n_blocks == 0:
        return b""
    return _keystream_bytes(key, counter, nonce, n_blocks)[:length].tobytes()


def chacha20_xor(key: bytes, counter: int, nonce: bytes, data) -> bytes:
    """XOR ``data`` with the keystream (encrypt == decrypt).

    The keystream buffer doubles as the output buffer: the data is XORed
    into it in place, so the only allocation besides the keystream is the
    final immutable ``bytes`` copy.
    """
    n = len(data)
    n_blocks = (n + 63) // 64
    _check_params(key, counter, nonce, n_blocks)
    if n_blocks == 0:
        return b""
    stream = _keystream_bytes(key, counter, nonce, n_blocks)[:n]
    np.bitwise_xor(stream, np.frombuffer(data, dtype=np.uint8), out=stream)
    return stream.tobytes()


def chacha20_seal_xor(key: bytes, nonce: bytes, data) -> tuple:
    """Fused AEAD seal pipeline: one keystream request per seal.

    Generates blocks ``0 .. ceil(len/64)`` in a single batch and returns
    ``(poly_key, xored)`` where ``poly_key`` is the 32-byte Poly1305
    one-time key (block 0, RFC 8439 section 2.6) and ``xored`` is ``data``
    XORed with the payload keystream (blocks 1..).  The unfused path costs
    two keystream generations per seal/open; this costs one.
    """
    n = len(data)
    n_blocks = 1 + (n + 63) // 64
    _check_params(key, 0, nonce, n_blocks)
    stream = _keystream_bytes(key, 0, nonce, n_blocks)
    poly_key = stream[:32].tobytes()
    payload = stream[64 : 64 + n]
    np.bitwise_xor(payload, np.frombuffer(data, dtype=np.uint8), out=payload)
    return poly_key, payload.tobytes()


def _keystream_bytes_many(keys, nonces, blocks: np.ndarray) -> np.ndarray:
    """Concatenated keystreams for ``M`` messages as one lane matrix.

    ``keys``/``nonces`` are length-``M`` sequences; ``blocks[i]`` is the
    number of 64-byte blocks message ``i`` contributes (counters start at
    0 per message).  All ``T = blocks.sum()`` lanes are stacked into one
    state matrix and the 20 grouped rounds run *once* over every lane --
    the per-call NumPy dispatch cost of the rounds loop is paid once per
    epoch instead of once per neighbor.

    Lane layout is an exact ragged concatenation: message ``i`` owns lane
    columns ``starts[i] .. starts[i]+blocks[i]-1``, so mixed message sizes
    waste zero pad lanes (contrast the padded-rectangle layout discussed
    in DESIGN.md).  Returns a flat uint8 array of ``64 * T`` bytes,
    block-major in lane order.
    """
    m = len(keys)
    total = int(blocks.sum())
    starts = np.zeros(m, dtype=np.int64)
    np.cumsum(blocks[:-1], out=starts[1:])
    msg_idx = np.repeat(np.arange(m, dtype=np.int64), blocks)

    # Per-lane init words for rows 4..15 (key / counter / nonce); the
    # constants row group is uniform across lanes, as in the single-
    # message kernel.  ``astype`` normalizes to native order on BE hosts.
    kw = np.frombuffer(b"".join(bytes(k) for k in keys), dtype="<u4")
    kw = kw.astype(np.uint32, copy=False).reshape(m, 8)
    nw = np.frombuffer(b"".join(bytes(v) for v in nonces), dtype="<u4")
    nw = nw.astype(np.uint32, copy=False).reshape(m, 3)
    counters = (np.arange(total, dtype=np.int64) - starts[msg_idx]).astype(np.uint32)

    init = np.empty((12, total), dtype=np.uint32)
    for i in range(8):
        init[i] = kw[msg_idx, i]
    init[8] = counters
    for i in range(3):
        init[9 + i] = nw[msg_idx, i]

    # Working set per lane is ~180 B (state groups + scratch + init +
    # output row); an unchunked 16k-lane matrix (~1 MiB aggregate) spills
    # L2 and the rounds loop drops ~20%.  Processing the lane matrix in
    # fixed-width chunks keeps the hot state resident; chunk width is a
    # measured value (see DESIGN.md), small enough for commodity L2 yet
    # wide enough that per-chunk dispatch overhead stays negligible.
    out = np.empty((total, 16), dtype=np.uint32)
    for lo in range(0, total, _LANE_CHUNK):
        hi = min(lo + _LANE_CHUNK, total)
        _run_lane_chunk(init[:, lo:hi], out[lo:hi])
    if not _NATIVE_LE:
        out = out.astype("<u4")
    return out.reshape(-1).view(np.uint8)


_LANE_CHUNK = 8192  # lanes (64 B blocks) per rounds invocation


def _run_lane_chunk(init: np.ndarray, out: np.ndarray) -> None:
    """Rounds + feed-forward for one slice of the lane matrix.

    ``init`` is the ``(12, n)`` per-lane key/counter/nonce word slice;
    ``out`` the matching ``(n, 16)`` keystream-word destination.
    """
    n = init.shape[1]
    a_rows = np.empty((4, n), dtype=np.uint32)
    b_rows = np.empty((5, n), dtype=np.uint32)
    c_rows = np.empty((6, n), dtype=np.uint32)
    d_rows = np.empty((7, n), dtype=np.uint32)
    for i in range(4):
        a_rows[i] = _CONSTANTS[i]
    b_rows[0:4] = init[0:4]
    c_rows[0:4] = init[4:8]
    d_rows[0:4] = init[8:12]

    scratch = (np.empty((4, n), dtype=np.uint32), np.empty((4, n), dtype=np.uint32))
    _grouped_rounds((a_rows, b_rows, c_rows, d_rows), scratch)

    with np.errstate(over="ignore"):
        for i in range(4):
            out[:, i] = a_rows[i]
            out[:, i] += _CONSTANTS[i]
            out[:, 4 + i] = b_rows[i]
            out[:, 4 + i] += init[i]
            out[:, 8 + i] = c_rows[i]
            out[:, 8 + i] += init[4 + i]
            out[:, 12 + i] = d_rows[i]
            out[:, 12 + i] += init[8 + i]


def chacha20_seal_xor_many(items, outs=None) -> list:
    """Batch form of :func:`chacha20_seal_xor` over many messages.

    ``items`` is a sequence of ``(key, nonce, data)`` triples, one per
    message; every message gets its own block-0 Poly1305 key and payload
    keystream (blocks 1..), exactly as the sequential pipeline would, but
    all lanes run through the rounds in a single kernel invocation.

    Returns a list of ``(poly_key, xored)`` pairs.  With ``outs`` (a
    per-message sequence of writable buffers, ``len(outs[i]) ==
    len(data_i)``) the XORed payload is written directly into the caller's
    buffer -- e.g. the ciphertext span of a preallocated wire frame -- and
    ``xored`` is that buffer; otherwise a fresh ``bytes`` is returned.

    XOR is an involution, so passing ciphertexts decrypts: the pair then
    reads ``(poly_key, plaintext)``.
    """
    m = len(items)
    if m == 0:
        return []
    if outs is not None and len(outs) != m:
        raise ValueError("outs must have one buffer per message")
    keys = []
    nonces = []
    lens = np.empty(m, dtype=np.int64)
    for i, (key, nonce, data) in enumerate(items):
        n = len(data)
        _check_params(key, 0, nonce, 1 + (n + 63) // 64)
        keys.append(key)
        nonces.append(nonce)
        lens[i] = n
    blocks = 1 + (lens + 63) // 64
    stream = _keystream_bytes_many(keys, nonces, blocks)

    results = []
    base = 0
    for i, (_, _, data) in enumerate(items):
        n = int(lens[i])
        poly_key = stream[base : base + 32].tobytes()
        payload = stream[base + 64 : base + 64 + n]
        if outs is None:
            np.bitwise_xor(payload, np.frombuffer(data, dtype=np.uint8), out=payload)
            results.append((poly_key, payload.tobytes()))
        else:
            dest = np.frombuffer(outs[i], dtype=np.uint8)
            if dest.size != n:
                raise ValueError("output buffer size must equal message size")
            np.bitwise_xor(payload, np.frombuffer(data, dtype=np.uint8), out=dest)
            results.append((poly_key, outs[i]))
        base += int(blocks[i]) * 64
    return results
