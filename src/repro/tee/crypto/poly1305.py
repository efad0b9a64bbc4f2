"""Poly1305 one-time authenticator (RFC 8439 section 2.5).

Produces the 16-byte tag that makes ChaCha20-Poly1305 an *authenticated*
cipher: any bit-flip in a REX message in transit makes the tag check fail,
which models the integrity guarantee SGX-attested channels provide against
a malicious network or untrusted host relaying the traffic.

Fast-path design
----------------
The straightforward transcription -- one ``(acc + block) * r % P`` per
16-byte block -- is what bounded every secure-channel benchmark, so large
messages take a batched-Horner path instead:

- The message is converted to 130-bit block values ("limbs") in one pass.
- Blocks are split into ``K`` interleaved Horner lanes, all evaluated at
  the precomputed power ``r^K``, so each iteration advances ``K`` blocks.
- Lane state lives in radix-2^26 limb vectors (five uint64 NumPy arrays),
  the multiply by ``r^K`` is a single 5x5 integer matrix product per
  iteration, and modular reduction is deferred: only lazy carry
  propagation happens per step, with the single exact ``% P`` reduction
  at the very end instead of once per block.
- The ``K`` lane results are folded with a vectorized halving tree
  (multiply evens by ``x``, add odds, square ``x``), so the fold costs
  ``O(log K)`` vector operations, not ``K`` big-int multiplications.

The radix-2^26 schoolbook product bound is the classic "donna" argument:
lane limbs stay below 2^27, multiplier limbs below 2^28.4, so each of the
five dot products is below ``5 * 2^27 * 2^28.4 < 2^58`` and never
overflows uint64.  Equivalence with the scalar reference is pinned by the
RFC 8439 vectors and a randomized cross-check in the test suite.
"""

from __future__ import annotations

import hmac

import numpy as np

__all__ = ["poly1305_mac", "poly1305_verify", "poly1305_aead_tag"]

_P = (1 << 130) - 5
_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
_HIBIT = 1 << 128

#: Messages below this many bytes stay on the scalar Horner loop: lane
#: setup (limb extraction, power precompute, fold tree) costs more than
#: it saves under ~10 KiB.
_LANE_THRESHOLD_BYTES = 10240

#: Lane-count planning: at least this many blocks per lane step, lanes a
#: power of two in [_MIN_LANES, _MAX_LANES].
_MIN_STEPS = 2
_MIN_LANES = 32
_MAX_LANES = 4096

#: Below this width the halving tree degrades to a scalar fold.
_FOLD_WIDTH = 16

_M26 = np.uint64((1 << 26) - 1)
_M26_INT = (1 << 26) - 1


def _limbs5(x: int) -> list:
    """Split a value < 2^130 into five 26-bit limbs (little-endian)."""
    return [(x >> (26 * i)) & _M26_INT for i in range(5)]


def _mul_matrix(x: int) -> np.ndarray:
    """(5, 5) uint64 matrix ``M`` such that ``M @ h`` is ``h * x`` in
    radix-2^26 limb form (pre-carry), using the ``2^130 = 5 (mod P)``
    wraparound for the high cross terms."""
    r = _limbs5(x)
    s = [5 * v for v in r]
    m = np.zeros((5, 5), dtype=np.uint64)
    for i in range(5):
        for j in range(5):
            m[i, j] = r[i - j] if j <= i else s[5 + i - j]
    return m


def _carry(d: np.ndarray) -> None:
    """Lazy carry propagation in place on a (5, n) uint64 limb array.

    Brings every limb back under 2^26 (+ epsilon on limb 1), which is all
    the next multiplication needs -- the exact ``% P`` happens once, at
    fold time.
    """
    s26 = np.uint64(26)
    five = np.uint64(5)
    c = d[0] >> s26
    d[0] &= _M26
    d[1] += c
    c = d[1] >> s26
    d[1] &= _M26
    d[2] += c
    c = d[2] >> s26
    d[2] &= _M26
    d[3] += c
    c = d[3] >> s26
    d[3] &= _M26
    d[4] += c
    c = d[4] >> s26
    d[4] &= _M26
    d[0] += c * five
    c = d[0] >> s26
    d[0] &= _M26
    d[1] += c


def _block_limbs(mv: memoryview, nblocks: int) -> np.ndarray:
    """One-pass conversion of ``nblocks`` 16-byte blocks to a (5, nblocks)
    radix-2^26 limb array, with the RFC's 2^128 marker bit set."""
    words = np.frombuffer(mv[: nblocks * 16], dtype="<u8").reshape(nblocks, 2).T
    lo, hi = words[0], words[1]
    out = np.empty((5, nblocks), dtype=np.uint64)
    out[0] = lo & _M26
    out[1] = (lo >> np.uint64(26)) & _M26
    out[2] = ((lo >> np.uint64(52)) | (hi << np.uint64(12))) & _M26
    out[3] = (hi >> np.uint64(14)) & _M26
    out[4] = (hi >> np.uint64(40)) | np.uint64(1 << 24)
    return out


def _fold_int(col: np.ndarray) -> int:
    """Recombine one (5,) limb column into a python int."""
    return (
        int(col[0])
        + (int(col[1]) << 26)
        + (int(col[2]) << 52)
        + (int(col[3]) << 78)
        + (int(col[4]) << 104)
    )


def _eval_lanes(acc: int, r: int, mv: memoryview, nlanes: int, nsteps: int) -> int:
    """Advance the Horner accumulator over ``nlanes * nsteps`` full blocks.

    Lane ``t`` owns blocks ``j * nlanes + t``; every lane is a Horner
    chain at the point ``r^nlanes``, so one vectorized step consumes
    ``nlanes`` blocks.  The incoming accumulator folds into block 0 (its
    coefficient is the highest power, exactly like scalar Horner).
    """
    body = nlanes * nsteps
    limbs = _block_limbs(mv, body)
    if acc:
        limbs[:, 0] += np.array(_limbs5(acc), dtype=np.uint64)
    mul_rk = _mul_matrix(pow(r, nlanes, _P))
    h = limbs[:, :nlanes].copy()
    for j in range(1, nsteps):
        d = mul_rk @ h
        d += limbs[:, j * nlanes : (j + 1) * nlanes]
        _carry(d)
        h = d
    # Halving-tree fold: G = sum_t S_t x^(width-1-t) keeps its shape when
    # evens are multiplied by x, odds added, and x squared.
    x = r
    width = nlanes
    while width > _FOLD_WIDTH:
        t = _mul_matrix(x) @ h[:, 0:width:2]
        t += h[:, 1:width:2]
        _carry(t)
        h = t
        x = (x * x) % _P
        width //= 2
    g = 0
    for t in range(width):
        g = (g * x + _fold_int(h[:, t])) % _P
    return (g * r) % _P


def _plan_lanes(nblocks: int) -> int:
    """Pick the lane count: a power of two with >= _MIN_STEPS blocks per
    lane, clamped to [_MIN_LANES, _MAX_LANES]; 0 means stay scalar."""
    if nblocks < _MIN_LANES * _MIN_STEPS:
        return 0
    lanes = 1 << ((nblocks // _MIN_STEPS).bit_length() - 1)
    return min(lanes, _MAX_LANES)


def _absorb(acc: int, r: int, data, pad: bool) -> int:
    """Absorb ``data`` into the Horner accumulator.

    With ``pad=True`` the final partial block is zero-padded to 16 bytes
    (the AEAD transcript convention, so every block carries the 2^128
    marker); with ``pad=False`` the RFC message convention applies (the
    marker bit sits just past the last byte).
    """
    mv = memoryview(data)
    if mv.ndim != 1 or mv.itemsize != 1:
        mv = mv.cast("B")
    n = len(mv)
    nfull = n // 16
    pos = 0
    if n >= _LANE_THRESHOLD_BYTES:
        remaining = nfull
        while True:
            nlanes = _plan_lanes(remaining)
            if not nlanes:
                break
            nsteps = remaining // nlanes
            acc = _eval_lanes(acc, r, mv[pos:], nlanes, nsteps)
            consumed = nlanes * nsteps
            pos += consumed * 16
            remaining -= consumed
    while pos + 16 <= n:
        acc = ((acc + (int.from_bytes(mv[pos : pos + 16], "little") | _HIBIT)) * r) % _P
        pos += 16
    if pos < n:
        tail = int.from_bytes(mv[pos:], "little")
        tail |= _HIBIT if pad else 1 << (8 * (n - pos))
        acc = ((acc + tail) * r) % _P
    return acc


def _split_key(key: bytes) -> tuple:
    if len(key) != 32:
        raise ValueError("Poly1305 key must be 32 bytes")
    r = int.from_bytes(key[:16], "little") & _CLAMP
    s = int.from_bytes(key[16:], "little")
    return r, s


def _finalize(acc: int, s: int) -> bytes:
    acc = ((acc % _P) + s) & ((1 << 128) - 1)
    return acc.to_bytes(16, "little")


def poly1305_mac(key: bytes, message) -> bytes:
    """Compute the 16-byte Poly1305 tag of ``message`` under a 32-byte key.

    The first 16 key bytes form the (clamped) evaluation point ``r``, the
    second 16 the final pad ``s``; the message is processed in 16-byte
    blocks each with an appended 0x01 byte, as a polynomial over 2^130 - 5.
    """
    r, s = _split_key(key)
    return _finalize(_absorb(0, r, message, pad=False), s)


def poly1305_aead_tag(key: bytes, aad, ciphertext) -> bytes:
    """Tag the RFC 8439 AEAD transcript without materializing it.

    Computes ``Poly1305(aad || pad16 || ciphertext || pad16 || lengths)``
    directly from the three logical segments: the zero padding makes each
    segment block-aligned, so the accumulator simply carries across
    segment boundaries and no padded copy of the (potentially large)
    ciphertext is ever built.  ``aad`` and ``ciphertext`` may be any
    bytes-like object, including memoryviews of the wire buffer.
    """
    r, s = _split_key(key)
    acc = _absorb(0, r, aad, pad=True)
    acc = _absorb(acc, r, ciphertext, pad=True)
    lengths = len(memoryview(aad)).to_bytes(8, "little") + len(
        memoryview(ciphertext)
    ).to_bytes(8, "little")
    acc = _absorb(acc, r, lengths, pad=True)
    return _finalize(acc, s)


def poly1305_verify(key: bytes, message, tag: bytes) -> bool:
    """Constant-time comparison of the expected tag against ``tag``."""
    if len(tag) != 16:
        return False
    return hmac.compare_digest(poly1305_mac(key, message), tag)
