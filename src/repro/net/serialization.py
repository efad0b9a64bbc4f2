"""Compact binary codecs for everything REX puts on the wire.

The original implementation serializes with Eigen buffers and JSON (only
for attestation); here each payload kind has an explicit little-endian
binary layout built from NumPy buffers -- the mpi4py-style "send the raw
array, not pickles" idiom.  Byte sizes are the quantity the evaluation
measures, so every payload has a ``measure_*`` function returning the exact
encoded size without materializing the buffer (the fleet simulator
accounts for hundreds of gigabytes of model traffic it never needs to
build).  They are the one wire-size rule for these payloads; no dataset
or model class carries a copy of it.

Layouts (all little-endian):

- **Triplets** (a raw-data share): magic ``RXD1`` | u32 count |
  u32 n_users | u32 n_items | count * (i32 user, i32 item, f32 rating).
- **MF model**: magic ``RXM1`` | f32 global_mean | u32 k | u32 n_users |
  u32 n_items | u32 seen_users | u32 seen_items | seen user ids (i32) |
  user rows (k f32 + f32 bias) | seen item ids | item rows.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.data.dataset import RatingsDataset
from repro.ml.mf import MfState

__all__ = [
    "encode_triplets",
    "encode_triplets_into",
    "decode_triplets",
    "measure_triplets",
    "encode_mf_state_into",
    "decode_mf_state",
    "check_mf_state",
    "measure_mf_state",
    "measure_dnn_state",
]

_TRIPLET_MAGIC = b"RXD1"
_MF_MAGIC = b"RXM1"


class CodecError(ValueError):
    """Malformed or mislabelled wire payload."""


# --------------------------------------------------------------------- #
# Triplets
# --------------------------------------------------------------------- #
def measure_triplets(count: int) -> int:
    """Encoded size of a raw-data share with ``count`` triplets."""
    return 16 + 12 * count


def encode_triplets_into(data: RatingsDataset, buf, offset: int = 0) -> int:
    """Write a triplet payload into ``buf`` at ``offset``; returns the end.

    ``buf`` is any writable bytes-like (typically the content span of a
    preallocated plaintext frame, so the payload is serialized exactly
    once and never re-joined).  Sized by :func:`measure_triplets`.
    """
    view = memoryview(buf)
    count = len(data)
    view[offset : offset + 4] = _TRIPLET_MAGIC
    struct.pack_into("<III", view, offset + 4, count, data.n_users, data.n_items)
    # Ratings are bit-cast to i4 so one contiguous (count, 3) i4 buffer
    # holds the whole payload; decode reverses the cast.
    body = np.frombuffer(view, dtype="<i4", count=count * 3, offset=offset + 16)
    body = body.reshape(count, 3)
    body[:, 0] = data.users
    body[:, 1] = data.items
    body[:, 2] = np.ascontiguousarray(data.ratings, dtype="<f4").view("<i4")
    return offset + measure_triplets(count)


def encode_triplets(data: RatingsDataset) -> bytes:
    buf = bytearray(measure_triplets(len(data)))
    end = encode_triplets_into(data, buf)
    assert end == len(buf)
    return bytes(buf)


def decode_triplets(payload: bytes) -> RatingsDataset:
    if len(payload) < 16 or payload[:4] != _TRIPLET_MAGIC:
        raise CodecError("not a triplet payload")
    count, n_users, n_items = struct.unpack_from("<III", payload, 4)
    if len(payload) != measure_triplets(count):
        raise CodecError("triplet payload length does not match its count")
    body = np.frombuffer(payload, dtype="<i4", offset=16).reshape(count, 3)
    try:
        return RatingsDataset(
            body[:, 0].astype(np.int32),
            body[:, 1].astype(np.int32),
            body[:, 2].copy().view("<f4"),
            n_users=n_users,
            n_items=n_items,
        )
    except ValueError:
        raise CodecError("triplet payload ids lie outside its id space") from None


# --------------------------------------------------------------------- #
# MF model
# --------------------------------------------------------------------- #
def measure_mf_state(seen_users: int, seen_items: int, k: int, *, float_bytes: int = 4) -> int:
    """Encoded size of an MF model share: only *seen* rows travel.

    This is what makes model sharing expensive relative to 12-byte
    triplets, and what makes its cost grow as knowledge of the item space
    spreads (paper Section IV-B, Fig. 2).  ``float_bytes`` is 4 for the
    simulator's float32 wire and 8 for the distributed runtime's
    Eigen-style double wire.
    """
    header = 4 + 4 + 5 * 4
    per_row = 4 + (k + 1) * float_bytes  # id + k factors + bias
    return header + (seen_users + seen_items) * per_row


def encode_mf_state_into(state: MfState, buf, offset: int = 0, *, wire_dtype: str = "<f4") -> int:
    """Write an MF model payload into ``buf`` at ``offset``; returns the end.

    Seen rows are gathered straight into views of the destination buffer,
    so the (potentially multi-hundred-kilobyte) row blocks are written
    exactly once -- no intermediate row arrays, no join.  Sized by
    :func:`measure_mf_state`.  ``wire_dtype`` is ``"<f4"`` for the
    float32 simulator wire or ``"<f8"`` for the distributed runtime's
    Eigen-style double wire; the header records which was used (1 bit of
    the k word).
    """
    if wire_dtype not in ("<f4", "<f8"):
        raise CodecError("wire_dtype must be <f4 or <f8")
    float_bytes = 4 if wire_dtype == "<f4" else 8
    user_ids = np.flatnonzero(state.user_seen).astype("<i4")
    item_ids = np.flatnonzero(state.item_seen).astype("<i4")
    k = state.k
    k_word = k | (0x80000000 if float_bytes == 8 else 0)
    view = memoryview(buf)
    view[offset : offset + 4] = _MF_MAGIC
    struct.pack_into(
        "<fIIIII",
        view,
        offset + 4,
        state.global_mean,
        k_word,
        state.user_factors.shape[0],
        state.item_factors.shape[0],
        len(user_ids),
        len(item_ids),
    )
    cursor = offset + 4 + 4 + 5 * 4

    def write_block(ids: np.ndarray, factors, bias, pos: int) -> int:
        id_dest = np.frombuffer(view, dtype="<i4", count=len(ids), offset=pos)
        id_dest[:] = ids
        pos += id_dest.nbytes
        rows = np.frombuffer(view, dtype=wire_dtype, count=len(ids) * (k + 1), offset=pos)
        rows = rows.reshape(len(ids), k + 1)
        rows[:, :k] = factors[ids]
        rows[:, k] = bias[ids]
        return pos + rows.nbytes

    cursor = write_block(user_ids, state.user_factors, state.user_bias, cursor)
    cursor = write_block(item_ids, state.item_factors, state.item_bias, cursor)
    expected = offset + measure_mf_state(len(user_ids), len(item_ids), k, float_bytes=float_bytes)
    assert cursor == expected
    return cursor


def _mf_header(payload) -> tuple:
    """``(global_mean, k, float_bytes, n_users, n_items, seen_users, seen_items)``;
    :class:`CodecError` unless the payload is exactly as long as declared."""
    if len(payload) < 4 + 4 + 5 * 4 or payload[:4] != _MF_MAGIC:
        raise CodecError("not an MF model payload")
    global_mean, k_word, *counts = struct.unpack_from("<fIIIII", payload, 4)
    k, float_bytes = k_word & 0x7FFFFFFF, 8 if (k_word & 0x80000000) else 4
    if len(payload) != measure_mf_state(*counts[2:], k, float_bytes=float_bytes):
        raise CodecError("MF model payload length does not match its header")
    return (global_mean, k, float_bytes, *counts)


def _mf_blocks(payload, k: int, float_bytes: int, seen_counts) -> list:
    """Zero-copy ``[user_ids, user_rows, item_ids, item_rows]`` views."""
    offset = 4 + 4 + 5 * 4
    blocks = []
    for seen in seen_counts:
        ids = np.frombuffer(payload, dtype="<i4", count=seen, offset=offset)
        offset += ids.nbytes
        rows = np.frombuffer(payload, dtype=f"<f{float_bytes}", count=seen * (k + 1), offset=offset)
        offset += rows.nbytes
        blocks += [ids, rows.reshape(seen, k + 1)]
    return blocks


def check_mf_state(payload, *, max_dense_bytes: int) -> None:
    """Reject a malformed MF payload with :class:`CodecError`.

    :func:`decode_mf_state` trusts its input (frames arrive authenticated
    from an attested peer); bytes a *host* supplies pass through this
    first: exact length for the declared counts, dense tables within
    ``max_dense_bytes``, increasing in-range ids, finite values.
    """
    global_mean, k, float_bytes, n_users, n_items, *seen_counts = _mf_header(payload)
    if (n_users + n_items) * ((k + 1) * float_bytes + 1) > max_dense_bytes:
        raise CodecError("MF model payload declares tables above the load limit")
    user_ids, user_rows, item_ids, item_rows = _mf_blocks(payload, k, float_bytes, seen_counts)
    for ids, n in ((user_ids, n_users), (item_ids, n_items)):
        if ids.size and (ids.min() < 0 or ids.max() >= n or (np.diff(ids) <= 0).any()):
            raise CodecError("MF model payload ids are not increasing within range")
    if not all(np.isfinite(part).all() for part in (global_mean, user_rows, item_rows)):
        raise CodecError("MF model payload holds non-finite values")


def decode_mf_state(payload: bytes) -> MfState:
    global_mean, k, float_bytes, n_users, n_items, *seen_counts = _mf_header(payload)
    user_ids, user_rows, item_ids, item_rows = _mf_blocks(payload, k, float_bytes, seen_counts)
    np_dtype = np.float64 if float_bytes == 8 else np.float32

    try:
        user_factors = np.zeros((n_users, k), dtype=np_dtype)
        item_factors = np.zeros((n_items, k), dtype=np_dtype)
        user_bias = np.zeros(n_users, dtype=np_dtype)
        item_bias = np.zeros(n_items, dtype=np_dtype)
        user_seen = np.zeros(n_users, dtype=bool)
        item_seen = np.zeros(n_items, dtype=bool)
        user_factors[user_ids] = user_rows[:, :k]
        user_bias[user_ids] = user_rows[:, k]
        user_seen[user_ids] = True
        item_factors[item_ids] = item_rows[:, :k]
        item_bias[item_ids] = item_rows[:, k]
        item_seen[item_ids] = True
    except (IndexError, ValueError):  # an id past its table, a table too large
        raise CodecError("MF model payload does not fit its declared tables") from None
    return MfState(
        user_factors, item_factors, user_bias, item_bias, user_seen, item_seen, global_mean
    )


# --------------------------------------------------------------------- #
# DNN model (sized, never encoded)
# --------------------------------------------------------------------- #
def measure_dnn_state(seen_users: int, seen_items: int, k: int, mlp_len: int) -> int:
    """Wire size of a DNN model share: a 28-byte header, each seen
    embedding row as an i32 id + ``k`` f32, and the dense f32 MLP vector.

    Only :class:`~repro.sim.dnn_fleet.DnnFleetSim` shares DNN models, and
    it accounts their bytes (Fig. 5(b)) without building them; the
    attested build trains MF only, so there is no DNN encoder or decoder.
    """
    header = 4 + 6 * 4
    per_row = 4 + k * 4
    return header + (seen_users + seen_items) * per_row + mlp_len * 4
