"""Immutable, versioned model snapshots for serving.

Training mutates the model every epoch; serving must not observe a
half-merged state.  A :class:`ModelSnapshot` is published copy-on-write
from a live :class:`~repro.ml.mf.MatrixFactorization` (or raw fleet
arrays): all parameter arrays are copied once at publication and frozen,
so the trainer can keep stepping while queries score against a stable
version.  Each snapshot carries

- a monotonically increasing **version** (cache invalidation key),
- a **SHA-256 content digest** over the canonical little-endian encoding
  of the parameters (two publications of identical parameters digest
  identically, regardless of version or node),
- **wire-size** accounting (what shipping the snapshot to a serving
  enclave costs, seen-rows-only like the training wire), and
- **resident-size** accounting (the EPC working set serving adds, which
  is what pushes large models into the paging regime of the paper's
  Fig. 7 once user traffic touches the whole item-factor matrix).

This module is enclave-resident (trusted): a snapshot holds plaintext
model parameters.  Only :class:`SnapshotMeta` -- sanitized scalars --
may cross the boundary to the host.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import asdict, dataclass

import numpy as np

from repro.ml.mf import MatrixFactorization, MfState
from repro.net.serialization import (
    CodecError,
    check_mf_state,
    decode_mf_state,
    encode_mf_state_into,
    measure_mf_state,
)

__all__ = [
    "ModelSnapshot",
    "SnapshotMeta",
    "publish_snapshot",
    "snapshot_from_arrays",
    "encode_snapshot",
    "decode_snapshot",
]

#: Serve-snapshot wire magic + fixed header (version, node, epoch words).
_SNAPSHOT_MAGIC = b"RXS1"
_SNAPSHOT_HEADER = struct.Struct("<III")

#: Largest dense parameter tables a host-supplied snapshot may declare.
#: Unseen rows cost nothing on the wire, so without a ceiling a 44-byte
#: payload could have the enclave allocate 2^32 rows.
MAX_RESIDENT_BYTES = 1 << 30


@dataclass(frozen=True)
class SnapshotMeta:
    """Boundary-safe description of a snapshot (no parameters)."""

    version: int
    node_id: int
    epoch: int
    digest: str
    k: int
    n_users: int
    n_items: int
    seen_users: int
    seen_items: int
    wire_bytes: int
    resident_bytes: int

    def to_dict(self) -> dict:
        return asdict(self)


class ModelSnapshot:
    """A frozen, versioned copy of one node's model parameters."""

    __slots__ = (
        "version",
        "node_id",
        "epoch",
        "global_mean",
        "user_factors",
        "item_factors",
        "user_bias",
        "item_bias",
        "user_seen",
        "item_seen",
        "digest",
    )

    def __init__(
        self,
        version: int,
        node_id: int,
        epoch: int,
        global_mean: float,
        user_factors: np.ndarray,
        item_factors: np.ndarray,
        user_bias: np.ndarray,
        item_bias: np.ndarray,
        user_seen: np.ndarray,
        item_seen: np.ndarray,
    ):
        self.version = int(version)
        self.node_id = int(node_id)
        self.epoch = int(epoch)
        # Canonical form: only what the wire preserves is content.  The
        # MF wire ships seen rows and a float32 mean, so unseen rows are
        # zeroed and the mean is rounded here -- a snapshot therefore has
        # the same digest before and after an encode/decode hop.
        self.global_mean = float(np.float32(global_mean))
        # Copy-on-publish: the trainer keeps mutating its live arrays;
        # the snapshot owns frozen copies.
        self.user_factors = np.array(user_factors, copy=True)
        self.item_factors = np.array(item_factors, copy=True)
        self.user_bias = np.array(user_bias, copy=True)
        self.item_bias = np.array(item_bias, copy=True)
        self.user_seen = np.array(user_seen, dtype=bool, copy=True)
        self.item_seen = np.array(item_seen, dtype=bool, copy=True)
        self.user_factors[~self.user_seen] = 0
        self.user_bias[~self.user_seen] = 0
        self.item_factors[~self.item_seen] = 0
        self.item_bias[~self.item_seen] = 0
        for name in (
            "user_factors",
            "item_factors",
            "user_bias",
            "item_bias",
            "user_seen",
            "item_seen",
        ):
            getattr(self, name).setflags(write=False)
        self.digest = self._content_digest()

    # ------------------------------------------------------------------ #
    # Identity and accounting
    # ------------------------------------------------------------------ #
    def _content_digest(self) -> str:
        """SHA-256 over the canonical little-endian parameter encoding.

        Versions and node ids are deliberately excluded: the digest
        identifies *what model* is being served, so two publications of
        the same parameters -- or the same snapshot reloaded in a
        different serving enclave -- digest identically.
        """
        h = hashlib.sha256()
        h.update(b"repro.serve.snapshot/v1")
        h.update(
            struct.pack(
                "<IIId",
                self.user_factors.shape[0],
                self.item_factors.shape[0],
                self.k,
                self.global_mean,
            )
        )
        for arr, dtype in (
            (self.user_factors, "<f8"),
            (self.item_factors, "<f8"),
            (self.user_bias, "<f8"),
            (self.item_bias, "<f8"),
            (self.user_seen, "u1"),
            (self.item_seen, "u1"),
        ):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        return h.hexdigest()

    @property
    def k(self) -> int:
        return int(self.user_factors.shape[1])

    @property
    def n_users(self) -> int:
        return int(self.user_factors.shape[0])

    @property
    def n_items(self) -> int:
        return int(self.item_factors.shape[0])

    @property
    def resident_bytes(self) -> int:
        """In-enclave footprint of the serving parameters and masks."""
        return (
            self.user_factors.nbytes
            + self.item_factors.nbytes
            + self.user_bias.nbytes
            + self.item_bias.nbytes
            + self.user_seen.nbytes
            + self.item_seen.nbytes
        )

    @property
    def wire_bytes(self) -> int:
        """Cost of shipping this snapshot (seen rows only, like training)."""
        float_bytes = 8 if self._wire_dtype() == "<f8" else 4
        return (
            len(_SNAPSHOT_MAGIC)
            + _SNAPSHOT_HEADER.size
            + measure_mf_state(
                int(self.user_seen.sum()),
                int(self.item_seen.sum()),
                self.k,
                float_bytes=float_bytes,
            )
        )

    def _wire_dtype(self) -> str:
        return "<f8" if self.user_factors.dtype == np.float64 else "<f4"

    def _as_state(self) -> MfState:
        return MfState(
            np.asarray(self.user_factors),
            np.asarray(self.item_factors),
            np.asarray(self.user_bias),
            np.asarray(self.item_bias),
            np.asarray(self.user_seen),
            np.asarray(self.item_seen),
            self.global_mean,
        )

    def meta(self) -> SnapshotMeta:
        return SnapshotMeta(
            version=self.version,
            node_id=self.node_id,
            epoch=self.epoch,
            digest=self.digest,
            k=self.k,
            n_users=self.n_users,
            n_items=self.n_items,
            seen_users=int(self.user_seen.sum()),
            seen_items=int(self.item_seen.sum()),
            wire_bytes=self.wire_bytes,
            resident_bytes=self.resident_bytes,
        )


def publish_snapshot(
    model: MatrixFactorization, *, version: int, node_id: int = 0, epoch: int = 0
) -> ModelSnapshot:
    """Publish an immutable snapshot of a live model (copy-on-publish)."""
    return ModelSnapshot(
        version,
        node_id,
        epoch,
        model.global_mean,
        model.user_factors,
        model.item_factors,
        model.user_bias,
        model.item_bias,
        model.user_seen,
        model.item_seen,
    )


def snapshot_from_arrays(
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    user_bias: np.ndarray,
    item_bias: np.ndarray,
    user_seen: np.ndarray,
    item_seen: np.ndarray,
    global_mean: float,
    *,
    version: int,
    node_id: int = 0,
    epoch: int = 0,
) -> ModelSnapshot:
    """Publish a snapshot from raw parameter arrays (fleet-sim hand-off)."""
    return ModelSnapshot(
        version,
        node_id,
        epoch,
        global_mean,
        user_factors,
        item_factors,
        user_bias,
        item_bias,
        user_seen,
        item_seen,
    )


# --------------------------------------------------------------------- #
# Wire codec (hand-off into a serving enclave)
# --------------------------------------------------------------------- #
def encode_snapshot(snapshot: ModelSnapshot) -> bytes:
    """Serve header (version, node, epoch) + the training MF-state wire.

    Assembled in one preallocated buffer: the serve header is packed in
    place and the MF state serialized directly after it via
    :func:`~repro.net.serialization.encode_mf_state_into`, so the (large)
    row blocks of the publish path are written exactly once.
    """
    buf = bytearray(snapshot.wire_bytes)
    view = memoryview(buf)
    view[: len(_SNAPSHOT_MAGIC)] = _SNAPSHOT_MAGIC
    _SNAPSHOT_HEADER.pack_into(
        buf, len(_SNAPSHOT_MAGIC), snapshot.version, snapshot.node_id, snapshot.epoch
    )
    end = encode_mf_state_into(
        snapshot._as_state(),
        buf,
        len(_SNAPSHOT_MAGIC) + _SNAPSHOT_HEADER.size,
        wire_dtype=snapshot._wire_dtype(),
    )
    assert end == len(buf)
    return bytes(buf)


def decode_snapshot(payload: bytes) -> ModelSnapshot:
    """Decode host-supplied ``RXS1`` bytes; :class:`CodecError` if malformed.

    The enclave's load path (once per replica boot) validates before any
    table is built -- a bad payload is never a partial load.
    """
    offset = len(_SNAPSHOT_MAGIC) + _SNAPSHOT_HEADER.size
    if len(payload) < offset or payload[: len(_SNAPSHOT_MAGIC)] != _SNAPSHOT_MAGIC:
        raise CodecError("not a serve-snapshot payload")
    version, node_id, epoch = _SNAPSHOT_HEADER.unpack_from(payload, len(_SNAPSHOT_MAGIC))
    # Zero-copy handoff: the MF decoder reads ids and rows as views of
    # the snapshot wire buffer instead of a sliced copy of its body.
    body = memoryview(payload)[offset:]
    check_mf_state(body, max_dense_bytes=MAX_RESIDENT_BYTES)
    state = decode_mf_state(body)
    return ModelSnapshot(
        version,
        node_id,
        epoch,
        state.global_mean,
        state.user_factors,
        state.item_factors,
        state.user_bias,
        state.item_bias,
        state.user_seen,
        state.item_seen,
    )
