"""User-partitioned snapshot shards: the host side of partitioning.

A shard's serving enclave holds only *its* partition's user-embedding
rows (plus the item side, which every shard needs to score against and
therefore replicates).  That is what makes per-shard EPC accounting
honest: the aggregate catalog can exceed any single enclave's EPC share
while each shard's resident set stays under its own cap.

The host fabric speaks **global** user ids throughout -- routing,
queueing and reports never learn about the shard-local row layout.  The
global -> local translation happens *inside* the one serving enclave,
:class:`~repro.serve.endpoint.ServeEnclaveApp`, against the owned-user
table every load ships alongside the snapshot.  This module builds what
that load carries:

- :func:`build_shard_payload` slices the fleet's parameter arrays down
  to one partition and returns the encoded ``RXS1`` wire bytes (plus
  sanitized metadata), so shared callers handle only encoded payloads,
  never plaintext snapshots;
- :func:`encode_shard_users` is the wire form of the owned-user table.
  A shard that owns every user in id order (the 1-shard fleet) ships
  the identity table, which the enclave recognises and does not store.

Trusted module: partitioning slices plaintext model parameters.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.serve.endpoint import ServeEnclaveApp
from repro.serve.snapshot import encode_snapshot, snapshot_from_arrays

__all__ = ["build_shard_payload", "encode_shard_users"]


def encode_shard_users(shard_users: np.ndarray) -> bytes:
    """Canonical wire form of a shard's owned-user table (little-endian).

    The table is routing metadata (public by construction -- the host
    fabric computed it from the ring), shipped into the enclave so the
    global -> local translation lives behind the boundary.
    """
    return np.ascontiguousarray(shard_users, dtype="<i8").tobytes()


def build_shard_payload(
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    user_bias: np.ndarray,
    item_bias: np.ndarray,
    user_seen: np.ndarray,
    item_seen: np.ndarray,
    global_mean: float,
    shard_users: np.ndarray,
    *,
    version: int,
    shard_id: int,
    epoch: int = 0,
) -> Tuple[bytes, dict]:
    """Slice one partition out of fleet arrays; return (wire, meta dict).

    User-side arrays are sliced to ``shard_users`` rows (local row ``r``
    is global user ``shard_users[r]``); the item side is replicated in
    full.  Only encoded bytes and sanitized metadata leave, so shared
    fleet plumbing can call this without ever holding a snapshot object.
    """
    rows = np.asarray(shard_users, dtype=np.int64)
    snapshot = snapshot_from_arrays(
        np.asarray(user_factors)[rows],
        np.asarray(item_factors),
        np.asarray(user_bias)[rows],
        np.asarray(item_bias),
        np.asarray(user_seen)[rows],
        np.asarray(item_seen),
        global_mean,
        version=version,
        node_id=shard_id,
        epoch=epoch,
    )
    return encode_snapshot(snapshot), snapshot.meta().to_dict()


#: The one serving enclave under the name ``bench/layers.py::TARGETS``
#: still traces (``serve.fleet.shard.ShardEnclaveApp.ecall_serve``); it is
#: kept only so that row resolves, and goes once the row does.
ShardEnclaveApp = ServeEnclaveApp
