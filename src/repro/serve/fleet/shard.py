"""User-partitioned snapshot shards: one enclave per partition.

A shard's serving enclave holds only *its* partition's user-embedding
rows (plus the item side, which every shard needs to score against and
therefore replicates).  That is what makes per-shard EPC accounting
honest: the aggregate catalog can exceed any single enclave's EPC share
while each shard's resident set stays under its own cap.

The host fabric speaks **global** user ids throughout -- routing,
queueing and reports never learn about the shard-local row layout.  The
global -> local translation happens *inside* the enclave, against the
owned-user table shipped alongside the shard snapshot at load time:

- :func:`build_shard_payload` slices the fleet's parameter arrays down
  to one partition and returns the encoded ``RXS1`` wire bytes (plus
  sanitized metadata), so shared callers handle only encoded payloads,
  never plaintext snapshots;
- :class:`ShardEnclaveApp` extends
  :class:`~repro.serve.endpoint.ServeEnclaveApp` with the owned-user
  table, held as two parallel int arrays (owned global ids in ascending
  order, the local row of each): loads remap exclusion ratings through
  one ``searchsorted``, and ``ecall_serve`` translates each batch of
  query ids the same way.  A query for a user the shard does not own is
  answered with the empty sentinel (-1 ids) and counted as a routing
  error (``serve.fleet.routing_errors``) -- a correct router never
  produces one, and the fleet acceptance test pins that at zero.  The
  table is resident in the enclave, so its 16 B per owned user are
  charged to the shard's EPC working set (``serve.shard_index``); a
  shard that owns every user in id order translates by identity and
  stores no table, which is what lets a 1-shard fleet price like a
  single endpoint bit for bit.

Trusted module: partitioning slices plaintext model parameters, and the
shard endpoint owns a plaintext snapshot and raw-rating exclusion index.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.net.serialization import decode_triplets
from repro.serve.endpoint import ServeEnclaveApp
from repro.serve.snapshot import (
    ModelSnapshot,
    encode_snapshot,
    snapshot_from_arrays,
)
from repro.tee.enclave import ecall

__all__ = ["ShardEnclaveApp", "build_shard_payload", "encode_shard_users"]


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


def _to_local(owned_ids: Optional[np.ndarray], owned_rows: np.ndarray, users) -> np.ndarray:
    """Local row per global id; -1 for every id the table does not own."""
    try:
        ids = np.asarray(users, dtype=np.int64).reshape(-1)
    except OverflowError:  # an id no int64 holds is no shard's user
        ids = np.array([u if abs(u) < 2**63 else -1 for u in map(int, users)], dtype=np.int64)
    if owned_ids is None:
        return np.where((ids >= 0) & (ids < len(owned_rows)), ids, -1)
    at = np.searchsorted(owned_ids, ids)
    at[at == len(owned_ids)] = 0
    return np.where(owned_ids[at] == ids, owned_rows[at], -1)


class ShardEnclaveApp(ServeEnclaveApp):
    """A shard's serving enclave: global ids at the boundary, local rows inside."""

    #: The owned-user table: owned global ids in ascending order and the
    #: local snapshot row of each.  ``None`` when global id == local row
    #: (a shard that owns every user, in id order): an identity map is
    #: not stored.  Before the first load the shard owns nobody.
    _owned_ids: Optional[np.ndarray] = None
    _owned_rows: np.ndarray = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Load-time remapping
    # ------------------------------------------------------------------ #
    def _install_snapshot(self, snapshot: ModelSnapshot, args: dict) -> None:
        raw = args.get("shard_users")
        if raw is None:
            raise ValueError("shard load requires the owned-user table")
        owned = np.frombuffer(bytes(raw), dtype="<i8").astype(np.int64)
        if len(owned) != snapshot.n_users:
            raise ValueError("owned-user table does not match the shard snapshot")
        rows = np.argsort(owned, kind="stable")
        ids = owned[rows]
        if len(ids) and ids[0] < 0:
            raise ValueError("owned-user table ids out of range")
        if np.any(ids[1:] == ids[:-1]):
            raise ValueError("owned-user table contains duplicates")
        identity = np.array_equal(owned, np.arange(len(owned)))
        table = (None if identity else ids), rows
        ratings = args.get("ratings")
        if ratings is not None:
            # Exclusion ratings arrive with global user ids; keep only
            # owned users' rows and remap them to local snapshot rows.
            data = decode_triplets(bytes(ratings))
            local = _to_local(*table, data.users)
            mask = local >= 0
            self.serving.install(
                snapshot, local[mask], np.asarray(data.items)[mask]
            )
        else:
            self.serving.install(snapshot)
        # Only once the install is accepted: a refused rollback keeps
        # serving the installed snapshot under its own table.
        self._owned_ids, self._owned_rows = table

    # ------------------------------------------------------------------ #
    # Serving with translation
    # ------------------------------------------------------------------ #
    @ecall
    def ecall_serve(self, users: list, k: int) -> dict:
        """Serve one batch of *global* user ids; unowned ids get -1 lists.

        An unowned id translates to local row -1, which the engine
        answers with the empty sentinel row and counts in
        ``stats["unowned"]`` -- still an answered request, so batch
        pricing charges per-request overhead uniformly.
        """
        reply = super().ecall_serve(
            _to_local(self._owned_ids, self._owned_rows, users).tolist(), k
        )
        unowned = reply["stats"]["unowned"]
        if unowned:
            self.ctx.metrics.counter("serve.fleet.routing_errors").inc(unowned)
        return reply

    def _account(self) -> None:
        super()._account()
        # The owned-user table lives in-enclave too: two 8-byte words
        # per entry (global id + local row); an identity map stores none.
        table = self._owned_ids
        self.ctx.memory.set("serve.shard_index", 16 * len(table) if table is not None else 0)
