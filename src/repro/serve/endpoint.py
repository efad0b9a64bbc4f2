"""Enclave-resident serving engine and the one serving enclave.

:class:`ServingState` is the in-enclave query engine: it owns the
installed :class:`~repro.serve.snapshot.ModelSnapshot`, the per-user
exclusion index derived from the node's raw ratings, both serving
caches and the snapshot-version rule, which is not a switch (a host
that could turn it off could roll the replica back).  Every serving
enclave is a thin shell over it.

:class:`ServeEnclaveApp` is the one trusted app a host boots to serve,
from the hand-built example endpoint to every replica of every shard
(one code identity, one measurement).  Encoded snapshot, owned-user
table and rating payloads flow *in* through ``ecall_load``; the host
speaks global user ids, which the enclave translates to snapshot rows
against that table; only recommendation lists (item ids and predicted
scores -- the system's sanctioned output) and sanitized batch
statistics flow back out.  A queried id the table does not own gets the
empty sentinel list and is counted in ``serve.unowned`` -- in a fleet,
that is a misrouted request.  The whole working set, table included,
is charged to the one ``"serve"`` EPC label.

Trusted module: everything here handles plaintext model parameters and
the raw rating index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.net.serialization import decode_triplets
from repro.obs import MetricsRegistry
from repro.serve.cache import HotEmbeddingCache, TopNCache
from repro.serve.scoring import batched_top_k, exclusion_index
from repro.serve.snapshot import ModelSnapshot, decode_snapshot
from repro.tee.enclave import TrustedApp, ecall
from repro.tee.errors import SnapshotReplayError

__all__ = ["BatchStats", "ServingState", "ServeEnclaveApp"]

#: Cache sizes: enough to absorb a Zipf head without letting the pinned
#: hot set dominate the EPC working-set accounting.
DEFAULT_TOPN_CAPACITY = 4096
HOT_CAPACITY = 512


def _ids_within(ids: np.ndarray, bound: int) -> bool:
    """Whether every id lies in ``[0, bound)``."""
    ids = np.asarray(ids)
    return len(ids) == 0 or (ids.min() >= 0 and ids.max() < bound)


@dataclass
class BatchStats:
    """Sanitized work counts for one served batch (safe to export)."""

    requests: int = 0
    #: Queried ids that are not a user row of the installed snapshot
    #: (answered with the empty sentinel row, never looked up or scored).
    unowned: int = 0
    cache_hits: int = 0
    scored_users: int = 0
    scored_pairs: int = 0
    touched_bytes: int = 0

    def to_dict(self) -> dict:
        # A flat literal, not ``dataclasses.asdict``: this runs once per
        # served batch and asdict's recursive deep copy costs ~30x more.
        return {
            "requests": self.requests,
            "unowned": self.unowned,
            "cache_hits": self.cache_hits,
            "scored_users": self.scored_users,
            "scored_pairs": self.scored_pairs,
            "touched_bytes": self.touched_bytes,
        }


class ServingState:
    """The in-enclave query engine: snapshot + exclusions + caches."""

    def __init__(
        self,
        *,
        metrics: Optional[MetricsRegistry] = None,
        topn_capacity: int = DEFAULT_TOPN_CAPACITY,
    ):
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics = metrics
        self.snapshot: Optional[ModelSnapshot] = None
        self.exclusions: Dict[int, np.ndarray] = {}
        self._exclusion_bytes = 0
        self.topn = TopNCache(topn_capacity, metrics=metrics)
        self.hot = HotEmbeddingCache(HOT_CAPACITY, metrics=metrics)
        self._request_counter = metrics.counter("serve.requests")
        self._batch_counter = metrics.counter("serve.batches")
        self._scored_pair_counter = metrics.counter("serve.scored.pairs")
        self._unowned_counter = metrics.counter("serve.unowned")

    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """The installed snapshot version: the high-water mark (0 = none)."""
        return self.snapshot.version if self.snapshot is not None else 0

    def _refuse_below(self, version: int, floor: int) -> None:
        """The one snapshot-version rule: nothing below ``floor``."""
        if version < floor:
            self._metrics.counter("faults.rejected", kind="replay_snapshot").inc()
            raise SnapshotReplayError("snapshot version is below the installed high-water mark")

    def install(
        self,
        snapshot: ModelSnapshot,
        rated_users: Optional[np.ndarray] = None,
        rated_items: Optional[np.ndarray] = None,
    ) -> None:
        """Install a newer snapshot and rebuild the exclusion index.

        Exclusion ratings come from the host, so every user row must lie
        in ``[0, n_users)`` and every item in ``[0, n_items)`` of the new
        snapshot; anything else is refused before any state changes and
        the installed snapshot keeps serving.  Once the snapshot is
        accepted both caches flush: nothing cached from an earlier
        snapshot can answer a query.
        """
        self._refuse_below(snapshot.version, self.version + 1)
        if rated_users is not None and rated_items is not None:
            if not _ids_within(rated_users, snapshot.n_users):
                raise ValueError("exclusion rating user row outside the snapshot")
            if not _ids_within(rated_items, snapshot.n_items):
                raise ValueError("exclusion rating item outside the snapshot")
            exclusions = exclusion_index(rated_users, rated_items)
        else:
            exclusions = {}
        self.snapshot = snapshot
        self.exclusions = exclusions
        self._exclusion_bytes = sum(a.nbytes for a in exclusions.values())
        self.topn.invalidate()
        self.hot.invalidate()

    @property
    def resident_bytes(self) -> int:
        """EPC working set serving adds: snapshot + index + pinned hot set."""
        if self.snapshot is None:
            return 0
        return (
            self.snapshot.resident_bytes
            + self._exclusion_bytes
            + self.hot.resident_bytes
        )

    # ------------------------------------------------------------------ #
    def serve(self, users: Sequence[int], k: int) -> dict:
        """One ``ecall_serve`` reply, from the installed snapshot."""
        items, scores, stats = self.query_batch(users, k)
        return {
            "items": items.tolist(),
            "scores": scores.tolist(),
            "stats": stats.to_dict(),
        }

    def query_batch(
        self, users: Sequence[int], k: int
    ) -> Tuple[np.ndarray, np.ndarray, BatchStats]:
        """Serve top-``k`` lists for a batch of users, cache-first.

        Returns (items, scores) of shape (B, k) in request order plus the
        batch's work counts.  A result-cache hit skips scoring entirely;
        the remaining *unique* users are scored in one matrix product.

        ``users`` arrives from the host unchecked.  An id outside
        ``[0, n_users)`` keeps the empty sentinel row (-1 items, NaN
        scores) and is counted in ``stats.unowned``: it must never index
        a factor row (a negative id would wrap to another user's
        embedding while the exclusion index misses, leaking that user's
        rated items in the reply) nor enter a cache.
        """
        if self.snapshot is None:
            raise RuntimeError("no snapshot installed")
        snap = self.snapshot
        k = int(k)
        stats = BatchStats(requests=len(users))
        out_items = np.full((len(users), k), -1, dtype=np.int64)
        out_scores = np.full((len(users), k), np.nan, dtype=np.float64)

        misses: list = []
        for row, user in enumerate(users):
            user = int(user)
            if not 0 <= user < snap.n_users:
                stats.unowned += 1
                continue
            cached = self.topn.lookup(user, k)
            if cached is not None:
                out_items[row], out_scores[row] = cached
                stats.cache_hits += 1
            else:
                misses.append((row, user))

        if misses:
            unique_users = sorted({user for _row, user in misses})
            items, scores = batched_top_k(
                snap.user_factors,
                snap.user_bias,
                snap.item_factors,
                snap.item_bias,
                snap.global_mean,
                np.asarray(unique_users, dtype=np.int64),
                k,
                exclusions=self.exclusions,
            )
            by_user = {u: i for i, u in enumerate(unique_users)}
            for row, user in misses:
                idx = by_user[user]
                out_items[row] = items[idx]
                out_scores[row] = scores[idx]
            for user in unique_users:
                idx = by_user[user]
                self.topn.store(user, k, items[idx], scores[idx])
                self.hot.store(user, snap.user_factors[user], float(snap.user_bias[user]))
            stats.scored_users = len(unique_users)
            stats.scored_pairs = len(unique_users) * snap.n_items
            # One scoring pass streams the whole item side once (shared by
            # every user in the batch) plus the touched user rows; this is
            # the byte count the EPC paging model charges.
            row_bytes = snap.user_factors.itemsize * snap.k + snap.user_bias.itemsize
            stats.touched_bytes = (
                snap.item_factors.nbytes
                + snap.item_bias.nbytes
                + len(unique_users) * row_bytes
            )

        self._request_counter.inc(stats.requests)
        self._batch_counter.inc()
        self._scored_pair_counter.inc(stats.scored_pairs)
        self._unowned_counter.inc(stats.unowned)
        return out_items, out_scores, stats


def _to_local(owned_ids: Optional[np.ndarray], owned_rows: np.ndarray, users) -> np.ndarray:
    """Local row per global id; -1 for every id the table does not own."""
    try:
        ids = np.asarray(users, dtype=np.int64).reshape(-1)
    except OverflowError:  # an id no int64 holds is in no table
        ids = np.array([u if abs(u) < 2**63 else -1 for u in map(int, users)], dtype=np.int64)
    if owned_ids is None:
        return np.where((ids >= 0) & (ids < len(owned_rows)), ids, -1)
    at = np.searchsorted(owned_ids, ids)
    at[at == len(owned_ids)] = 0
    return np.where(owned_ids[at] == ids, owned_rows[at], -1)


class ServeEnclaveApp(TrustedApp):
    """A serving enclave: global user ids at the boundary, local rows inside."""

    #: The engine, built by the first load (``None`` before it).
    serving: Optional[ServingState] = None
    #: The owned-user table: owned global ids in ascending order and the
    #: local snapshot row of each.  ``None`` when global id == local row
    #: (the enclave owns every user, in id order): an identity map is
    #: not stored.  Before the first load the enclave owns nobody.
    _owned_ids: Optional[np.ndarray] = None
    _owned_rows: np.ndarray = np.empty(0, dtype=np.int64)

    @ecall
    def ecall_load(self, args: dict) -> dict:
        """Install an encoded snapshot with its owned-user table.

        ``args`` carries only bytes/scalars: the ``RXS1`` snapshot
        payload, the owned-user table (``shard_users``: the global id of
        each snapshot row), optionally the rating triplets of those users
        (global ids, to rebuild the seen-item exclusion index; rows of
        users the table does not own are dropped) and the result-cache
        capacity (read by the first load: the engine, and its version
        mark, outlive reloads).  Returns the sanitized snapshot metadata.
        """
        snapshot = decode_snapshot(bytes(args["snapshot"]))
        raw = args.get("shard_users")
        if raw is None:
            raise ValueError("load requires the owned-user table")
        owned = np.frombuffer(bytes(raw), dtype="<i8").astype(np.int64)
        if len(owned) != snapshot.n_users:
            raise ValueError("owned-user table does not match the snapshot")
        rows = np.argsort(owned, kind="stable")
        ids = owned[rows]
        if len(ids) and ids[0] < 0:
            raise ValueError("owned-user table ids out of range")
        if np.any(ids[1:] == ids[:-1]):
            raise ValueError("owned-user table contains duplicates")
        identity = np.array_equal(owned, np.arange(len(owned)))
        table = (None if identity else ids), rows
        if self.serving is None:
            self.serving = ServingState(
                metrics=self.ctx.metrics,
                topn_capacity=int(args.get("topn_capacity", DEFAULT_TOPN_CAPACITY)),
            )
        ratings = args.get("ratings")
        if ratings is not None:
            data = decode_triplets(bytes(ratings))
            local = _to_local(*table, data.users)
            mask = local >= 0
            self.serving.install(snapshot, local[mask], np.asarray(data.items)[mask])
        else:
            self.serving.install(snapshot)
        # Only once the install is accepted: a refused rollback keeps
        # serving the installed snapshot under its own table.
        self._owned_ids, self._owned_rows = table
        self._account()
        return snapshot.meta().to_dict()

    @ecall
    def ecall_serve(self, users: list, k: int) -> dict:
        """Serve one batch of *global* user ids; unowned ids get -1 lists.

        Only item ids, scores and counts leave.  An unowned id translates
        to local row -1, which the engine answers with the empty sentinel
        row and counts in ``stats["unowned"]`` -- still an answered
        request, so batch pricing charges per-request overhead uniformly.
        """
        if self.serving is None:
            raise ValueError("no snapshot loaded; call ecall_load")
        reply = self.serving.serve(
            _to_local(self._owned_ids, self._owned_rows, users).tolist(), k
        )
        self._account()
        return reply

    def _account(self) -> None:
        # The owned-user table lives in-enclave too: two 8-byte words
        # per entry (global id + local row); an identity map stores none.
        table = self._owned_ids
        self.ctx.memory.set(
            "serve", self.serving.resident_bytes + (16 * len(table) if table is not None else 0)
        )
