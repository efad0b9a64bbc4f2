"""The enclave-resident raw-data store with duplicate suppression.

REX nodes keep every raw data item they have produced or received inside
protected memory, appending only *non-duplicate* items on merge
(Algorithm 2 line 16).  Because share-sampling is stateless
(Section III-E), the same triplet can arrive many times; the store
deduplicates in O(log n) per item against a sorted key array -- "new data
items are simply dumped into the local store with no further processing"
beyond this check (Section IV-C).  A merge round is one append, so the
sorted index is rebuilt by one O(n+m) merge per round.

Capacity grows geometrically so appends are amortized O(1), and the store
exposes its byte footprint for the EPC/memory accounting.
"""

from __future__ import annotations


import numpy as np

from repro.data.dataset import RatingsDataset

__all__ = ["DataStore"]


class DataStore:
    """Append-only deduplicated triplet store over a global id space."""

    def __init__(self, n_users: int, n_items: int, *, capacity: int = 1024):
        self.n_users = n_users
        self.n_items = n_items
        self._size = 0
        self._users = np.empty(capacity, dtype=np.int32)
        self._items = np.empty(capacity, dtype=np.int32)
        self._ratings = np.empty(capacity, dtype=np.float32)
        # Sorted (user * n_items + item) keys of the current contents.
        self._sorted_keys = np.empty(0, dtype=np.int64)
        self.duplicates_rejected = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _grow_to(self, needed: int) -> None:
        if needed <= len(self._users):
            return
        # Pure doubling: the capacity (hence ``nbytes``) depends on the size
        # alone, not on how a round's rows were split into appends.
        capacity = max(1, len(self._users))
        while capacity < needed:
            capacity *= 2
        for name in ("_users", "_items", "_ratings"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[: self._size] = old[: self._size]
            setattr(self, name, fresh)

    def _merge_index(self, keys: np.ndarray, positions: np.ndarray) -> None:
        """``np.insert(index, positions, keys)`` as one O(n+m) merge, for
        sorted ``keys`` and their ``searchsorted(index, keys, side="left")``."""
        slots = positions + np.arange(len(keys))
        merged = np.empty(len(self._sorted_keys) + len(keys), dtype=np.int64)
        old = np.ones(len(merged), dtype=bool)
        old[slots] = False
        merged[slots] = keys
        merged[old] = self._sorted_keys
        self._sorted_keys = merged

    def _store_rows(self, users: np.ndarray, items: np.ndarray, ratings: np.ndarray) -> None:
        n_new = len(users)
        self._grow_to(self._size + n_new)
        sl = slice(self._size, self._size + n_new)
        self._users[sl] = users
        self._items[sl] = items
        self._ratings[sl] = ratings
        self._size += n_new

    def append_unique(self, data: RatingsDataset) -> int:
        """Append items not already present; returns how many were new.

        Within the incoming batch, later duplicates of the same pair are
        dropped too (first occurrence wins).
        """
        if (data.n_users, data.n_items) != (self.n_users, self.n_items):
            raise ValueError("dataset id space does not match the store")
        if len(data) == 0:
            return 0
        # One search of the distinct keys gives membership and insertion
        # positions at once.
        distinct, first_idx = np.unique(data.pair_keys(), return_index=True)
        positions = np.searchsorted(self._sorted_keys, distinct)
        fresh = positions == len(self._sorted_keys)
        inside = ~fresh
        fresh[inside] = self._sorted_keys[positions[inside]] != distinct[inside]
        fresh_idx = np.sort(first_idx[fresh])
        self.duplicates_rejected += len(data) - len(fresh_idx)
        if len(fresh_idx) == 0:
            return 0
        self._store_rows(data.users[fresh_idx], data.items[fresh_idx], data.ratings[fresh_idx])
        self._merge_index(distinct[fresh], positions[fresh])
        return len(fresh_idx)

    def append(self, data: RatingsDataset) -> int:
        """Ablation path: append everything, duplicates included.

        The dedup index still records the pairs (so a later
        ``append_unique`` drops them), but repeated items occupy store
        slots -- this is what REX's duplicate check prevents (Algorithm 2
        line 16).
        """
        if (data.n_users, data.n_items) != (self.n_users, self.n_items):
            raise ValueError("dataset id space does not match the store")
        if len(data) == 0:
            return 0
        self._store_rows(data.users, data.items, data.ratings)
        keys = np.sort(data.pair_keys())
        self._merge_index(keys, np.searchsorted(self._sorted_keys, keys))
        return len(data)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def as_dataset(self) -> RatingsDataset:
        """A zero-copy-ish view of the current contents as a dataset."""
        return RatingsDataset(
            self._users[: self._size],
            self._items[: self._size],
            self._ratings[: self._size],
            n_users=self.n_users,
            n_items=self.n_items,
        )

    @property
    def users(self) -> np.ndarray:
        """Raw view of the stored user ids (hot-path accessor)."""
        return self._users[: self._size]

    @property
    def items(self) -> np.ndarray:
        return self._items[: self._size]

    @property
    def ratings(self) -> np.ndarray:
        return self._ratings[: self._size]

    def sample(self, n: int, rng: np.random.Generator) -> RatingsDataset:
        """Stateless random sample for sharing (Section III-E)."""
        return self.as_dataset().sample(n, rng)

    @property
    def nbytes(self) -> int:
        """Allocated footprint (triplet arrays + dedup index)."""
        return (
            self._users.nbytes
            + self._items.nbytes
            + self._ratings.nbytes
            + self._sorted_keys.nbytes
        )
