"""The enclave-resident raw-data store with duplicate suppression.

REX nodes keep every raw data item they have produced or received inside
protected memory, appending only *non-duplicate* items on merge
(Algorithm 2 line 16).  Because share-sampling is stateless
(Section III-E), the same triplet can arrive many times; the store
deduplicates in O(log n) per item against a sorted key array -- "new data
items are simply dumped into the local store with no further processing"
beyond this check (Section IV-C).

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
        capacity = max(needed, 2 * len(self._users))
        for name in ("_users", "_items", "_ratings"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[: self._size] = old[: self._size]
            setattr(self, name, fresh)

    def append_unique(self, data: RatingsDataset) -> int:
        """Append items not already present; returns how many were new.

        Within the incoming batch, later duplicates of the same pair are
        dropped too (first occurrence wins).
        """
        if (data.n_users, data.n_items) != (self.n_users, self.n_items):
            raise ValueError("dataset id space does not match the store")
        users, items, ratings = data.users, data.items, data.ratings
        if len(users) == 0:
            return 0
        keys = users.astype(np.int64) * self.n_items + items
        _, first_idx = np.unique(keys, return_index=True)
        batch_mask = np.zeros(len(users), dtype=bool)
        batch_mask[first_idx] = True
        if len(self._sorted_keys):
            pos = np.searchsorted(self._sorted_keys, keys)
            pos = np.clip(pos, 0, len(self._sorted_keys) - 1)
            batch_mask &= self._sorted_keys[pos] != keys
        fresh_idx = np.flatnonzero(batch_mask)
        self.duplicates_rejected += len(users) - len(fresh_idx)
        if len(fresh_idx) == 0:
            return 0
        n_new = len(fresh_idx)
        self._grow_to(self._size + n_new)
        sl = slice(self._size, self._size + n_new)
        self._users[sl] = users[fresh_idx]
        self._items[sl] = items[fresh_idx]
        self._ratings[sl] = ratings[fresh_idx]
        self._size += n_new
        # Merge the (sorted) fresh keys into the sorted index in O(n)
        # instead of re-sorting the whole index.
        fresh_keys = np.sort(keys[fresh_idx])
        positions = np.searchsorted(self._sorted_keys, fresh_keys)
        self._sorted_keys = np.insert(self._sorted_keys, positions, fresh_keys)
        return n_new

    def append(self, data: RatingsDataset) -> int:
        """Ablation path: append everything, duplicates included.

        The dedup index still records the pairs (so ``contains_pair``
        stays correct), but repeated items occupy store slots -- this is
        what REX's duplicate check prevents (Algorithm 2 line 16).
        """
        if (data.n_users, data.n_items) != (self.n_users, self.n_items):
            raise ValueError("dataset id space does not match the store")
        if len(data) == 0:
            return 0
        n_new = len(data)
        self._grow_to(self._size + n_new)
        sl = slice(self._size, self._size + n_new)
        self._users[sl] = data.users
        self._items[sl] = data.items
        self._ratings[sl] = data.ratings
        self._size += n_new
        fresh_keys = np.sort(data.pair_keys())
        positions = np.searchsorted(self._sorted_keys, fresh_keys)
        self._sorted_keys = np.insert(self._sorted_keys, positions, fresh_keys)
        return n_new

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

    def contains_pair(self, user: int, item: int) -> bool:
        key = np.int64(user) * self.n_items + item
        pos = int(np.searchsorted(self._sorted_keys, key))
        return pos < len(self._sorted_keys) and self._sorted_keys[pos] == key

    @property
    def nbytes(self) -> int:
        """Allocated footprint (triplet arrays + dedup index)."""
        return (
            self._users.nbytes
            + self._items.nbytes
            + self._ratings.nbytes
            + self._sorted_keys.nbytes
        )
