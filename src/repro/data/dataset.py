"""Rating-triplet datasets.

Collaborative-filtering data in REX is a set of ``<user, item, rating>``
triplets (paper Section II-A); a raw data item on the wire is exactly one
such triplet, which is why data sharing is two orders of magnitude cheaper
than model sharing.  :class:`RatingsDataset` stores the triplets as three
parallel NumPy arrays -- the layout both the vectorized trainers and the
binary codec operate on directly, with no per-row Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np

from repro._rng import child_rng

__all__ = ["RatingsDataset", "TrainTestSplit"]

#: Canonical dtypes for the triplet arrays (also the wire precision).
USER_DTYPE = np.int32
ITEM_DTYPE = np.int32
RATING_DTYPE = np.float32


@dataclass(frozen=True)
class TrainTestSplit:
    """A 70/30-style split; test ratings are never trained on."""

    train: "RatingsDataset"
    test: "RatingsDataset"


class RatingsDataset:
    """An immutable collection of (user, item, rating) triplets.

    Parameters
    ----------
    users, items, ratings:
        Parallel arrays; copied and cast to the canonical dtypes.
    n_users, n_items:
        Size of the global id spaces.  Must be passed explicitly so that
        per-node shards keep addressing the full embedding matrices.
    """

    def __init__(
        self,
        users: np.ndarray,
        items: np.ndarray,
        ratings: np.ndarray,
        *,
        n_users: int,
        n_items: int,
    ):
        users = np.ascontiguousarray(users, dtype=USER_DTYPE)
        items = np.ascontiguousarray(items, dtype=ITEM_DTYPE)
        ratings = np.ascontiguousarray(ratings, dtype=RATING_DTYPE)
        if not (len(users) == len(items) == len(ratings)):
            raise ValueError("triplet arrays must have equal length")
        if len(users) and (users.min() < 0 or users.max() >= n_users):
            raise ValueError("user id out of range")
        if len(items) and (items.min() < 0 or items.max() >= n_items):
            raise ValueError("item id out of range")
        self.users = users
        self.items = items
        self.ratings = ratings
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        for arr in (self.users, self.items, self.ratings):
            arr.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.ratings)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RatingsDataset({len(self)} ratings, {self.n_users} users, "
            f"{self.n_items} items)"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatingsDataset):
            return NotImplemented
        return (
            self.n_users == other.n_users
            and self.n_items == other.n_items
            and np.array_equal(self.users, other.users)
            and np.array_equal(self.items, other.items)
            and np.array_equal(self.ratings, other.ratings)
        )

    def iter_triplets(self) -> Iterator[Tuple[int, int, float]]:
        """Python-level iteration; for tests and small data only."""
        for u, i, r in zip(self.users, self.items, self.ratings):
            yield int(u), int(i), float(r)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """In-memory size of the triplet arrays."""
        return self.users.nbytes + self.items.nbytes + self.ratings.nbytes

    @property
    def sparsity(self) -> float:
        """Fraction of the user-item matrix that is *unobserved*."""
        total = self.n_users * self.n_items
        return 1.0 - len(self) / total if total else 1.0

    def distinct_users(self) -> np.ndarray:
        return np.unique(self.users)

    def distinct_items(self) -> np.ndarray:
        return np.unique(self.items)

    def global_mean(self) -> float:
        return float(self.ratings.mean()) if len(self) else 0.0

    def pair_keys(self) -> np.ndarray:
        """Collision-free int64 key per (user, item) pair, for dedup."""
        return self.users.astype(np.int64) * self.n_items + self.items

    # ------------------------------------------------------------------ #
    # Construction / transformation
    # ------------------------------------------------------------------ #
    def take(self, indices: np.ndarray) -> "RatingsDataset":
        """Subset by index array (order preserved)."""
        return RatingsDataset(
            self.users[indices],
            self.items[indices],
            self.ratings[indices],
            n_users=self.n_users,
            n_items=self.n_items,
        )

    def concat(self, other: "RatingsDataset") -> "RatingsDataset":
        if (self.n_users, self.n_items) != (other.n_users, other.n_items):
            raise ValueError("datasets live in different id spaces")
        return RatingsDataset(
            np.concatenate([self.users, other.users]),
            np.concatenate([self.items, other.items]),
            np.concatenate([self.ratings, other.ratings]),
            n_users=self.n_users,
            n_items=self.n_items,
        )

    def sample(self, n: int, rng: np.random.Generator) -> "RatingsDataset":
        """Uniform random sample (with replacement beyond the store size).

        This is REX's stateless share-sampling (paper Section III-E): the
        sample is drawn without replacement when the store is large enough
        but the *procedure* keeps no memory across epochs, so the same
        data points may be re-sent in later epochs.
        """
        if len(self) == 0 or n <= 0:
            return self.take(np.array([], dtype=np.int64))
        replace = n > len(self)
        indices = rng.choice(len(self), size=min(n, len(self)) if not replace else n, replace=replace)
        return self.take(indices)

    def user_counts(self) -> np.ndarray:
        """Number of ratings per user id (length ``n_users``)."""
        return np.bincount(self.users, minlength=self.n_users)

    def by_user(self) -> Dict[int, np.ndarray]:
        """Index arrays grouped by user, computed with one argsort."""
        order = np.argsort(self.users, kind="stable")
        sorted_users = self.users[order]
        boundaries = np.flatnonzero(np.diff(sorted_users)) + 1
        groups = np.split(order, boundaries)
        return {int(sorted_users[g[0]]): g for g in groups if len(g)}

    def split(self, train_fraction: float, *, seed: int = 0) -> TrainTestSplit:
        """Per-user train/test split (the paper's 70/30 protocol).

        Splitting inside each user's profile (rather than globally) ensures
        every user appears in both sets, so per-node test data exists even
        in the one-node-per-user scenario.  Users with a single rating go
        entirely to train.
        """
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = child_rng(seed, "train-test-split")
        train_mask = np.zeros(len(self), dtype=bool)
        for _user, idx in self.by_user().items():
            permuted = idx[rng.permutation(len(idx))]
            n_train = max(1, int(round(train_fraction * len(idx))))
            train_mask[permuted[:n_train]] = True
        return TrainTestSplit(
            train=self.take(np.flatnonzero(train_mask)),
            test=self.take(np.flatnonzero(~train_mask)),
        )

    def restrict_users(self, user_ids: np.ndarray) -> "RatingsDataset":
        """Keep only the ratings of the given users (a node's shard)."""
        mask = np.isin(self.users, user_ids)
        return self.take(np.flatnonzero(mask))

    @classmethod
    def empty(cls, n_users: int, n_items: int) -> "RatingsDataset":
        return cls(
            np.array([], dtype=USER_DTYPE),
            np.array([], dtype=ITEM_DTYPE),
            np.array([], dtype=RATING_DTYPE),
            n_users=n_users,
            n_items=n_items,
        )
