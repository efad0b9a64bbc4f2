"""Serving caches: top-N result LRU and hot-embedding cache.

Recommendation traffic is heavily skewed -- a Zipf workload sends most
queries to a small head of users -- so a bounded per-user result cache
absorbs the bulk of the scoring work.  Two caches, both keyed by the
snapshot **version** so a newly published model invalidates everything
at once:

- :class:`TopNCache` -- (version, user, k) -> finished recommendation
  lists.  A hit skips scoring entirely.
- :class:`HotEmbeddingCache` -- (version, user) -> the user's factor row
  and bias, modelling the EPC-resident hot set the serving enclave keeps
  pinned; its byte footprint feeds the paging model.

Hits, misses and evictions are counted into the obs registry under
``serve.cache.*`` with a ``cache`` label, so reports and benchmarks can
assert the warm-vs-cold latency gap.  Trusted module: cached values are
plaintext recommendations / embeddings.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Tuple

import numpy as np

from repro.obs import MetricsRegistry

__all__ = ["LruCache", "TopNCache", "HotEmbeddingCache"]


class LruCache:
    """Bounded LRU mapping with obs counters; the base of both caches."""

    def __init__(
        self,
        capacity: int,
        *,
        name: str,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self.name = name
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._hit_counter = metrics.counter("serve.cache.hits", cache=name)
        self._miss_counter = metrics.counter("serve.cache.misses", cache=name)
        self._eviction_counter = metrics.counter("serve.cache.evictions", cache=name)
        self._invalidation_counter = metrics.counter("serve.cache.invalidations", cache=name)

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable):
        """Value for ``key`` or ``None``; a hit refreshes recency."""
        entry = self._entries.get(key)
        if entry is None:
            self._miss_counter.inc()
            return None
        self._entries.move_to_end(key)
        self._hit_counter.inc()
        return entry

    def put(self, key: Hashable, value: object) -> None:
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._eviction_counter.inc()

    def invalidate(self) -> int:
        """Drop everything (new snapshot version); returns entries dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        if dropped:
            self._invalidation_counter.inc()
        return dropped

    def __len__(self) -> int:
        return len(self._entries)


class TopNCache(LruCache):
    """(user, k) -> (items, scores) result cache, one snapshot at a time.

    The cache remembers which snapshot version filled it; offering a
    different version flushes every entry before any lookup, so a stale
    model can never answer a query.
    """

    def __init__(self, capacity: int, *, metrics: Optional[MetricsRegistry] = None):
        super().__init__(capacity, name="topn", metrics=metrics)
        self.version: Optional[int] = None

    def _sync_version(self, version: int) -> None:
        if self.version != version:
            self.invalidate()
            self.version = version

    def lookup(
        self, version: int, user: int, k: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        self._sync_version(version)
        return super().get((int(user), int(k)))

    def store(
        self, version: int, user: int, k: int, items: np.ndarray, scores: np.ndarray
    ) -> None:
        self._sync_version(version)
        super().put((int(user), int(k)), (items, scores))


class HotEmbeddingCache(LruCache):
    """(user) -> (factor row, bias) pinned hot set, version-invalidated.

    ``resident_bytes`` is the pinned footprint the serving enclave adds
    on top of the snapshot itself; it grows with the cached user count
    and feeds the EPC paging model.
    """

    def __init__(self, capacity: int, *, metrics: Optional[MetricsRegistry] = None):
        super().__init__(capacity, name="embedding", metrics=metrics)
        self.version: Optional[int] = None
        self._entry_bytes = 0

    def _sync_version(self, version: int) -> None:
        if self.version != version:
            self.invalidate()
            self.version = version

    def lookup(self, version: int, user: int) -> Optional[Tuple[np.ndarray, float]]:
        self._sync_version(version)
        return super().get(int(user))

    def store(self, version: int, user: int, factors: np.ndarray, bias: float) -> None:
        self._sync_version(version)
        self._entry_bytes = int(np.asarray(factors).nbytes) + 8
        super().put(int(user), (factors, float(bias)))

    @property
    def resident_bytes(self) -> int:
        return len(self) * self._entry_bytes
