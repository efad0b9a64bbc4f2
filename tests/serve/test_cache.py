"""LRU semantics, invalidation, and obs counters."""

import numpy as np

from repro.obs import MetricsRegistry
from repro.serve.cache import HotEmbeddingCache, LruCache, TopNCache
from repro.serve.endpoint import ServingState
from repro.serve.snapshot import snapshot_from_arrays


def _snapshot(version):
    rng = np.random.default_rng(version)
    return snapshot_from_arrays(
        rng.normal(size=(4, 2)),
        rng.normal(size=(6, 2)),
        np.zeros(4),
        np.zeros(6),
        np.ones(4, dtype=bool),
        np.ones(6, dtype=bool),
        3.5,
        version=version,
    )


def _served_then_reinstalled(metrics):
    """An engine that answered user 1 from snapshot v1, then installed v2."""
    state = ServingState(metrics=metrics)
    state.install(_snapshot(1))
    state.query_batch([1], 3)
    assert state.topn.lookup(user=1, k=3) is not None
    state.install(_snapshot(2))
    return state


class TestLruCache:
    def test_hit_miss_counting(self):
        metrics = MetricsRegistry()
        cache = LruCache(4, name="t", metrics=metrics)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert metrics.value("serve.cache.hits", cache="t") == 1
        assert metrics.value("serve.cache.misses", cache="t") == 1

    def test_capacity_bound_evicts_lru(self):
        metrics = MetricsRegistry()
        cache = LruCache(2, name="t", metrics=metrics)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None and cache.get("a") == 1
        assert metrics.value("serve.cache.evictions", cache="t") == 1 and len(cache) == 2

    def test_zero_capacity_never_stores(self):
        cache = LruCache(0, name="t")
        cache.put("a", 1)
        assert cache.get("a") is None and len(cache) == 0

    def test_invalidate_drops_everything(self):
        metrics = MetricsRegistry()
        cache = LruCache(4, name="t", metrics=metrics)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert metrics.value("serve.cache.invalidations", cache="t") == 1

    def test_metrics_counters_labelled_by_cache(self):
        metrics = MetricsRegistry()
        cache = LruCache(1, name="unit", metrics=metrics)
        cache.get("x")
        cache.put("x", 1)
        cache.get("x")
        cache.put("y", 2)  # evicts x
        assert metrics.value("serve.cache.hits", cache="unit") == 1
        assert metrics.value("serve.cache.misses", cache="unit") == 1
        assert metrics.value("serve.cache.evictions", cache="unit") == 1


class TestTopNCache:
    def test_round_trip(self):
        cache = TopNCache(8)
        items = np.array([3, 1, 4])
        scores = np.array([5.0, 4.5, 4.0])
        cache.store(user=7, k=3, items=items, scores=scores)
        got = cache.lookup(user=7, k=3)
        np.testing.assert_array_equal(got[0], items)
        np.testing.assert_array_equal(got[1], scores)

    def test_k_is_part_of_the_key(self):
        cache = TopNCache(8)
        cache.store(user=7, k=3, items=np.arange(3), scores=np.zeros(3))
        assert cache.lookup(user=7, k=5) is None

    def test_new_version_flushes_stale_results(self):
        metrics = MetricsRegistry()
        state = _served_then_reinstalled(metrics)
        # The install flushes, before any lookup against the new model.
        assert len(state.topn) == 0
        assert metrics.value("serve.cache.invalidations", cache="topn") == 1
        assert state.topn.lookup(user=1, k=3) is None


class TestHotEmbeddingCache:
    def test_resident_bytes_track_entry_count(self):
        cache = HotEmbeddingCache(4)
        row = np.zeros(16, dtype=np.float64)
        assert cache.resident_bytes == 0
        cache.store(user=0, factors=row, bias=0.1)
        cache.store(user=1, factors=row, bias=0.2)
        assert cache.resident_bytes == 2 * (row.nbytes + 8)
        assert cache.lookup(user=1)[1] == 0.2

    def test_version_invalidation(self):
        metrics = MetricsRegistry()
        state = _served_then_reinstalled(metrics)
        assert len(state.hot) == 0 and state.hot.resident_bytes == 0
        assert metrics.value("serve.cache.invalidations", cache="embedding") == 1
