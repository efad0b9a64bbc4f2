"""The deduplicating data store, plus its fleet-side fast twin."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import child_rng
from repro.core.store import DataStore
from repro.data.dataset import RatingsDataset
from repro.sim.fleet import FleetStores


def _triplets(pairs, n_users=10, n_items=20, rating=3.0):
    users = np.array([p[0] for p in pairs], dtype=np.int32)
    items = np.array([p[1] for p in pairs], dtype=np.int32)
    ratings = np.full(len(pairs), rating, dtype=np.float32)
    return RatingsDataset(users, items, ratings, n_users=n_users, n_items=n_items)


class TestAppendUnique:
    def test_fresh_items_appended(self):
        store = DataStore(10, 20)
        assert store.append_unique(_triplets([(0, 1), (2, 3)])) == 2
        assert len(store) == 2

    def test_duplicates_rejected(self):
        store = DataStore(10, 20)
        store.append_unique(_triplets([(0, 1)]))
        assert store.append_unique(_triplets([(0, 1)])) == 0
        assert store.duplicates_rejected == 1
        assert len(store) == 1

    def test_intra_batch_duplicates_collapse(self):
        store = DataStore(10, 20)
        assert store.append_unique(_triplets([(4, 5), (4, 5), (4, 5)])) == 1

    def test_mixed_batch(self):
        store = DataStore(10, 20)
        store.append_unique(_triplets([(0, 1), (2, 3)]))
        added = store.append_unique(_triplets([(2, 3), (4, 5)]))
        assert added == 1
        assert len(store) == 3

    def test_same_user_different_items_kept(self):
        store = DataStore(10, 20)
        assert store.append_unique(_triplets([(0, 1), (0, 2), (0, 3)])) == 3

    def test_empty_append(self):
        store = DataStore(10, 20)
        assert store.append_unique(RatingsDataset.empty(10, 20)) == 0

    def test_id_space_mismatch_rejected(self):
        store = DataStore(10, 20)
        with pytest.raises(ValueError):
            store.append_unique(_triplets([(0, 1)], n_users=11))

    def test_growth_beyond_capacity(self):
        store = DataStore(100, 100, capacity=4)
        pairs = [(i % 100, (i * 7) % 100) for i in range(64)]
        unique = len({p for p in pairs})
        assert store.append_unique(_triplets(pairs, 100, 100)) == unique

    def test_contains_pair(self):
        store = DataStore(10, 20)
        store.append_unique(_triplets([(3, 7)]))
        assert store.contains_pair(3, 7)
        assert not store.contains_pair(3, 8)

    def test_nbytes_grows(self):
        store = DataStore(10, 20, capacity=1)
        before = store.nbytes
        store.append_unique(_triplets([(0, 1), (2, 3), (4, 5)]))
        assert store.nbytes > before


class TestSampling:
    def test_sample_draws_from_contents(self):
        store = DataStore(10, 20)
        store.append_unique(_triplets([(0, 1), (2, 3), (4, 5)]))
        sample = store.sample(2, child_rng(0, "s"))
        assert len(sample) == 2
        for u, i, _r in sample.iter_triplets():
            assert store.contains_pair(u, i)

    def test_sample_more_than_stored_uses_replacement(self):
        store = DataStore(10, 20)
        store.append_unique(_triplets([(0, 1)]))
        assert len(store.sample(5, child_rng(0, "s"))) == 5

    def test_sample_empty_store(self):
        assert len(DataStore(10, 20).sample(3, child_rng(0, "s"))) == 0

    def test_as_dataset_roundtrip(self):
        store = DataStore(10, 20)
        data = _triplets([(0, 1), (2, 3)])
        store.append_unique(data)
        assert store.as_dataset() == data

    def test_raw_views_match_dataset(self):
        store = DataStore(10, 20)
        store.append_unique(_triplets([(0, 1), (2, 3)]))
        np.testing.assert_array_equal(store.users, store.as_dataset().users)
        np.testing.assert_array_equal(store.items, store.as_dataset().items)


class TestFleetStoresEquivalence:
    """FleetStores must behave exactly like per-node DataStores."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 39), min_size=0, max_size=25),
            min_size=2,
            max_size=6,
        )
    )
    def test_append_semantics_match(self, batches):
        pool = RatingsDataset(
            np.arange(40, dtype=np.int32) % 8,
            np.arange(40, dtype=np.int32) % 10,
            np.ones(40, dtype=np.float32),
            n_users=8,
            n_items=10,
        )
        fleet = FleetStores(pool, 1)
        reference: set = set()
        stored = np.empty(0, dtype=np.int64)
        for batch in batches:
            ids = np.array(batch, dtype=np.int64)
            added = fleet.append_unique(0, ids)
            before = len(reference)
            reference |= set(batch)
            assert added == len(reference) - before
            # The stored order is pinned: each batch appends its new ids in
            # ascending pool order, after everything stored before it.
            stored = np.concatenate([stored, np.setdiff1d(np.unique(ids), stored)])
            users, items, ratings = fleet.gather(0, np.arange(fleet.size(0)))
            assert np.array_equal(users, pool.users[stored])
            assert np.array_equal(items, pool.items[stored])
            assert np.array_equal(ratings, pool.ratings[stored])
        assert fleet.size(0) == len(reference)

    def test_gather_returns_pool_rows(self):
        pool = _triplets([(0, 1), (2, 3), (4, 5)])
        fleet = FleetStores(pool, 2)
        fleet.append_unique(1, np.array([2, 0]))
        users, items, _ = fleet.gather(1, np.array([0, 1]))
        assert set(users.tolist()) == {4, 0}
        assert set(items.tolist()) == {5, 1}

    def test_sample_ids_subset_of_store(self):
        pool = _triplets([(i, i) for i in range(10)], 10, 10)
        fleet = FleetStores(pool, 1)
        fleet.append_unique(0, np.arange(4))
        ids = fleet.sample_ids(0, 3, child_rng(0, "f"))
        assert set(ids.tolist()) <= {0, 1, 2, 3}

    def test_exact_size_sample_is_a_permutation(self):
        """A store of exactly ``n`` rows shares every row once, as
        ``RatingsDataset.sample`` (hence ``DataStore.sample``) does."""
        pool = _triplets([(i, i) for i in range(20)], 20, 20)
        fleet = FleetStores(pool, 1)
        fleet.append_unique(0, np.arange(20))
        for seed in range(5):
            ids = fleet.sample_ids(0, 20, child_rng(seed, "f"))
            assert sorted(ids.tolist()) == list(range(20))

    def test_oversample_with_replacement(self):
        pool = _triplets([(1, 1)], 10, 10)
        fleet = FleetStores(pool, 1)
        fleet.append_unique(0, np.array([0]))
        assert len(fleet.sample_ids(0, 7, child_rng(0, "f"))) == 7

    def test_duplicates_counted(self):
        pool = _triplets([(0, 0), (1, 1)], 10, 10)
        fleet = FleetStores(pool, 1)
        fleet.append_unique(0, np.array([0, 0, 1]))
        fleet.append_unique(0, np.array([1]))
        assert fleet.duplicates_rejected == 2

    def test_nbytes_matches_datastore_scale(self):
        """Accounted footprint uses the real store's per-item cost."""
        pool = _triplets([(i % 10, i % 20) for i in range(10)], 10, 20)
        fleet = FleetStores(pool, 1)
        fleet.append_unique(0, np.arange(10))
        per_item = fleet.nbytes(0) / 10
        assert per_item == 20  # 12B triplet + 8B dedup key
