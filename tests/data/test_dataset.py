"""RatingsDataset semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import child_rng
from repro.data.dataset import RatingsDataset
from repro.net.serialization import measure_triplets


def _make(users, items, ratings, n_users=10, n_items=20):
    return RatingsDataset(
        np.array(users), np.array(items), np.array(ratings, dtype=np.float32),
        n_users=n_users, n_items=n_items,
    )


@pytest.fixture()
def small():
    return _make([0, 1, 1, 3], [2, 5, 7, 5], [1.0, 2.5, 4.0, 5.0])


class TestConstruction:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            _make([0, 1], [2], [1.0, 2.0])

    def test_user_id_out_of_range(self):
        with pytest.raises(ValueError):
            _make([10], [0], [1.0])

    def test_item_id_out_of_range(self):
        with pytest.raises(ValueError):
            _make([0], [20], [1.0])

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            _make([-1], [0], [1.0])

    def test_arrays_are_read_only(self, small):
        with pytest.raises(ValueError):
            small.users[0] = 5

    def test_empty(self):
        empty = RatingsDataset.empty(10, 20)
        assert len(empty) == 0
        assert empty.sparsity == 1.0

    def test_equality(self, small):
        clone = _make([0, 1, 1, 3], [2, 5, 7, 5], [1.0, 2.5, 4.0, 5.0])
        assert small == clone
        assert small != small.take(np.array([0, 1]))


class TestDerived:
    def test_len_and_wire_bytes(self, small):
        assert len(small) == 4
        assert measure_triplets(len(small)) == 16 + 48  # header + 4 x 12 B triplets

    def test_sparsity(self, small):
        assert small.sparsity == pytest.approx(1 - 4 / 200)

    def test_global_mean(self, small):
        assert small.global_mean() == pytest.approx((1.0 + 2.5 + 4.0 + 5.0) / 4)

    def test_pair_keys_unique_per_pair(self, small):
        keys = small.pair_keys()
        assert len(set(keys.tolist())) == 4
        assert keys[1] != keys[2]  # same user, different item

    def test_user_counts(self, small):
        counts = small.user_counts()
        assert counts[0] == 1 and counts[1] == 2 and counts[2] == 0 and counts[3] == 1

    def test_by_user_groups(self, small):
        groups = small.by_user()
        assert set(groups) == {0, 1, 3}
        assert sorted(groups[1].tolist()) == [1, 2]

    def test_distinct_users_items(self, small):
        assert small.distinct_users().tolist() == [0, 1, 3]
        assert small.distinct_items().tolist() == [2, 5, 7]

    def test_iter_triplets(self, small):
        triplets = list(small.iter_triplets())
        assert triplets[0] == (0, 2, 1.0)
        assert len(triplets) == 4


class TestTransforms:
    def test_take_preserves_order(self, small):
        sub = small.take(np.array([2, 0]))
        assert sub.users.tolist() == [1, 0]

    def test_concat(self, small):
        double = small.concat(small)
        assert len(double) == 8
        assert double.n_users == small.n_users

    def test_concat_id_space_mismatch(self, small):
        other = RatingsDataset.empty(11, 20)
        with pytest.raises(ValueError):
            small.concat(other)

    def test_restrict_users(self, small):
        only_one = small.restrict_users(np.array([1]))
        assert set(only_one.users.tolist()) == {1}
        assert len(only_one) == 2

    def test_sample_without_replacement(self, small):
        rng = child_rng(0, "t")
        sample = small.sample(3, rng)
        assert len(sample) == 3
        assert len(set(sample.pair_keys().tolist())) == 3

    def test_sample_with_replacement_when_oversized(self, small):
        rng = child_rng(0, "t")
        sample = small.sample(10, rng)
        assert len(sample) == 10

    def test_sample_zero(self, small):
        assert len(small.sample(0, child_rng(0, "t"))) == 0


class TestSplit:
    def test_split_fractions(self, tiny_dataset):
        split = tiny_dataset.split(0.7, seed=5)
        assert len(split.train) + len(split.test) == len(tiny_dataset)
        assert 0.6 < len(split.train) / len(tiny_dataset) < 0.8

    def test_split_disjoint(self, tiny_dataset):
        split = tiny_dataset.split(0.7, seed=5)
        train_keys = set(split.train.pair_keys().tolist())
        test_keys = set(split.test.pair_keys().tolist())
        assert not train_keys & test_keys

    def test_every_user_in_train(self, tiny_dataset):
        split = tiny_dataset.split(0.7, seed=5)
        assert set(split.train.distinct_users()) == set(tiny_dataset.distinct_users())

    def test_split_deterministic(self, tiny_dataset):
        a = tiny_dataset.split(0.7, seed=5)
        b = tiny_dataset.split(0.7, seed=5)
        assert a.train == b.train

    def test_split_seed_changes_partition(self, tiny_dataset):
        a = tiny_dataset.split(0.7, seed=5)
        b = tiny_dataset.split(0.7, seed=6)
        assert a.train != b.train

    def test_invalid_fraction(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.split(1.5)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 19)), min_size=1, max_size=50)
)
def test_pair_keys_are_injective(pairs):
    users = np.array([p[0] for p in pairs])
    items = np.array([p[1] for p in pairs])
    ds = _make(users, items, np.ones(len(pairs)))
    keys = ds.pair_keys()
    reconstructed = {(int(k // 20), int(k % 20)) for k in keys}
    assert reconstructed == set(pairs)
