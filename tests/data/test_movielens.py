"""Synthetic MovieLens generation against its spec (Table I shape)."""

import numpy as np
import pytest

from repro.data.movielens import (
    MIN_RATINGS_PER_USER,
    MOVIELENS_25M_CAPPED,
    MOVIELENS_LATEST,
    MovieLensSpec,
    generate_movielens,
)
from tests.conftest import TINY_SPEC

HALF_STARS = {0.5 * i for i in range(1, 11)}


@pytest.fixture(scope="module")
def latest():
    return generate_movielens(MOVIELENS_LATEST, seed=42)


class TestSpecValidation:
    def test_table1_latest_preset(self):
        assert MOVIELENS_LATEST.n_ratings == 100_000
        assert MOVIELENS_LATEST.n_items == 9_000
        assert MOVIELENS_LATEST.n_users == 610
        assert MOVIELENS_LATEST.last_updated == 2018

    def test_table1_25m_preset(self):
        assert MOVIELENS_25M_CAPPED.n_ratings == 2_249_739
        assert MOVIELENS_25M_CAPPED.n_items == 28_830
        assert MOVIELENS_25M_CAPPED.n_users == 15_000
        assert MOVIELENS_25M_CAPPED.last_updated == 2019

    def test_too_few_ratings_rejected(self):
        with pytest.raises(ValueError):
            MovieLensSpec("bad", n_ratings=100, n_items=50, n_users=10, last_updated=2020)

    def test_too_many_ratings_rejected(self):
        with pytest.raises(ValueError):
            MovieLensSpec("bad", n_ratings=10_000, n_items=10, n_users=20, last_updated=2020)


class TestGeneratedShape:
    def test_exact_counts(self, latest):
        assert len(latest) == MOVIELENS_LATEST.n_ratings
        assert latest.n_users == MOVIELENS_LATEST.n_users
        assert latest.n_items == MOVIELENS_LATEST.n_items

    def test_ratings_are_half_stars(self, latest):
        assert set(np.unique(latest.ratings).tolist()) <= HALF_STARS

    def test_no_duplicate_pairs(self, latest):
        assert len(np.unique(latest.pair_keys())) == len(latest)

    def test_min_ratings_per_user(self, latest):
        assert latest.user_counts().min() >= MIN_RATINGS_PER_USER

    def test_user_activity_skewed(self, latest):
        counts = latest.user_counts()
        assert counts.max() > 4 * np.median(counts)

    def test_item_popularity_long_tailed(self, latest):
        item_counts = np.bincount(latest.items, minlength=latest.n_items)
        item_counts = np.sort(item_counts)[::-1]
        top_decile = item_counts[: latest.n_items // 10].sum()
        assert top_decile > 0.4 * len(latest)  # head carries a large share

    def test_global_mean_plausible(self, latest):
        assert 3.0 < latest.global_mean() < 4.0

    def test_latent_structure_learnable(self, latest):
        # User bias signal: per-user mean ratings vary much more than
        # they would under an i.i.d. rating assignment.
        sums = np.zeros(latest.n_users)
        np.add.at(sums, latest.users, latest.ratings.astype(np.float64))
        means = sums / latest.user_counts()
        assert means.std() > 0.2


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        a = generate_movielens(TINY_SPEC, seed=3)
        b = generate_movielens(TINY_SPEC, seed=3)
        assert a == b

    def test_different_seed_different_dataset(self):
        a = generate_movielens(TINY_SPEC, seed=3)
        b = generate_movielens(TINY_SPEC, seed=4)
        assert a != b

    def test_different_spec_different_stream(self):
        other = MovieLensSpec("tiny2", TINY_SPEC.n_ratings, TINY_SPEC.n_items,
                              TINY_SPEC.n_users, 2021)
        a = generate_movielens(TINY_SPEC, seed=3)
        b = generate_movielens(other, seed=3)
        assert a != b
