"""Batched top-K kernels: exactness against a brute-force argsort oracle.

The satellite property test lives here: :func:`top_k_select` uses an
argpartition fast path with tie repair at the pivot, and hypothesis
checks it bit-for-bit against the obvious full-sort oracle -- including
exclusion masks, K larger than the candidate count, and heavy ties.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.serve.scoring import (
    PAD_ITEM,
    apply_exclusions,
    batched_top_k,
    exclusion_index,
    score_batch,
    top_k_select,
)


def oracle_top_k(scores: np.ndarray, k: int):
    """Full-sort reference: descending score, ascending item id, -inf and
    NaN out."""
    n_rows, _ = scores.shape
    items = np.full((n_rows, k), PAD_ITEM, dtype=np.int64)
    top = np.full((n_rows, k), np.nan, dtype=np.float64)
    for row in range(n_rows):
        ids = np.arange(scores.shape[1])
        order = np.lexsort((ids, -scores[row]))
        out = np.isneginf(scores[row]) | np.isnan(scores[row])
        keep = order[~out[order]][:k]
        items[row, : len(keep)] = keep
        top[row, : len(keep)] = scores[row, keep]
    return items, top


class TestScoreBatch:
    def test_matches_manual_formula(self):
        rng = np.random.default_rng(0)
        uf = rng.normal(size=(6, 3))
        itf = rng.normal(size=(8, 3))
        ub = rng.normal(size=6)
        ib = rng.normal(size=8)
        users = np.array([4, 0, 4])
        scores = score_batch(uf, ub, itf, ib, 3.5, users)
        assert scores.shape == (3, 8) and scores.dtype == np.float64
        for row, user in enumerate(users):
            for item in range(8):
                expected = 3.5 + ub[user] + ib[item] + uf[user] @ itf[item]
                assert scores[row, item] == pytest.approx(expected)

    def test_float32_inputs_upcast(self):
        rng = np.random.default_rng(1)
        scores = score_batch(
            rng.normal(size=(2, 4)).astype(np.float32),
            rng.normal(size=2).astype(np.float32),
            rng.normal(size=(5, 4)).astype(np.float32),
            rng.normal(size=5).astype(np.float32),
            3.5,
            np.array([0, 1]),
        )
        assert scores.dtype == np.float64


class TestExclusionIndex:
    def test_groups_and_dedups_per_user(self):
        users = np.array([2, 0, 2, 2, 0])
        items = np.array([5, 1, 3, 5, 4])
        index = exclusion_index(users, items)
        assert set(index) == {0, 2}
        np.testing.assert_array_equal(index[0], [1, 4])
        np.testing.assert_array_equal(index[2], [3, 5])

    def test_empty_input(self):
        assert exclusion_index(np.array([]), np.array([])) == {}

    def test_apply_masks_to_neg_inf(self):
        scores = np.zeros((2, 4))
        index = {1: np.array([0, 3])}
        apply_exclusions(scores, np.array([0, 1]), index)
        assert np.isneginf(scores[1, [0, 3]]).all()
        assert np.isfinite(scores[0]).all() and np.isfinite(scores[1, [1, 2]]).all()


class TestTopKSelect:
    def test_all_ties_break_by_ascending_id(self):
        items, scores = top_k_select(np.full((2, 6), 1.25), 3)
        np.testing.assert_array_equal(items, [[0, 1, 2], [0, 1, 2]])
        np.testing.assert_array_equal(scores, np.full((2, 3), 1.25))

    def test_pads_when_fewer_eligible_than_k(self):
        row = np.array([[1.0, -np.inf, 2.0, -np.inf]])
        items, scores = top_k_select(row, 3)
        np.testing.assert_array_equal(items[0], [2, 0, PAD_ITEM])
        assert scores[0, 0] == 2.0 and scores[0, 1] == 1.0 and np.isnan(scores[0, 2])

    def test_k_zero_and_k_beyond_width(self):
        row = np.array([[3.0, 1.0]])
        items, scores = top_k_select(row, 0)
        assert items.shape == (1, 0) and scores.shape == (1, 0)
        items, scores = top_k_select(row, 5)
        np.testing.assert_array_equal(items[0], [0, 1, PAD_ITEM, PAD_ITEM, PAD_ITEM])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            top_k_select(np.zeros((1, 3)), -1)

    def test_nan_never_takes_a_slot(self):
        items, scores = top_k_select(np.array([[np.nan, 5.0, 4.0, 3.0]]), 2)
        np.testing.assert_array_equal(items, [[1, 2]])
        np.testing.assert_array_equal(scores, [[5.0, 4.0]])

    def test_nan_is_never_recommended(self):
        row = np.array([[np.nan, 5.0, -np.inf, -np.inf]])
        items, scores = top_k_select(row, 3)
        np.testing.assert_array_equal(items, [[1, PAD_ITEM, PAD_ITEM]])
        assert scores[0, 0] == 5.0 and np.isnan(scores[0, 1:]).all()
        assert np.isnan(row[0, 0])  # the caller's matrix is not modified

    def test_serving_width_mixes_straddling_and_clean_rows(self):
        # Width 2,000 like the serving catalog.  Unseen items score equal,
        # so a tie can straddle the K boundary; other rows have a clean
        # boundary or a tie wholly inside the top K.
        n_items, k = 2_000, 10
        rng = np.random.default_rng(7)
        scores = rng.normal(size=(6, n_items))
        scores[0, 100:400] = 9.0  # more ties than slots: K tied ids
        scores[1, 50:55] = 9.0  # five above, the tie straddles below
        scores[1, 500:700] = 8.0
        scores[2, 10:13] = 9.0  # tie wholly inside the top K
        scores[3, rng.random(n_items) < 0.5] = -np.inf  # excluded half
        scores[4, :] = 3.5  # an untrained user: every item ties
        scores[4, ::7] = -np.inf
        items, top = top_k_select(scores, k)
        assert items.dtype == np.int64 and top.dtype == np.float64
        assert items.shape == top.shape == (6, k)
        np.testing.assert_array_equal(items[0], np.arange(100, 110))
        np.testing.assert_array_equal(items[1], [50, 51, 52, 53, 54, 500, 501, 502, 503, 504])
        assert items[2, :3].tolist() == [10, 11, 12]
        np.testing.assert_array_equal(items[4], [1, 2, 3, 4, 5, 6, 8, 9, 10, 11])
        want_items, want_top = oracle_top_k(scores, k)
        np.testing.assert_array_equal(items, want_items)
        np.testing.assert_array_equal(top, want_top)

    # -- the satellite property test ----------------------------------- #
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n_rows=st.integers(0, 40),
        n_cols=st.integers(1, 70),
        k=st.integers(0, 75),
    )
    def test_matches_brute_force_oracle(self, data, n_rows, n_cols, k):
        # Scores from a small discrete pool force heavy ties; a sprinkle
        # of -inf models excluded items (possibly a whole row), and NaN
        # must behave exactly like an exclusion.
        pool = st.sampled_from([-np.inf, np.nan, -1.5, 0.0, 0.25, 0.25, 1.0, 2.5])
        scores = data.draw(
            arrays(np.float64, (n_rows, n_cols), elements=pool, fill=st.nothing())
        )
        fast_items, fast_scores = top_k_select(scores, k)
        slow_items, slow_scores = oracle_top_k(scores, k)
        np.testing.assert_array_equal(fast_items, slow_items)
        np.testing.assert_array_equal(fast_scores, slow_scores)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), k=st.integers(1, 12))
    def test_batched_top_k_never_recommends_rated(self, seed, k):
        rng = np.random.default_rng(seed)
        n_users, n_items = 6, 10
        uf = rng.normal(size=(n_users, 3))
        itf = rng.normal(size=(n_items, 3))
        ub, ib = rng.normal(size=n_users), rng.normal(size=n_items)
        rated_users = rng.integers(0, n_users, 20)
        rated_items = rng.integers(0, n_items, 20)
        exclusions = exclusion_index(rated_users, rated_items)
        users = np.arange(n_users)
        items, scores = batched_top_k(
            uf, ub, itf, ib, 3.5, users, k, exclusions=exclusions
        )
        for row, user in enumerate(users):
            rated = set(exclusions.get(int(user), np.array([])).tolist())
            recommended = [i for i in items[row].tolist() if i != PAD_ITEM]
            assert not rated.intersection(recommended)
            # padded exactly when eligible candidates run out
            eligible = n_items - len(rated)
            assert len(recommended) == min(k, eligible)


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(3)
        uf = rng.normal(size=(5, 4))
        itf = rng.normal(size=(30, 4))
        ub, ib = rng.normal(size=5), rng.normal(size=30)
        users = np.array([1, 3, 1])
        a = batched_top_k(uf, ub, itf, ib, 3.5, users, 7)
        b = batched_top_k(uf, ub, itf, ib, 3.5, users, 7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestServedListPin:
    """Every served list of the ``serve_single_cold`` benchmark model.

    Users 6,000, items 2,000, ratings 300,000, ``mf_k`` 16, 4 nodes, 3
    epochs, seed 0: node 0's published snapshot with the training
    ratings as exclusions (what ``train_and_load`` ships to its one
    shard), every user scored in batches of 32 at K = 10.  The digest
    was captured before top-K selection was vectorised; a selection
    change that moves any id or score bit fails here.
    """

    DIGEST = "b09ffeb19159aa4b70a6a237b406eec2d3a53fa26206255059dee89f717f9dae"

    def test_every_served_list_is_pinned(self):
        from repro.serve.runner import train_fleet_model
        from repro.serve.snapshot import snapshot_from_arrays

        n_users = 6_000
        sim, split = train_fleet_model(
            seed=0, nodes=4, epochs=3, users=n_users, items=2_000,
            ratings=300_000, mf_k=16,
        )
        snap = snapshot_from_arrays(
            sim.XU[0], sim.YI[0], sim.BU[0], sim.BI[0], sim.SU[0], sim.SI[0],
            sim.global_mean, version=1,
        )
        exclusions = exclusion_index(split.train.users, split.train.items)
        digest = hashlib.sha256()
        for start in range(0, n_users, 32):
            users = np.arange(start, min(start + 32, n_users), dtype=np.int64)
            items, scores = batched_top_k(
                snap.user_factors, snap.user_bias, snap.item_factors,
                snap.item_bias, snap.global_mean, users, 10,
                exclusions=exclusions,
            )
            digest.update(items.tobytes())
            digest.update(scores.tobytes())
        assert digest.hexdigest() == self.DIGEST
