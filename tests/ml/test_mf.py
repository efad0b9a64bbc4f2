"""Matrix factorization: training, prediction, masks and merge rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import child_rng
from repro.data.dataset import RatingsDataset
from repro.ml.mf import MatrixFactorization, MfHyperParams, sgd_step
from repro.net.serialization import measure_mf_state


def _model(n_users=12, n_items=30, seed=0, **hp):
    params = MfHyperParams(k=4, **hp) if hp else MfHyperParams(k=4)
    return MatrixFactorization(n_users, n_items, params, seed=seed, global_mean=3.0)


class TestHyperParams:
    def test_paper_defaults(self):
        hp = MfHyperParams()
        assert hp.k == 10
        assert hp.learning_rate == 0.005
        assert hp.regularization == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [{"k": 0}, {"learning_rate": 0.0}, {"batch_size": 0}, {"dtype": "int32"}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MfHyperParams(**kwargs)


class TestTraining:
    def test_training_reduces_error(self, tiny_split):
        train, test = tiny_split.train, tiny_split.test
        model = MatrixFactorization(
            train.n_users, train.n_items, MfHyperParams(),
            seed=0, global_mean=train.global_mean(),
        )
        model.mark_seen(train)
        rng = child_rng(0, "t")
        before = model.evaluate_rmse(test)
        for _ in range(30):
            model.train_epoch(train, rng, batches=len(train) // 64)
        after = model.evaluate_rmse(test)
        assert after < before - 0.03

    def test_fixed_batches_per_epoch(self, tiny_split):
        model = _model(tiny_split.train.n_users, tiny_split.train.n_items)
        rng = child_rng(0, "t")
        samples = model.train_epoch(tiny_split.train, rng)
        assert samples == model.hp.batches_per_epoch * model.hp.batch_size

    def test_empty_data_trains_nothing(self):
        model = _model()
        empty = RatingsDataset.empty(12, 30)
        assert model.train_epoch(empty, child_rng(0, "t")) == 0

    def test_sgd_step_handles_duplicate_indices(self):
        X = np.zeros((3, 2), dtype=np.float32)
        Y = np.zeros((3, 2), dtype=np.float32)
        b = np.zeros(3, dtype=np.float32)
        c = np.zeros(3, dtype=np.float32)
        u = np.array([0, 0, 0])
        i = np.array([1, 1, 1])
        r = np.array([5.0, 5.0, 5.0], dtype=np.float32)
        sgd_step(X, Y, b, c, u, i, r, 3.0, lr=0.1, lam=0.0)
        # Three accumulated bias updates of lr*err each.
        assert b[0] == pytest.approx(3 * 0.1 * 2.0)
        assert c[1] == pytest.approx(3 * 0.1 * 2.0)

    def test_sgd_step_moves_toward_target(self):
        rng = child_rng(1, "x")
        X = rng.normal(0, 0.1, (2, 3)).astype(np.float32)
        Y = rng.normal(0, 0.1, (2, 3)).astype(np.float32)
        b = np.zeros(2, dtype=np.float32)
        c = np.zeros(2, dtype=np.float32)
        u = np.array([0])
        i = np.array([0])
        r = np.array([5.0], dtype=np.float32)
        def err():
            return 5.0 - (3.0 + b[0] + c[0] + X[0] @ Y[0])
        e0 = abs(err())
        for _ in range(50):
            sgd_step(X, Y, b, c, u, i, r, 3.0, lr=0.05, lam=0.0)
        assert abs(err()) < e0 * 0.2

    def test_sgd_step_refuses_non_contiguous_factors(self):
        X = np.zeros((3, 4), dtype=np.float32)[:, ::2]  # a strided view
        Y = np.zeros((3, 2), dtype=np.float32)
        b = np.zeros(3, dtype=np.float32)
        one = np.array([0])
        with pytest.raises(ValueError, match="C-contiguous"):
            sgd_step(X, Y, b, b.copy(), one, one, np.ones(1, np.float32), 3.0, 0.1, 0.0)

    def test_float64_dtype_supported(self):
        model = MatrixFactorization(5, 5, MfHyperParams(k=2, dtype="float64"), seed=0)
        assert model.user_factors.dtype == np.float64
        data = RatingsDataset(np.array([0]), np.array([1]), np.array([4.0], dtype=np.float32),
                              n_users=5, n_items=5)
        model.train_epoch(data, child_rng(0, "t"))
        assert model.user_factors.dtype == np.float64


def _sgd_step_row_scatter(X, Y, b, c, u, i, r, mu, lr, lam):
    """Reference: the row-wise 2-D ``np.add.at`` form, on copies."""
    X, Y, b, c = X.copy(), Y.copy(), b.copy(), c.copy()
    xu = X[u]
    yi = Y[i]
    err = (r - mu - b[u] - c[i] - np.einsum("ij,ij->i", xu, yi)).astype(X.dtype)
    np.add.at(X, u, lr * (err[:, None] * yi - lam * xu))
    np.add.at(Y, i, lr * (err[:, None] * xu - lam * yi))
    np.add.at(b, u, lr * (err - lam * b[u]))
    np.add.at(c, i, lr * (err - lam * c[i]))
    return X, Y, b, c


class TestSgdStepFlatScatter:
    """The flat 1-D scatter is bit-identical to the row scatter."""

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        id_dtype=st.sampled_from([np.int32, np.int64]),
        n_rows=st.integers(1, 9),
        k=st.integers(1, 12),
        batch=st.integers(1, 200),
        one_user=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_row_scatter(self, dtype, id_dtype, n_rows, k, batch, one_user, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 0.3, (n_rows, k)).astype(dtype)
        Y = rng.normal(0, 0.3, (n_rows + 2, k)).astype(dtype)
        b = rng.normal(0, 0.1, n_rows).astype(dtype)
        c = rng.normal(0, 0.1, n_rows + 2).astype(dtype)
        # Few rows and large batches make duplicate-heavy scatters; one_user
        # is the fleet's shape (a one-user node's 64 samples share a row).
        u = np.full(batch, rng.integers(n_rows)) if one_user else rng.integers(0, n_rows, batch)
        u = u.astype(id_dtype)
        i = rng.integers(0, n_rows + 2, batch).astype(id_dtype)
        r = rng.uniform(0.5, 5.0, batch).astype(np.float32)
        expected = _sgd_step_row_scatter(X, Y, b, c, u, i, r, 3.5, 0.05, 0.1)
        sgd_step(X, Y, b, c, u, i, r, 3.5, 0.05, 0.1)
        for got, want in zip((X, Y, b, c), expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestPrediction:
    def test_predictions_clipped_to_rating_range(self):
        model = _model()
        model.user_bias[:] = 100.0
        preds = model.predict(np.array([0, 1]), np.array([0, 1]))
        assert (preds == 5.0).all()

    def test_cold_start_predicts_global_mean(self):
        model = _model()
        model.user_factors[:] = 0
        model.item_factors[:] = 0
        preds = model.predict(np.array([0]), np.array([0]))
        assert preds[0] == pytest.approx(3.0)

    def test_rmse_nan_on_empty(self):
        model = _model()
        assert np.isnan(model.evaluate_rmse(RatingsDataset.empty(12, 30)))


def _wire_bytes(state, float_bytes=4):
    seen_users, seen_items = int(state.user_seen.sum()), int(state.item_seen.sum())
    return measure_mf_state(seen_users, seen_items, state.k, float_bytes=float_bytes)


class TestMasks:
    def test_mark_seen(self):
        model = _model()
        data = RatingsDataset(np.array([1, 2]), np.array([3, 4]),
                              np.array([1.0, 2.0], dtype=np.float32), n_users=12, n_items=30)
        model.mark_seen(data)
        assert model.user_seen[[1, 2]].all()
        assert model.item_seen[[3, 4]].all()
        assert model.user_seen.sum() == 2

    def test_state_wire_bytes_track_seen_rows(self):
        model = _model()
        empty_state = model.state()
        data = RatingsDataset(np.arange(5), np.arange(5),
                              np.ones(5, dtype=np.float32), n_users=12, n_items=30)
        model.mark_seen(data)
        assert _wire_bytes(model.state()) > _wire_bytes(empty_state)

    def test_wire_bytes_double_precision(self):
        model = _model()
        st = model.state()
        assert _wire_bytes(st, float_bytes=8) >= _wire_bytes(st, float_bytes=4)


class TestMergeAverage:
    """RMW merge semantics (Sections III-C1 and III-C2)."""

    def _two_models(self):
        a = _model(seed=1)
        b = _model(seed=2)
        return a, b

    def test_both_seen_rows_averaged(self):
        a, b = self._two_models()
        a.user_seen[0] = b.user_seen[0] = True
        expected = 0.5 * (a.user_factors[0] + b.user_factors[0])
        a.merge_average(b.state())
        np.testing.assert_allclose(a.user_factors[0], expected, rtol=1e-6)

    def test_alien_only_rows_copied(self):
        a, b = self._two_models()
        b.user_seen[1] = True
        alien_row = b.user_factors[1].copy()
        a.merge_average(b.state())
        np.testing.assert_array_equal(a.user_factors[1], alien_row)
        assert a.user_seen[1]

    def test_self_only_rows_kept(self):
        a, b = self._two_models()
        a.user_seen[2] = True
        mine = a.user_factors[2].copy()
        a.merge_average(b.state())
        np.testing.assert_array_equal(a.user_factors[2], mine)

    def test_unseen_rows_untouched(self):
        a, b = self._two_models()
        before = a.item_factors[5].copy()
        a.merge_average(b.state())
        np.testing.assert_array_equal(a.item_factors[5], before)

    def test_seen_becomes_union(self):
        a, b = self._two_models()
        a.user_seen[0] = True
        b.user_seen[1] = True
        a.merge_average(b.state())
        assert a.user_seen[0] and a.user_seen[1]

    def test_biases_merged_with_factors(self):
        a, b = self._two_models()
        a.user_seen[0] = b.user_seen[0] = True
        a.user_bias[0], b.user_bias[0] = 1.0, 3.0
        a.merge_average(b.state())
        assert a.user_bias[0] == pytest.approx(2.0)


class TestMergeWeighted:
    """D-PSGD merge with Metropolis-Hastings weights."""

    def test_weighted_average_with_self(self):
        a = _model(seed=1)
        b = _model(seed=2)
        a.user_seen[0] = b.user_seen[0] = True
        expected = 0.75 * a.user_factors[0] + 0.25 * b.user_factors[0]
        a.merge_weighted([(b.state(), 0.25)], self_weight=0.75)
        np.testing.assert_allclose(a.user_factors[0], expected, rtol=1e-5)

    def test_missing_embedding_rule(self):
        """Rows the node has not seen take the neighbors' (renormalized)
        average -- "we consider only those of its neighbors"."""
        a = _model(seed=1)
        b = _model(seed=2)
        c = _model(seed=3)
        b.user_seen[4] = c.user_seen[4] = True
        expected = 0.5 * (b.user_factors[4] + c.user_factors[4])
        a.merge_weighted([(b.state(), 0.3), (c.state(), 0.3)], self_weight=0.4)
        np.testing.assert_allclose(a.user_factors[4], expected, rtol=1e-5)

    def test_nobody_seen_row_untouched(self):
        a = _model(seed=1)
        b = _model(seed=2)
        before = a.user_factors[6].copy()
        a.merge_weighted([(b.state(), 0.5)], self_weight=0.5)
        np.testing.assert_array_equal(a.user_factors[6], before)

    def test_weights_renormalized_over_present(self):
        a = _model(seed=1)
        b = _model(seed=2)
        c = _model(seed=3)
        a.user_seen[0] = b.user_seen[0] = True  # c has not seen row 0
        expected = (0.5 * a.user_factors[0] + 0.2 * b.user_factors[0]) / 0.7
        a.merge_weighted([(b.state(), 0.2), (c.state(), 0.3)], self_weight=0.5)
        np.testing.assert_allclose(a.user_factors[0], expected, rtol=1e-5)


class TestStateRoundtrip:
    def test_state_is_a_copy(self):
        model = _model()
        state = model.state()
        state.user_factors[:] = 99.0
        assert not (model.user_factors == 99.0).any()

    def test_param_count(self):
        model = _model(n_users=12, n_items=30)
        assert model.param_count == (12 + 30) * (4 + 1)

    def test_resident_bytes_positive(self):
        assert _model().resident_bytes > 0
