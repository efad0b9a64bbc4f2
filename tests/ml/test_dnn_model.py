"""The DNN recommender: architecture, training, merging, Adam."""

import numpy as np
import pytest

from repro._rng import child_rng
from repro.data.dataset import RatingsDataset
from repro.ml.dnn.layers import Parameter
from repro.ml.dnn.model import DnnHyperParams, DnnRecommender
from repro.ml.dnn.optim import Adam, Sgd
from repro.net.serialization import measure_dnn_state


def _small_model(seed=0):
    hp = DnnHyperParams(k=4, hidden=(8, 6), batch_size=16, batches_per_epoch=2)
    return DnnRecommender(10, 20, hp, seed=seed)


class TestArchitecture:
    def test_paper_parameter_count(self):
        """610 users + 9,000 items at k=20 with the default hidden sizes
        give exactly the paper's 215,001 parameters."""
        model = DnnRecommender(610, 9000, DnnHyperParams(), seed=0)
        assert model.param_count == 215_001

    def test_mlp_and_embedding_split(self):
        model = DnnRecommender(610, 9000, DnnHyperParams(), seed=0)
        assert model.param_count == model.mlp_param_count + (610 + 9000) * 20

    def test_output_clipped_to_rating_range(self):
        model = _small_model()
        preds = model.predict(np.array([0, 1]), np.array([0, 1]))
        assert ((0.5 <= preds) & (preds <= 5.0)).all()

    def test_final_relu_keeps_output_nonnegative(self):
        model = _small_model()
        raw = model.predict(np.arange(10), np.arange(10), clip=False)
        assert (raw >= 0).all()

    def test_same_seed_identical_weights(self):
        a, b = _small_model(seed=3), _small_model(seed=3)
        np.testing.assert_array_equal(a.mlp_vector(), b.mlp_vector())

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            DnnHyperParams(k=0)
        with pytest.raises(ValueError):
            DnnHyperParams(hidden=())


class TestTraining:
    def test_training_reduces_error(self, tiny_split):
        train, test = tiny_split.train, tiny_split.test
        hp = DnnHyperParams(k=8, hidden=(32, 16), learning_rate=2e-3,
                            batch_size=64, batches_per_epoch=8)
        model = DnnRecommender(train.n_users, train.n_items, hp, seed=0)
        model.mark_seen(train)
        rng = child_rng(0, "t")
        before = model.evaluate_rmse(test)
        for _ in range(25):
            model.train_epoch(train, rng)
        assert model.evaluate_rmse(test) < before - 0.2

    def test_fixed_batch_budget(self, tiny_split):
        model = _small_model()
        # Re-home the model onto the tiny dataset's id space.
        hp = DnnHyperParams(k=4, hidden=(8, 6), batch_size=16, batches_per_epoch=2)
        model = DnnRecommender(tiny_split.train.n_users, tiny_split.train.n_items, hp, seed=0)
        samples = model.train_epoch(tiny_split.train, child_rng(0, "t"))
        assert samples == 32

    def test_empty_data_no_op(self):
        model = _small_model()
        assert model.train_epoch(RatingsDataset.empty(10, 20), child_rng(0, "t")) == 0

    def test_rmse_nan_on_empty(self):
        assert np.isnan(_small_model().evaluate_rmse(RatingsDataset.empty(10, 20)))


class TestStateAndMerge:
    def test_state_roundtrip(self):
        a, b = _small_model(seed=1), _small_model(seed=2)
        b.load_state(a.state())
        np.testing.assert_array_equal(a.mlp_vector(), b.mlp_vector())
        np.testing.assert_array_equal(a.user_embeddings.value, b.user_embeddings.value)

    def test_state_is_a_copy(self):
        model = _small_model()
        state = model.state()
        state.mlp_params[:] = 42.0
        assert not (model.mlp_vector() == 42.0).all()

    def test_merge_average_mlp(self):
        a, b = _small_model(seed=1), _small_model(seed=2)
        expected = 0.5 * (a.mlp_vector() + b.mlp_vector())
        a.merge_average(b.state())
        np.testing.assert_allclose(a.mlp_vector(), expected, rtol=1e-6)

    def test_merge_average_embeddings_masked(self):
        a, b = _small_model(seed=1), _small_model(seed=2)
        b.user_seen[2] = True
        alien = b.user_embeddings.value[2].copy()
        a.merge_average(b.state())
        np.testing.assert_array_equal(a.user_embeddings.value[2], alien)

    def test_merge_weighted_mlp(self):
        a, b = _small_model(seed=1), _small_model(seed=2)
        expected = 0.7 * a.mlp_vector() + 0.3 * b.mlp_vector()
        a.merge_weighted([(b.state(), 0.3)], self_weight=0.7)
        np.testing.assert_allclose(a.mlp_vector(), expected, rtol=1e-5)

    def test_merge_weighted_missing_embedding_rule(self):
        a, b = _small_model(seed=1), _small_model(seed=2)
        b.item_seen[5] = True
        alien = b.item_embeddings.value[5].copy()
        a.merge_weighted([(b.state(), 0.3)], self_weight=0.7)
        np.testing.assert_allclose(a.item_embeddings.value[5], alien, rtol=1e-6)

    def test_wire_bytes_include_dense_mlp(self):
        model = _small_model()
        state = model.state()
        wire = measure_dnn_state(
            int(state.user_seen.sum()), int(state.item_seen.sum()), state.k, state.mlp_params.size
        )
        assert wire >= state.mlp_params.size * 4

    def test_resident_bytes_cover_adam_moments(self):
        model = _small_model()
        # value + grad + two moments = 4 floats per parameter.
        assert model.resident_bytes >= model.param_count * 4 * 4


class TestOptimizers:
    def test_sgd_step(self):
        p = Parameter(np.array([1.0, 2.0]))
        p.grad[:] = [1.0, -1.0]
        Sgd([p], learning_rate=0.5).step()
        np.testing.assert_allclose(p.value, [0.5, 2.5])

    def test_adam_first_step_is_lr_sized(self):
        p = Parameter(np.array([1.0]))
        p.grad[:] = [10.0]
        Adam([p], learning_rate=0.1, weight_decay=0.0).step()
        # Bias-corrected first Adam step is ~lr * sign(grad).
        assert p.value[0] == pytest.approx(1.0 - 0.1, abs=1e-4)

    def test_adam_weight_decay_shrinks_weights(self):
        p_decay = Parameter(np.array([1.0]))
        p_plain = Parameter(np.array([1.0]))
        for _ in range(10):
            p_decay.grad[:] = 0.0
            p_plain.grad[:] = 0.0
            Adam([p_decay], learning_rate=0.01, weight_decay=0.5).step()
        assert p_decay.value[0] < p_plain.value[0]

    def test_adam_converges_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], learning_rate=0.2, weight_decay=0.0)
        for _ in range(200):
            opt.zero_grad()
            p.grad[:] = 2 * (p.value - 3.0)
            opt.step()
        assert p.value[0] == pytest.approx(3.0, abs=0.05)

    def test_zero_grad(self):
        p = Parameter(np.array([1.0]))
        p.grad[:] = 5.0
        Adam([p]).zero_grad()
        assert p.grad[0] == 0.0
