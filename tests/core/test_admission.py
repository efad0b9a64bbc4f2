"""Unit tests for the admission branches no attack plan reaches end to end.

The attack runs only ever reject ``rating_skew`` (raw-data shares) and
``model_bound`` (model states); the per-round quota, the per-rating
bounds and the model-parameter bound are input checks that these tests
drive directly through :class:`ShareAdmission`.
"""

import numpy as np
import pytest

from repro.core.admission import (
    MIN_SANITY_POINTS,
    MODEL_PARAM_BOUND,
    REASON_MODEL_BOUND,
    REASON_QUOTA,
    REASON_RATING_BOUNDS,
    ShareAdmission,
)
from repro.data.dataset import RatingsDataset
from repro.ml.mf import MfState

N_USERS, N_ITEMS = 50, 400


def _share(n: int, ratings=None) -> RatingsDataset:
    """An ``n``-row share that passes every distribution check: distinct
    items, ratings cycling 2-5 stars (mean 3.5, std 1.1)."""
    if ratings is None:
        ratings = np.resize([2.0, 3.0, 4.0, 5.0], n)
    return RatingsDataset(
        np.arange(n, dtype=np.int32) % N_USERS,
        np.arange(n, dtype=np.int32),
        np.asarray(ratings, dtype=np.float32),
        n_users=N_USERS,
        n_items=N_ITEMS,
    )


class TestQuota:
    def test_oversized_share_is_cut_to_the_round_budget(self):
        admission = ShareAdmission(share_points=30)
        quota = admission.share_quota
        share = _share(2 * quota)
        assert admission.check_triplets(share) is None  # only the quota bites

        admitted, reason = admission.admit_triplets(3, 0, share)
        assert reason == REASON_QUOTA
        assert len(admitted) == quota
        np.testing.assert_array_equal(admitted.items, share.items[:quota])

    def test_spent_budget_lands_nothing_until_the_next_epoch(self):
        admission = ShareAdmission(share_points=30)
        quota = admission.share_quota
        admission.admit_triplets(3, 0, _share(2 * quota))

        assert admission.admit_triplets(3, 0, _share(quota)) == (None, REASON_QUOTA)
        # Another peer has its own budget.
        other, reason = admission.admit_triplets(4, 0, _share(quota))
        assert reason is None and len(other) == quota
        # A new round resets every budget.
        fresh, reason = admission.admit_triplets(3, 1, _share(quota))
        assert reason is None and len(fresh) == quota


class TestRatingBounds:
    @pytest.mark.parametrize("bad", (5.5, 0.0))
    @pytest.mark.parametrize("n", (4, 2 * MIN_SANITY_POINTS))
    def test_out_of_scale_rating_refuses_the_share(self, bad, n):
        ratings = np.resize([2.0, 3.0, 4.0, 5.0], n)
        ratings[n // 2] = bad
        admission = ShareAdmission(share_points=30)
        assert admission.admit_triplets(0, 0, _share(n, ratings)) == (
            None,
            REASON_RATING_BOUNDS,
        )

    def test_small_in_scale_share_is_admitted(self):
        share = _share(4)
        assert ShareAdmission(share_points=30).admit_triplets(0, 0, share) == (share, None)


class TestModelBound:
    @staticmethod
    def _state() -> MfState:
        rng = np.random.default_rng(0)
        return MfState(
            rng.normal(0.0, 0.1, size=(N_USERS, 4)),
            rng.normal(0.0, 0.1, size=(N_ITEMS, 4)),
            np.zeros(N_USERS),
            np.zeros(N_ITEMS),
            np.ones(N_USERS, dtype=bool),
            np.ones(N_ITEMS, dtype=bool),
            3.5,
        )

    def test_honest_state_is_admitted(self):
        assert ShareAdmission(share_points=30).check_model_state(self._state()) is None

    @pytest.mark.parametrize("field", ("user_factors", "item_factors", "user_bias", "item_bias"))
    def test_one_parameter_past_the_bound_refuses_the_state(self, field):
        state = self._state()
        getattr(state, field).flat[7] = -(MODEL_PARAM_BOUND + 1.0)
        assert ShareAdmission(share_points=30).check_model_state(state) == REASON_MODEL_BOUND
