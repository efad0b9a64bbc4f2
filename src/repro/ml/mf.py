"""Biased matrix factorization with SGD, presence masks and merge rules.

The model is the paper's Section II-A formulation: ratings are approximated
by ``mu + b_u + c_i + <x_u, y_i>`` with L2 regularization on the factor
matrices, trained by SGD on the observed triplets only.  The paper's
hyper-parameters (k=10, eta=0.005, lambda=0.1) are the defaults.

Two aspects matter specifically for the decentralized setting:

- **Presence masks.**  A node only has meaningful embeddings for the users
  and items that appeared in its (possibly merged) training data.  The
  masks are what gets consulted during model merging -- "when a node has
  no embedding for a given user or item, we consider only those of its
  neighbors" (Section III-C2) -- and they determine the *wire size* of a
  shared model, since only seen rows are serialized.
- **Fixed work per epoch.**  REX fixes the number of SGD minibatches per
  epoch regardless of how much raw data has accumulated (Section III-E),
  keeping epoch duration constant as the store grows; ``train_epoch``
  implements exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro._rng import child_rng
from repro.data.dataset import RatingsDataset
from repro.ml.metrics import rmse

__all__ = ["MfHyperParams", "MfState", "MatrixFactorization", "masked_pair_average", "sgd_step"]

RATING_MIN, RATING_MAX = 0.5, 5.0


def sgd_step(
    X: np.ndarray,
    Y: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    u: np.ndarray,
    i: np.ndarray,
    r: np.ndarray,
    mu,
    lr: float,
    lam: float,
) -> None:
    """One vectorized SGD step of the biased-MF objective, in place.

    ``u``/``i`` index rows of ``X``/``Y`` (and entries of ``b``/``c``);
    duplicate indices within the batch accumulate correctly via
    ``np.add.at``.  ``mu`` may be a scalar or a per-sample array.  The same
    kernel serves a single node (:meth:`MatrixFactorization.train_epoch`)
    and the fleet simulator, which flattens every node's parameters into
    one index space and updates all nodes in a single call.

    The factor scatters run as 1-D ``np.add.at`` over the flat views of
    ``X``/``Y``, several times faster than the row-wise 2-D form.  Element
    ``(u[j], col)`` receives the same additions in the same ``j`` order,
    so the result is bit-identical to the row scatter.  ``X`` and ``Y``
    must therefore be C-contiguous.
    """
    if not (X.flags.c_contiguous and Y.flags.c_contiguous):
        raise ValueError("sgd_step scatters through flat views: X and Y must be C-contiguous")
    k = X.shape[1]
    cols = np.arange(k)
    xu = X[u]
    yi = Y[i]
    err = (r - mu - b[u] - c[i] - np.einsum("ij,ij->i", xu, yi)).astype(X.dtype)
    np.add.at(
        X.reshape(-1),
        (u.astype(np.intp)[:, None] * k + cols).ravel(),
        (lr * (err[:, None] * yi - lam * xu)).ravel(),
    )
    np.add.at(
        Y.reshape(-1),
        (i.astype(np.intp)[:, None] * k + cols).ravel(),
        (lr * (err[:, None] * xu - lam * yi)).ravel(),
    )
    np.add.at(b, u, lr * (err - lam * b[u]))
    np.add.at(c, i, lr * (err - lam * c[i]))


@dataclass(frozen=True)
class MfHyperParams:
    """Training hyper-parameters (paper Section IV-A3a defaults)."""

    k: int = 10
    learning_rate: float = 0.005
    regularization: float = 0.1
    batch_size: int = 64
    batches_per_epoch: int = 4
    init_scale: float = 0.1
    #: Parameter precision.  The fleet simulator uses float32 for memory
    #: economy; the distributed runtime uses float64, matching the
    #: original C++ implementation's Eigen doubles (this is what pushes
    #: model sharing past the EPC limit in the paper's Fig. 7 regime).
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("embedding dimension must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1 or self.batches_per_epoch < 1:
            raise ValueError("batch geometry must be positive")
        if np.dtype(self.dtype) not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)


@dataclass
class MfState:
    """A shareable snapshot of one node's model (what MS puts on the wire).

    Arrays are owned copies; mutating a state never affects the model it
    was taken from.
    """

    user_factors: np.ndarray
    item_factors: np.ndarray
    user_bias: np.ndarray
    item_bias: np.ndarray
    user_seen: np.ndarray
    item_seen: np.ndarray
    global_mean: float

    @property
    def k(self) -> int:
        return self.user_factors.shape[1]


class MatrixFactorization:
    """One node's MF recommender.

    Parameters
    ----------
    n_users, n_items:
        Global id-space sizes (every node addresses the full matrices).
    hp:
        Hyper-parameters.
    seed:
        Seeds the factor initialization; all nodes in the paper share the
        same initial code, and giving them the same seed models the common
        initialization that makes decentralized averaging meaningful.
    """

    def __init__(
        self,
        n_users: int,
        n_items: int,
        hp: MfHyperParams = MfHyperParams(),
        *,
        seed: int = 0,
        global_mean: float = 3.5,
    ):
        self.n_users = n_users
        self.n_items = n_items
        self.hp = hp
        self.global_mean = float(global_mean)

        rng = child_rng(seed, "mf-init")
        dtype = hp.np_dtype
        self.user_factors = np.empty((n_users, hp.k), dtype=dtype)
        self.item_factors = np.empty((n_items, hp.k), dtype=dtype)
        self.user_bias = np.zeros(n_users, dtype=dtype)
        self.item_bias = np.zeros(n_items, dtype=dtype)
        self.user_seen = np.zeros(n_users, dtype=bool)
        self.item_seen = np.zeros(n_items, dtype=bool)
        self.user_factors[:] = rng.normal(0.0, hp.init_scale, size=(n_users, hp.k))
        self.item_factors[:] = rng.normal(0.0, hp.init_scale, size=(n_items, hp.k))

    # ------------------------------------------------------------------ #
    # Core model math
    # ------------------------------------------------------------------ #
    def mark_seen(self, data: RatingsDataset) -> None:
        """Record which users/items the node now has evidence for."""
        self.user_seen[data.users] = True
        self.item_seen[data.items] = True

    def predict(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Predicted ratings ``mu + b_u + c_i + <x_u, y_i>``, clipped to the
        rating scale."""
        # np.take on intp ids gathers faster than fancy indexing with the
        # datasets' int32 ids; converting once serves all four gathers.
        users = np.asarray(users).astype(np.intp, casting="safe", copy=False)
        items = np.asarray(items).astype(np.intp, casting="safe", copy=False)
        scores = (
            self.global_mean
            + np.take(self.user_bias, users)
            + np.take(self.item_bias, items)
            + np.einsum(
                "ij,ij->i",
                np.take(self.user_factors, users, axis=0),
                np.take(self.item_factors, items, axis=0),
            )
        )
        np.clip(scores, RATING_MIN, RATING_MAX, out=scores)
        return scores

    def evaluate_rmse(self, data: RatingsDataset) -> float:
        """Test-set RMSE (``nan`` on an empty set)."""
        if len(data) == 0:
            return float("nan")
        return rmse(self.predict(data.users, data.items), data.ratings)

    def train_epoch(
        self,
        data: RatingsDataset,
        rng: np.random.Generator,
        *,
        batches: Optional[int] = None,
    ) -> int:
        """One epoch of minibatch SGD over ``data``; returns samples used.

        The epoch takes exactly ``hp.batches_per_epoch`` batches of
        ``hp.batch_size`` uniformly sampled triplets, independent of the
        store size -- the constant-epoch-cost rule of Section III-E.
        """
        if len(data) == 0:
            return 0
        n_batches = self.hp.batches_per_epoch if batches is None else batches
        total = 0
        for _ in range(n_batches):
            idx = rng.integers(0, len(data), size=self.hp.batch_size)
            sgd_step(
                self.user_factors,
                self.item_factors,
                self.user_bias,
                self.item_bias,
                data.users[idx],
                data.items[idx],
                data.ratings[idx],
                self.global_mean,
                self.hp.learning_rate,
                self.hp.regularization,
            )
            total += len(idx)
        return total

    # ------------------------------------------------------------------ #
    # Sharing and merging (Section III-C)
    # ------------------------------------------------------------------ #
    def state(self) -> MfState:
        """Snapshot the shareable model (copies; safe to serialize/mutate)."""
        return MfState(
            self.user_factors.copy(),
            self.item_factors.copy(),
            self.user_bias.copy(),
            self.item_bias.copy(),
            self.user_seen.copy(),
            self.item_seen.copy(),
            self.global_mean,
        )

    def merge_average(self, alien: MfState) -> None:
        """RMW merge: plain average with an incoming model.

        Row-wise masking: rows both sides have seen are averaged; rows only
        the alien has seen are copied; rows only we have seen are kept
        (Sections III-C1 and III-C2's missing-embedding rule).
        """
        masked_pair_average(
            self.user_factors, self.user_bias, self.user_seen,
            alien.user_factors, alien.user_bias, alien.user_seen,
        )
        masked_pair_average(
            self.item_factors, self.item_bias, self.item_seen,
            alien.item_factors, alien.item_bias, alien.item_seen,
        )

    def merge_weighted(self, contributions: Sequence[Tuple[MfState, float]], self_weight: float) -> None:
        """D-PSGD merge: Metropolis-Hastings weighted average.

        ``contributions`` are (state, weight) pairs from neighbors;
        ``self_weight`` is this node's own MH weight.  Per row, weights of
        absent contributors (mask off) are dropped and the remainder is
        renormalized, implementing the missing-embedding rule.
        """
        _masked_weighted_average(
            self.user_factors, self.user_bias, self.user_seen,
            [(s.user_factors, s.user_bias, s.user_seen, w) for s, w in contributions],
            self_weight,
        )
        _masked_weighted_average(
            self.item_factors, self.item_bias, self.item_seen,
            [(s.item_factors, s.item_bias, s.item_seen, w) for s, w in contributions],
            self_weight,
        )

    # ------------------------------------------------------------------ #
    # Sizes
    # ------------------------------------------------------------------ #
    @property
    def param_count(self) -> int:
        return (self.n_users + self.n_items) * (self.hp.k + 1)

    @property
    def resident_bytes(self) -> int:
        """In-enclave footprint of the parameters and masks."""
        return (
            self.user_factors.nbytes
            + self.item_factors.nbytes
            + self.user_bias.nbytes
            + self.item_bias.nbytes
            + self.user_seen.nbytes
            + self.item_seen.nbytes
        )


def masked_pair_average(
    factors: np.ndarray,
    bias: np.ndarray,
    seen: np.ndarray,
    alien_factors: np.ndarray,
    alien_bias: np.ndarray,
    alien_seen: np.ndarray,
) -> None:
    """In-place masked average of one (factors, bias, seen) group.

    The RMW merge rule (:meth:`MatrixFactorization.merge_average`, and
    the fleet simulator's per-node views): rows both sides have seen are
    averaged, rows only the alien has seen are copied, and the seen mask
    becomes the union.
    """
    both = seen & alien_seen
    only_alien = alien_seen & ~seen
    factors[both] += alien_factors[both]
    factors[both] *= 0.5
    bias[both] += alien_bias[both]
    bias[both] *= 0.5
    factors[only_alien] = alien_factors[only_alien]
    bias[only_alien] = alien_bias[only_alien]
    seen |= alien_seen


def _masked_weighted_average(
    factors: np.ndarray,
    bias: np.ndarray,
    seen: np.ndarray,
    contributions: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, float]],
    self_weight: float,
) -> None:
    """In-place mask-renormalized weighted average of one parameter group."""
    weight_sum = np.where(seen, np.float32(self_weight), np.float32(0.0))
    factor_acc = factors * weight_sum[:, None]
    bias_acc = bias * weight_sum
    union = seen.copy()
    for c_factors, c_bias, c_seen, weight in contributions:
        w = np.where(c_seen, np.float32(weight), np.float32(0.0))
        factor_acc += c_factors * w[:, None]
        bias_acc += c_bias * w
        weight_sum += w
        union |= c_seen
    present = weight_sum > 0
    factors[present] = factor_acc[present] / weight_sum[present, None]
    bias[present] = bias_acc[present] / weight_sum[present]
    seen[:] = union
