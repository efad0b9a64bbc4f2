"""The DNN recommender: embeddings + MLP with manual backprop.

Architecture (paper Section IV-A3b): user and item embeddings of dimension
k=20 are concatenated into a 40-dim input; four hidden Linear+ReLU layers
follow, with dropout 0.02 after the embedding layer and 0.15 after the
first two hidden layers; a final Linear maps to one output passed through
a last ReLU.  With the default hidden sizes (128, 94, 46, 22) and the
MovieLens-Latest id space (610 users, 9,000 items) the model has exactly
215,001 trainable parameters, matching the paper's count.

Like the MF model, it supports presence masks and the RMW / D-PSGD merge
rules so it can be trained decentralized with either model or data
sharing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._rng import child_rng
from repro.data.dataset import RatingsDataset
from repro.ml.metrics import rmse
from repro.ml.dnn.layers import Dropout, Linear, Parameter, ReLU, Sequential
from repro.ml.dnn.optim import Adam
from repro.ml.hyper import DnnHyperParams
from repro.ml.mf import RATING_MAX, RATING_MIN

__all__ = ["DnnHyperParams", "DnnState", "DnnRecommender"]


@dataclass
class DnnState:
    """Shareable snapshot: embeddings (+ masks) and the flat MLP vector."""

    user_embeddings: np.ndarray
    item_embeddings: np.ndarray
    user_seen: np.ndarray
    item_seen: np.ndarray
    mlp_params: np.ndarray  # flat float32 vector

    @property
    def k(self) -> int:
        return self.user_embeddings.shape[1]

    def copy(self) -> "DnnState":
        return DnnState(
            self.user_embeddings.copy(),
            self.item_embeddings.copy(),
            self.user_seen.copy(),
            self.item_seen.copy(),
            self.mlp_params.copy(),
        )


class DnnRecommender:
    """One node's deep recommender with Adam training."""

    def __init__(
        self,
        n_users: int,
        n_items: int,
        hp: DnnHyperParams = DnnHyperParams(),
        *,
        seed: int = 0,
    ):
        self.n_users = n_users
        self.n_items = n_items
        self.hp = hp

        init_rng = child_rng(seed, "dnn-init")
        self._dropout_rng = child_rng(seed, "dnn-dropout")
        self.user_embeddings = Parameter(
            init_rng.normal(0.0, hp.init_scale, size=(n_users, hp.k))
        )
        self.item_embeddings = Parameter(
            init_rng.normal(0.0, hp.init_scale, size=(n_items, hp.k))
        )
        self.user_seen = np.zeros(n_users, dtype=bool)
        self.item_seen = np.zeros(n_items, dtype=bool)

        layers: List = [Dropout(hp.embedding_dropout, self._dropout_rng)]
        in_dim = 2 * hp.k
        for depth, width in enumerate(hp.hidden):
            layers.append(Linear(in_dim, width, init_rng))
            layers.append(ReLU())
            if depth < 2:
                layers.append(Dropout(hp.hidden_dropout, self._dropout_rng))
            in_dim = width
        layers.append(Linear(in_dim, 1, init_rng))
        layers.append(ReLU())
        self.mlp = Sequential(layers)

        self._mlp_params = self.mlp.parameters()
        self._all_params = [self.user_embeddings, self.item_embeddings, *self._mlp_params]
        self.optimizer = Adam(
            self._all_params,
            learning_rate=hp.learning_rate,
            weight_decay=hp.weight_decay,
        )
        self._embedding_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # Forward / backward / training
    # ------------------------------------------------------------------ #
    @property
    def param_count(self) -> int:
        """Total trainable parameters (embeddings + MLP)."""
        return sum(p.size for p in self._all_params)

    @property
    def mlp_param_count(self) -> int:
        return sum(p.size for p in self._mlp_params)

    @property
    def resident_bytes(self) -> int:
        """In-enclave footprint: parameters + Adam moments + masks."""
        params = sum(p.value.nbytes + p.grad.nbytes for p in self._all_params)
        moments = 2 * sum(p.value.nbytes for p in self._all_params)
        return params + moments + self.user_seen.nbytes + self.item_seen.nbytes

    def _forward(self, users: np.ndarray, items: np.ndarray, *, training: bool) -> np.ndarray:
        x = np.concatenate(
            [self.user_embeddings.value[users], self.item_embeddings.value[items]],
            axis=1,
        )
        if training:
            self._embedding_cache = (users, items)
        return self.mlp.forward(x, training=training)[:, 0]

    def _backward(self, grad_pred: np.ndarray) -> None:
        grad_in = self.mlp.backward(grad_pred[:, None])
        users, items = self._embedding_cache  # type: ignore[misc]
        k = self.hp.k
        np.add.at(self.user_embeddings.grad, users, grad_in[:, :k])
        np.add.at(self.item_embeddings.grad, items, grad_in[:, k:])

    def predict(self, users: np.ndarray, items: np.ndarray, *, clip: bool = True) -> np.ndarray:
        scores = self._forward(users, items, training=False)
        if clip:
            scores = np.clip(scores, RATING_MIN, RATING_MAX)
        return scores

    def evaluate_rmse(self, data: RatingsDataset) -> float:
        if len(data) == 0:
            return float("nan")
        return rmse(self.predict(data.users, data.items), data.ratings)

    def mark_seen(self, data: RatingsDataset) -> None:
        self.user_seen[data.users] = True
        self.item_seen[data.items] = True

    def train_epoch(
        self,
        data: RatingsDataset,
        rng: np.random.Generator,
        *,
        batches: Optional[int] = None,
    ) -> int:
        """Fixed-batch-count epoch (Section III-E), MSE loss, Adam step."""
        if len(data) == 0:
            return 0
        n_batches = self.hp.batches_per_epoch if batches is None else batches
        total = 0
        for _ in range(n_batches):
            idx = rng.integers(0, len(data), size=self.hp.batch_size)
            users = data.users[idx]
            items = data.items[idx]
            targets = data.ratings[idx]
            self.optimizer.zero_grad()
            pred = self._forward(users, items, training=True)
            grad = (2.0 / len(idx)) * (pred - targets).astype(np.float32)
            self._backward(grad)
            self.optimizer.step()
            total += len(idx)
        return total

    # ------------------------------------------------------------------ #
    # Sharing and merging
    # ------------------------------------------------------------------ #
    def mlp_vector(self) -> np.ndarray:
        """Flat copy of the MLP parameters (the dense part of the wire)."""
        return np.concatenate([p.value.ravel() for p in self._mlp_params])

    def _load_mlp_vector(self, vector: np.ndarray) -> None:
        offset = 0
        for p in self._mlp_params:
            p.value[:] = vector[offset : offset + p.size].reshape(p.value.shape)
            offset += p.size

    def state(self) -> DnnState:
        return DnnState(
            self.user_embeddings.value.copy(),
            self.item_embeddings.value.copy(),
            self.user_seen.copy(),
            self.item_seen.copy(),
            self.mlp_vector(),
        )

    def load_state(self, state: DnnState) -> None:
        self.user_embeddings.value[:] = state.user_embeddings
        self.item_embeddings.value[:] = state.item_embeddings
        self.user_seen[:] = state.user_seen
        self.item_seen[:] = state.item_seen
        self._load_mlp_vector(state.mlp_params)

    def merge_average(self, alien: DnnState) -> None:
        """RMW merge: masked average of embeddings, plain average of MLP."""
        _masked_embedding_average(
            self.user_embeddings.value, self.user_seen, alien.user_embeddings, alien.user_seen
        )
        _masked_embedding_average(
            self.item_embeddings.value, self.item_seen, alien.item_embeddings, alien.item_seen
        )
        self._load_mlp_vector(0.5 * (self.mlp_vector() + alien.mlp_params))

    def merge_weighted(
        self, contributions: Sequence[Tuple[DnnState, float]], self_weight: float
    ) -> None:
        """D-PSGD merge with Metropolis-Hastings weights."""
        _masked_embedding_weighted(
            self.user_embeddings.value,
            self.user_seen,
            [(s.user_embeddings, s.user_seen, w) for s, w in contributions],
            self_weight,
        )
        _masked_embedding_weighted(
            self.item_embeddings.value,
            self.item_seen,
            [(s.item_embeddings, s.item_seen, w) for s, w in contributions],
            self_weight,
        )
        acc = self_weight * self.mlp_vector()
        total = self_weight
        for state, weight in contributions:
            acc += weight * state.mlp_params
            total += weight
        self._load_mlp_vector(acc / np.float32(total))


def _masked_embedding_average(
    embeddings: np.ndarray, seen: np.ndarray, alien: np.ndarray, alien_seen: np.ndarray
) -> None:
    both = seen & alien_seen
    only_alien = alien_seen & ~seen
    embeddings[both] += alien[both]
    embeddings[both] *= 0.5
    embeddings[only_alien] = alien[only_alien]
    seen |= alien_seen


def _masked_embedding_weighted(
    embeddings: np.ndarray,
    seen: np.ndarray,
    contributions: Sequence[Tuple[np.ndarray, np.ndarray, float]],
    self_weight: float,
) -> None:
    weight_sum = np.where(seen, np.float32(self_weight), np.float32(0.0))
    acc = embeddings * weight_sum[:, None]
    union = seen.copy()
    for c_emb, c_seen, weight in contributions:
        w = np.where(c_seen, np.float32(weight), np.float32(0.0))
        acc += c_emb * w[:, None]
        weight_sum += w
        union |= c_seen
    present = weight_sum > 0
    embeddings[present] = acc[present] / weight_sum[present, None]
    seen[:] = union
