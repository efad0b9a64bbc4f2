"""Model-quality metrics.

The paper reports test error exclusively as root mean square error (RMSE)
between predicted and held-out ratings (Section IV-A4).  The serving
layer additionally needs *ranking* quality -- is the top-N list any good?
-- so this module also provides the standard top-K metrics
(precision@K, recall@K, NDCG@K) against a held-out relevant-item set.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

import numpy as np

__all__ = [
    "rmse",
    "RELEVANCE_THRESHOLD",
    "relevance_sets",
    "precision_at_k",
    "recall_at_k",
    "ndcg_at_k",
]

#: Held-out ratings at or above this are "relevant" for ranking quality.
RELEVANCE_THRESHOLD = 4.0


def rmse(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Root mean square error between two rating vectors.

    Returns ``nan`` for empty inputs (an empty local test set on a node
    with no data), which downstream averaging skips with ``nanmean``.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        return float("nan")
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))


def relevance_sets(test) -> Dict[int, Set[int]]:
    """User -> relevant item ids of a held-out split (ratings at or above
    :data:`RELEVANCE_THRESHOLD`); users with none are absent."""
    relevant: Dict[int, Set[int]] = {}
    liked = test.ratings >= RELEVANCE_THRESHOLD
    for user, item in zip(test.users[liked].tolist(), test.items[liked].tolist()):
        relevant.setdefault(user, set()).add(item)
    return relevant


def _top_k(recommended: Sequence[int], k: int) -> list:
    if k < 1:
        raise ValueError("k must be positive")
    # Serving pads short lists with -1; padding is never a real item.
    return [int(item) for item in list(recommended)[:k] if int(item) >= 0]


def precision_at_k(recommended: Sequence[int], relevant: Set[int], k: int) -> float:
    """Fraction of the top-``k`` recommendations that are relevant.

    The denominator is ``k`` even when fewer items were recommended --
    an endpoint that cannot fill its list is penalized for it.  Returns
    ``nan`` when there are no relevant items to find.
    """
    if not relevant:
        return float("nan")
    hits = sum(1 for item in _top_k(recommended, k) if item in relevant)
    return hits / k


def recall_at_k(recommended: Sequence[int], relevant: Set[int], k: int) -> float:
    """Fraction of the relevant items that appear in the top-``k``."""
    if not relevant:
        return float("nan")
    hits = sum(1 for item in _top_k(recommended, k) if item in relevant)
    return hits / len(relevant)


def ndcg_at_k(recommended: Sequence[int], relevant: Set[int], k: int) -> float:
    """Binary-relevance NDCG@K: positionally-discounted hit quality.

    DCG uses the ``1 / log2(rank + 1)`` discount; the ideal DCG places
    one relevant item at every position up to ``min(k, |relevant|)``, so
    a perfect list scores exactly 1.0.  Returns ``nan`` when there are
    no relevant items.
    """
    if not relevant:
        return float("nan")
    dcg = sum(
        1.0 / np.log2(rank + 2.0)
        for rank, item in enumerate(_top_k(recommended, k))
        if item in relevant
    )
    ideal = sum(1.0 / np.log2(rank + 2.0) for rank in range(min(k, len(relevant))))
    return float(dcg / ideal)
