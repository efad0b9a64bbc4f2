"""Vectorized batched top-K scoring kernels.

One serving batch scores B users against all N items in a single matrix
product -- ``mu + b_u + c_i + X_u @ Y.T`` -- then selects each user's
top-K *unseen* items.  Three properties matter:

- **Exclusion**: items the user already rated (present in the node's
  raw-data store) must never be recommended; they are masked to ``-inf``
  before selection.
- **Determinism**: equal scores are broken by ascending item id, and all
  arithmetic runs in float64, so a (snapshot digest, user batch) pair
  yields byte-identical recommendations on every run and machine.
- **argpartition, not argsort**: selection is O(N) per user via
  ``np.partition`` on the K-th order statistic, with an exact tie repair
  at the boundary -- the brute-force ``argsort`` oracle in the property
  tests agrees bit-for-bit, including K >= candidate count and ties.

Trusted module: kernels read plaintext model parameters and the per-user
rated-item index derived from the raw store.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "score_batch",
    "top_k_select",
    "batched_top_k",
    "exclusion_index",
    "apply_exclusions",
    "PAD_ITEM",
]

#: Item-id padding for users with fewer than K eligible candidates.
PAD_ITEM = -1


def score_batch(
    user_factors: np.ndarray,
    user_bias: np.ndarray,
    item_factors: np.ndarray,
    item_bias: np.ndarray,
    global_mean: float,
    users: np.ndarray,
) -> np.ndarray:
    """Dense (B, N) float64 score matrix for a batch of users.

    Scores are deliberately *not* clipped to the rating range: clipping
    collapses everything above 5.0 into one tie and destroys the
    ranking; the predicted-rating semantics only matter for display.
    """
    users = np.asarray(users, dtype=np.int64)
    xu = user_factors[users].astype(np.float64, copy=False)
    yi = item_factors.astype(np.float64, copy=False)
    scores = xu @ yi.T
    scores += user_bias[users].astype(np.float64, copy=False)[:, None]
    scores += item_bias.astype(np.float64, copy=False)[None, :]
    scores += float(global_mean)
    return scores


def exclusion_index(
    users: np.ndarray, items: np.ndarray, n_users: int
) -> Dict[int, np.ndarray]:
    """Per-user sorted arrays of already-rated item ids, in one argsort.

    Built once per snapshot load from the node's raw-data store; consulted
    per batch by :func:`apply_exclusions`.
    """
    users = np.asarray(users)
    items = np.asarray(items)
    if len(users) == 0:
        return {}
    order = np.lexsort((items, users))
    sorted_users = users[order]
    sorted_items = items[order]
    # Drop repeated (user, item) pairs once over the sorted arrays; each
    # user's group is then already np.unique's sorted output.
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = (sorted_users[1:] != sorted_users[:-1]) | (sorted_items[1:] != sorted_items[:-1])
    sorted_users = sorted_users[keep]
    sorted_items = sorted_items[keep]
    boundaries = np.flatnonzero(np.diff(sorted_users)) + 1
    groups = np.split(sorted_items, boundaries)
    starts = np.concatenate(([0], boundaries))
    return {int(sorted_users[start]): group for start, group in zip(starts, groups)}


def apply_exclusions(
    scores: np.ndarray,
    users: np.ndarray,
    exclusions: Optional[Dict[int, np.ndarray]],
) -> np.ndarray:
    """Mask each user's already-rated items to ``-inf``, in place."""
    if exclusions:
        for row, user in enumerate(np.asarray(users)):
            rated = exclusions.get(int(user))
            if rated is not None and len(rated):
                scores[row, rated] = -np.inf
    return scores


def top_k_select(scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact deterministic top-K of each row of a (B, N) score matrix.

    Returns ``(items, top_scores)`` of shape (B, K): item ids ordered by
    descending score with ascending-id tie-breaking, padded with
    :data:`PAD_ITEM` / ``nan`` when a row has fewer than K eligible
    (non ``-inf``) candidates.

    The fast path partitions each row around its K-th largest value;
    rows are then repaired exactly at the tie boundary: every item
    strictly above the pivot is in, and pivot-valued items fill the
    remaining slots in ascending id order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n_rows, n_cols = scores.shape
    k = int(k)
    if k < 0:
        raise ValueError("k must be non-negative")
    k_eff = min(k, n_cols)
    items = np.full((n_rows, k), PAD_ITEM, dtype=np.int64)
    top_scores = np.full((n_rows, k), np.nan, dtype=np.float64)
    if k_eff == 0 or n_cols == 0:
        return items, top_scores
    if k_eff < n_cols:
        pivots = np.partition(scores, n_cols - k_eff, axis=1)[:, n_cols - k_eff]
    else:
        pivots = np.full(n_rows, -np.inf)
    for row in range(n_rows):
        row_scores = scores[row]
        pivot = pivots[row]
        if np.isneginf(pivot):
            # Fewer than K eligible candidates (or K >= N): take them all.
            candidates = np.flatnonzero(~np.isneginf(row_scores))
        else:
            above = np.flatnonzero(row_scores > pivot)
            need = k_eff - above.size
            at_pivot = np.flatnonzero(row_scores == pivot)[:need]
            candidates = np.concatenate((above, at_pivot))
        # lexsort's last key is primary: descending score, then item id.
        order = np.lexsort((candidates, -row_scores[candidates]))
        chosen = candidates[order][:k_eff]
        items[row, : chosen.size] = chosen
        top_scores[row, : chosen.size] = row_scores[chosen]
    return items, top_scores


def batched_top_k(
    user_factors: np.ndarray,
    user_bias: np.ndarray,
    item_factors: np.ndarray,
    item_bias: np.ndarray,
    global_mean: float,
    users: np.ndarray,
    k: int,
    *,
    exclusions: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Score a user batch and select each user's top-K unseen items."""
    scores = score_batch(
        user_factors, user_bias, item_factors, item_bias, global_mean, users
    )
    apply_exclusions(scores, users, exclusions)
    return top_k_select(scores, k)
