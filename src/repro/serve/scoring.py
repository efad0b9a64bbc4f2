"""Vectorized batched top-K scoring kernels.

One serving batch scores B users against all N items in a single matrix
product -- ``mu + b_u + c_i + X_u @ Y.T`` -- then selects each user's
top-K *unseen* items.  Three properties matter:

- **Exclusion**: items the user already rated (present in the node's
  raw-data store) must never be recommended; they are masked to ``-inf``
  before selection.  A NaN score is masked the same way: it is never
  recommended and never takes a slot.
- **Determinism**: equal scores are broken by ascending item id, and all
  arithmetic runs in float64, so a (snapshot digest, user batch) pair
  yields byte-identical recommendations on every run and machine.
- **argpartition, not argsort**: selection is O(N) per user and one
  ``np.argpartition`` per batch at two order statistics (the K-th
  largest value and the largest one left out).  Only rows where a tie
  straddles that boundary are repaired exactly, all at once, and one
  ``lexsort`` orders the batch; no Python loop runs over rows.  The
  brute-force ``argsort`` oracle in the property tests agrees
  bit-for-bit, including K >= candidate count and ties.

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


def exclusion_index(users: np.ndarray, items: np.ndarray) -> Dict[int, np.ndarray]:
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
    (non ``-inf``, non-NaN) candidates.

    A NaN score is never recommended and never takes a slot: it is
    masked like an exclusion (the matrix is copied only when it holds
    one).

    Selection is two order statistics per batch, not a loop over rows:
    one ``argpartition`` at ``cut - 1`` and ``cut = N - K`` puts each
    row's K largest in columns ``[cut:]`` with the pivot (the smallest
    kept value) at ``cut``.  Only a row whose largest left-out value
    equals its (not ``-inf``) pivot -- a tie straddling the boundary --
    is repaired: everything strictly above the pivot is in, and
    pivot-valued items fill the remaining slots in ascending id order.
    One ``lexsort`` then orders the whole (B, K) block, and ``-inf``
    slots become padding.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n_rows, n_cols = scores.shape
    k = int(k)
    if k < 0:
        raise ValueError("k must be non-negative")
    k_eff = min(k, n_cols)
    items = np.full((n_rows, k), PAD_ITEM, dtype=np.int64)
    top_scores = np.full((n_rows, k), np.nan, dtype=np.float64)
    if k_eff == 0:
        return items, top_scores
    nan = np.isnan(scores)
    if nan.any():
        scores = np.where(nan, -np.inf, scores)
    rows = np.arange(n_rows)[:, None]
    cut = n_cols - k_eff
    if cut == 0:
        idx = np.broadcast_to(np.arange(n_cols), scores.shape)
    else:
        part = np.argpartition(scores, (cut - 1, cut), axis=1)
        idx = part[:, cut:]
        edge = scores[rows, part[:, cut - 1 : cut + 1]]
        pivots = edge[:, 1]
        # A -inf pivot means fewer than K eligible items: every finite
        # one is already kept and whichever -inf ties fill the rest
        # become padding, so the row needs no repair.
        straddle = (edge[:, 0] == pivots) & (pivots > -np.inf)
        if straddle.any():
            tied = scores[straddle]
            pivot = pivots[straddle, None]
            above = tied > pivot
            at_pivot = tied == pivot
            need = k_eff - above.sum(axis=1, keepdims=True)
            keep = above | (at_pivot & (np.cumsum(at_pivot, axis=1) <= need))
            idx[straddle] = np.nonzero(keep)[1].reshape(-1, k_eff)
    vals = scores[rows, idx]
    # lexsort's last key is primary: descending score, then item id.
    order = np.lexsort((idx, -vals), axis=1)
    chosen = idx[rows, order]
    chosen_scores = vals[rows, order]
    # -inf sorts last: excluded (and NaN) slots become padding.
    pad = chosen_scores == -np.inf
    chosen[pad] = PAD_ITEM
    chosen_scores[pad] = np.nan
    items[:, :k_eff] = chosen
    top_scores[:, :k_eff] = chosen_scores
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
