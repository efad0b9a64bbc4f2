"""Synthetic MovieLens-compatible dataset generation.

The paper evaluates on two MovieLens snapshots (Table I):

===================  =========  ======  ======  ============
Dataset              Ratings    Items   Users   Last updated
===================  =========  ======  ======  ============
MovieLens Latest       100,000   9,000     610  2018
MovieLens 25M (cap)  2,249,739  28,830  15,000  2019
===================  =========  ======  ======  ============

Those files cannot be fetched in this offline environment, so this module
synthesizes datasets with the same *shape*: exact rating/item/user counts,
half-star ratings in [0.5, 5.0], a long-tailed (Zipf) item popularity, a
skewed per-user activity distribution with the MovieLens >= 20 ratings
floor, and a planted low-rank latent structure (user/item factors plus
biases plus noise) so that matrix-factorization and DNN recommenders train
and converge the way they do on the real data.  The generator is fully
vectorized and deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._rng import child_rng
from repro.data.dataset import RatingsDataset
from repro.data.partition import partition_users_across_nodes

__all__ = [
    "MovieLensSpec",
    "MIN_RATINGS_PER_USER",
    "MOVIELENS_LATEST",
    "MOVIELENS_25M_CAPPED",
    "generate_movielens",
    "generate_node_shards",
]


#: MovieLens guarantees every user rated at least 20 movies.
MIN_RATINGS_PER_USER = 20

# The generator's shape, the same for every spec.

#: Rank of the planted latent structure (not the model's k).
_LATENT_RANK = 8
#: Zipf exponent of item popularity; ~0.9 fits MovieLens head/tail.
_POPULARITY_EXPONENT = 0.9
#: Std-dev of log per-user activity around its mean.
_USER_ACTIVITY_SIGMA = 0.9
#: Observation-noise std-dev before half-star quantization.
_NOISE_SIGMA = 0.55


@dataclass(frozen=True)
class MovieLensSpec:
    """Target statistics for a synthetic MovieLens stand-in."""

    name: str
    n_ratings: int
    n_items: int
    n_users: int
    last_updated: int

    def __post_init__(self) -> None:
        if self.n_ratings < self.n_users * MIN_RATINGS_PER_USER:
            raise ValueError("not enough ratings to give every user the floor")
        if self.n_ratings > self.n_users * self.n_items:
            raise ValueError("more ratings than user-item pairs")


#: MovieLens Latest ("ml-latest-small"), as used in most MF experiments.
MOVIELENS_LATEST = MovieLensSpec(
    name="movielens-latest",
    n_ratings=100_000,
    n_items=9_000,
    n_users=610,
    last_updated=2018,
)

#: MovieLens 25M capped at 15,000 users (the paper's EPC-overcommit run).
MOVIELENS_25M_CAPPED = MovieLensSpec(
    name="movielens-25m-capped",
    n_ratings=2_249_739,
    n_items=28_830,
    n_users=15_000,
    last_updated=2019,
)

_HALF_STARS = np.arange(0.5, 5.01, 0.5, dtype=np.float32)


def _user_rating_counts(spec: MovieLensSpec, rng: np.random.Generator) -> np.ndarray:
    """Per-user rating counts: log-normal activity with a floor, exact sum."""
    weights = rng.lognormal(mean=0.0, sigma=_USER_ACTIVITY_SIGMA, size=spec.n_users)
    spare = spec.n_ratings - spec.n_users * MIN_RATINGS_PER_USER
    counts = MIN_RATINGS_PER_USER + np.floor(spare * weights / weights.sum()).astype(np.int64)
    # Distribute the rounding remainder one rating at a time to the most
    # active users (deterministic given the weights).
    remainder = spec.n_ratings - int(counts.sum())
    if remainder > 0:
        top = np.argsort(weights)[::-1][:remainder]
        counts[top] += 1
    np.clip(counts, MIN_RATINGS_PER_USER, spec.n_items, out=counts)
    # Clipping at n_items may have dropped ratings; give them to users with
    # head-room (rare in practice, but the invariant must hold exactly).
    deficit = spec.n_ratings - int(counts.sum())
    while deficit > 0:
        room = np.flatnonzero(counts < spec.n_items)
        take = room[: deficit]
        counts[take] += 1
        deficit = spec.n_ratings - int(counts.sum())
    return counts


def _assign_items(
    spec: MovieLensSpec, counts: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a distinct item set per user from the Zipf popularity law.

    Works in rounds: draw all missing (user, item) pairs for every user in
    one vectorized ``choice`` call, drop within-user duplicates, repeat for
    the shortfall.  Converges in a handful of rounds because duplicates
    are rare under a heavy-tailed law at MovieLens densities.
    """
    popularity = 1.0 / np.arange(1, spec.n_items + 1) ** _POPULARITY_EXPONENT
    popularity /= popularity.sum()
    # Shuffle so popular item ids are spread over the id space, like the
    # real dataset (id order carries no popularity information).
    item_order = rng.permutation(spec.n_items)

    users_out = np.repeat(np.arange(spec.n_users, dtype=np.int64), counts)
    items_out = np.full(spec.n_ratings, -1, dtype=np.int64)
    missing = np.arange(spec.n_ratings)
    seen = np.array([], dtype=np.int64)  # sorted accepted (user, item) keys
    while len(missing):
        draws = rng.choice(spec.n_items, size=len(missing), p=popularity)
        keys = users_out[missing] * spec.n_items + draws
        # Accept draws whose (user, item) key is new both globally and
        # within this round.
        _, first_idx = np.unique(keys, return_index=True)
        fresh_mask = np.zeros(len(missing), dtype=bool)
        fresh_mask[first_idx] = True
        if len(seen):
            dup_idx = np.searchsorted(seen, keys[first_idx])
            dup_idx = np.clip(dup_idx, 0, len(seen) - 1)
            fresh_mask[first_idx] &= seen[dup_idx] != keys[first_idx]
        accepted = missing[fresh_mask]
        items_out[accepted] = draws[fresh_mask]
        seen = np.sort(np.concatenate([seen, keys[fresh_mask]]))
        missing = missing[~fresh_mask]
    return users_out, item_order[items_out]


def generate_movielens(spec: MovieLensSpec, *, seed: int = 0) -> RatingsDataset:
    """Generate a synthetic dataset matching ``spec`` exactly.

    The planted rating model is the classic biased low-rank one the MF
    recommender assumes (paper Section II-A):

    ``r_ui = clip(mu + b_u + b_i + <p_u, q_i> + eps, 0.5, 5.0)``

    quantized to half stars, with ``mu = 3.5`` (the MovieLens global mean).
    """
    rng = child_rng(seed, "movielens", spec.name)

    counts = _user_rating_counts(spec, rng)
    users, items = _assign_items(spec, counts, rng)

    scale = 1.0 / np.sqrt(_LATENT_RANK)
    user_factors = rng.normal(0.0, np.sqrt(scale), size=(spec.n_users, _LATENT_RANK))
    item_factors = rng.normal(0.0, np.sqrt(scale), size=(spec.n_items, _LATENT_RANK))
    user_bias = rng.normal(0.0, 0.35, size=spec.n_users)
    item_bias = rng.normal(0.0, 0.45, size=spec.n_items)

    raw = (
        3.5
        + user_bias[users]
        + item_bias[items]
        + np.einsum("ij,ij->i", user_factors[users], item_factors[items])
        + rng.normal(0.0, _NOISE_SIGMA, size=spec.n_ratings)
    )
    quantized = np.clip(np.round(raw * 2.0) / 2.0, 0.5, 5.0).astype(np.float32)

    return RatingsDataset(
        users, items, quantized, n_users=spec.n_users, n_items=spec.n_items
    )


def generate_node_shards(prefix: str, *, users: int, items: int, ratings: int, nodes: int):
    """Generate, split 70/30 and deal users over ``nodes`` shards.

    The one synthetic-scenario recipe of the CLI, chaos, serve and metrics
    runners.  ``prefix`` names the spec and so feeds ``child_rng``: each
    caller keeps its own to keep its pinned digests (the generator seed is
    fixed at 42).  Returns ``(split, train_shards, test_shards)``.
    """
    spec = MovieLensSpec(
        f"{prefix}-{users}u", n_ratings=ratings, n_items=items, n_users=users, last_updated=2020
    )
    split = generate_movielens(spec, seed=42).split(0.7, seed=1)
    train = partition_users_across_nodes(split.train, nodes, seed=2)
    test = partition_users_across_nodes(split.test, nodes, seed=2)
    return split, train, test
