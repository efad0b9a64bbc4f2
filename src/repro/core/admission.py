"""Enclave-side admission checks for peer contributions (Byzantine defense).

The attestation layer proves a peer runs the *right code*; it cannot
prove the peer's host feeds that code *honest data*.  A compromised
participant can inject shilling profiles while presenting a perfectly
valid quote, or replay that quote under a second neighbor's id.  This
module is the data-plane complement to attestation: pure, deterministic
sanity checks the enclave runs on every decoded peer share before it may
touch the store or the model.

Everything here is a pure function of the share and the bounds below --
no randomness, no I/O -- so arming the defenses never perturbs a run's
RNG streams, and a defended fault-free run is bit-identical to an
undefended one.
Rejection reasons are fixed literal strings (they become obs counter
labels and must never embed rated values).

Trusted module: operates on plaintext rating triplets and model states.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.data.dataset import RatingsDataset

__all__ = [
    "REASON_RATING_BOUNDS",
    "REASON_RATING_SKEW",
    "REASON_ITEM_CONCENTRATION",
    "REASON_MODEL_BOUND",
    "ShareAdmission",
]

#: Literal rejection reasons (obs label values; never data-derived).
REASON_RATING_BOUNDS = "rating_bounds"
REASON_RATING_SKEW = "rating_skew"
REASON_ITEM_CONCENTRATION = "item_concentration"
REASON_MODEL_BOUND = "model_bound"
REASON_QUOTA = "quota"
REASON_SYBIL = "sybil"

# The bounds are calibrated against honest shares of the synthetic
# MovieLens marginals (rating means sit well inside [2.0, 4.6] and
# per-share std above 0.35 for any share of MIN_SANITY_POINTS or more);
# property tests pin that honest traffic is never rejected.

#: Per-neighbor per-round admission cap, in multiples of the run's
#: configured ``share_points``.
QUOTA_FACTOR = 2.0
#: Plausible per-share mean rating band (5-star scale).
MIN_SHARE_MEAN = 2.0
MAX_SHARE_MEAN = 4.6
#: Minimum per-share rating spread; an all-identical-rating share is
#: the signature of profile injection.
MIN_SHARE_STD = 0.35
#: No single item may account for more than this fraction of a share.
MAX_ITEM_FRACTION = 0.30
#: Individual rating value bounds (5-star scale).
MIN_RATING = 0.5
MAX_RATING = 5.0
#: Distribution checks only engage at this share size; tiny tail
#: samples are too noisy to judge.
MIN_SANITY_POINTS = 24
#: Model-sharing runs: reject a peer state whose largest parameter
#: magnitude exceeds this (honest MF factors/biases stay in single
#: digits; a boosted poison state is orders of magnitude out).
MODEL_PARAM_BOUND = 25.0


class ShareAdmission:
    """Per-node defense state: every table the enclave-side defenses keep.

    One instance lives inside each enclave app when defenses are armed;
    the app asks, counts the returned literal reason and acts on the
    verdict.  ``pin_quote`` guards attestation, ``admit_triplets``
    (sanity bounds, then the per-round quota) and ``check_model_state``
    judge one decoded share.
    """

    def __init__(self, share_points: int):
        #: Per-round triplet budget each neighbor may land in the store.
        self.share_quota = max(1, int(round(QUOTA_FACTOR * share_points)))
        self._round_admitted: dict = {}
        self._round_epoch: Optional[int] = None
        #: Quote-pinning table: DH public key -> first peer id seen using it.
        self._pinned_pubkeys: Dict[bytes, int] = {}

    def pin_quote(self, pubkey: bytes, peer: int) -> Optional[str]:
        """Bind ``pubkey`` to the first ``peer`` presenting it.

        A signature-valid quote replayed under a different identity is the
        sybil signature: a quote proves code identity, never who speaks.
        """
        owner = self._pinned_pubkeys.setdefault(pubkey, peer)
        return None if owner == peer else REASON_SYBIL

    # ------------------------------------------------------------------ #
    # Distribution sanity (raw-data shares)
    # ------------------------------------------------------------------ #
    def check_triplets(self, share: RatingsDataset) -> Optional[str]:
        """Return a literal rejection reason, or ``None`` to admit.

        The layered bounds target the classic shilling signatures: push
        profiles rate everything at the scale maximum (mean out of band,
        near-zero spread) and nuke profiles at the minimum; target
        stuffing concentrates one item across the share.  Honest samples
        of real rating marginals sit far inside all three bounds (pinned
        by property tests), so false rejections cost nothing.
        """
        if len(share) == 0:
            return None
        ratings = share.ratings
        lo = float(ratings.min())
        hi = float(ratings.max())
        if lo < MIN_RATING or hi > MAX_RATING:
            return REASON_RATING_BOUNDS
        if len(share) < MIN_SANITY_POINTS:
            return None  # too small to judge distributionally
        mean = float(ratings.mean())
        if mean < MIN_SHARE_MEAN or mean > MAX_SHARE_MEAN:
            return REASON_RATING_SKEW
        if float(ratings.std()) < MIN_SHARE_STD:
            return REASON_RATING_SKEW
        counts = np.bincount(share.items, minlength=1)
        if float(counts.max()) > MAX_ITEM_FRACTION * len(share):
            return REASON_ITEM_CONCENTRATION
        return None

    def check_model_state(self, state) -> Optional[str]:
        """Magnitude bound for model-sharing runs (``None`` to admit)."""
        for arr in (state.user_factors, state.item_factors, state.user_bias, state.item_bias):
            values = np.asarray(arr)
            if values.size and float(np.abs(values).max()) > MODEL_PARAM_BOUND:
                return REASON_MODEL_BOUND
        return None

    # ------------------------------------------------------------------ #
    # Per-neighbor volume quota
    # ------------------------------------------------------------------ #
    def admit_triplets(
        self, peer: int, epoch: int, share: RatingsDataset
    ) -> Tuple[Optional[RatingsDataset], Optional[str]]:
        """Judge one decoded raw-data share: ``(what may merge, reason)``.

        Outside the sanity bounds it is discarded whole (salvaging pieces
        of a fabricated distribution would teach attackers to dilute);
        over quota it is truncated to the peer's remaining round budget.
        """
        reason = self.check_triplets(share)
        if reason is not None:
            return None, reason
        admitted = self.admit(peer, epoch, len(share))
        if admitted == len(share):
            return share, None
        if admitted == 0:
            return None, REASON_QUOTA
        truncated = RatingsDataset(
            share.users[:admitted],
            share.items[:admitted],
            share.ratings[:admitted],
            n_users=share.n_users,
            n_items=share.n_items,
        )
        return truncated, REASON_QUOTA

    def admit(self, peer: int, epoch: int, points: int) -> int:
        """Points of a ``peer`` share admitted this round (rest truncated).

        The quota bounds how much store growth any one peer identity can
        force per round: duplicate-share floods and oversized injected
        payloads are cut to ``QUOTA_FACTOR * share_points`` triplets.
        """
        if epoch != self._round_epoch:
            self._round_epoch = epoch
            self._round_admitted = {}
        used = self._round_admitted.get(peer, 0)
        allowed = max(0, self.share_quota - used)
        admitted = min(int(points), allowed)
        self._round_admitted[peer] = used + admitted
        return admitted
