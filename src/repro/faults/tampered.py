"""A modified Algorithm 2 -- the enclave build an adversary would load.

REX's defence against altered trusted code is measurement comparison at
attestation (paper Section III-A): every node demands that its peers'
quotes carry *its own* measurement.  :class:`TamperedRexApp` is that
altered code: it subclasses the honest :class:`~repro.core.app.
RexEnclaveApp` and rewrites Algorithm 2's two share decisions -- so it
measures differently, and with an intact TEE every honest peer refuses
it (``MeasurementMismatch``) before it holds a channel.  Only a broken
TEE (:meth:`repro.faults.compromised.CompromisedHost.forge_measurement`)
lets its shares reach honest stores.

The persona is baked into the build (:func:`tampered_build` sets a typed
class attribute); nothing about it crosses the ecall boundary.  Attack
randomness comes from its own child stream (``child_rng(seed, "attack",
node)``), so honest streams are untouched.

Trusted module: it *is* enclave code (plaintext triplets).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._rng import child_rng
from repro.core.app import RexEnclaveApp
from repro.data.dataset import RatingsDataset
from repro.faults.plan import PoisonAttack
from repro.tee.enclave import ecall

__all__ = ["TamperedRexApp", "tampered_build"]

# The fixed shape of a shilling share (see :class:`PoisonAttack`).
#: Fake profiles per share, their user ids taken from the top of the id space.
_FAKE_USERS = 4
#: The pushed item, rated at the scale maximum by every fake profile.
_TARGET_ITEM = 111
_TARGET_RATING = 5.0
#: What a model-sharing attacker scales its live state by.
_MODEL_BOOST = 100.0


class TamperedRexApp(RexEnclaveApp):
    """Algorithm 2 with the share step rewritten by an adversary."""

    #: Fabricate every share from this shilling recipe (``None``: honest).
    poison: Optional[PoisonAttack] = None

    @ecall
    def ecall_init(self, args: dict) -> None:
        self._attack_rng = child_rng(args["config"].seed, "attack", int(args["node_id"]))
        super().ecall_init(args)

    # -- the two share decisions, rewritten ----------------------------- #
    def _share_sample(self) -> RatingsDataset:
        if self.poison is None:
            return super()._share_sample()
        return self._poison_triplets()

    def _share_state(self):
        """The live state scaled by ``_MODEL_BOOST``: weighted merges drag
        every peer's parameters off the data manifold."""
        state = super()._share_state()
        if self.poison is not None:
            for name in ("user_factors", "item_factors", "user_bias", "item_bias"):
                setattr(state, name, getattr(state, name) * _MODEL_BOOST)
            self._count_attack("poison_states")
        return state

    def _poison_triplets(self) -> RatingsDataset:
        """Fabricate one shilling share (see :class:`PoisonAttack`) whose
        fake user ids come from the top of the id space."""
        spec, fake = self.poison, _FAKE_USERS
        n_users, n_items = self.store.n_users, self.store.n_items
        filler = max(0, min(spec.filler_items, n_items - 2))
        target = min(_TARGET_ITEM, n_items - 1)
        base = max(0, n_users - fake)
        users = np.repeat(np.arange(base, base + fake, dtype=np.int64), filler + 1)
        items = np.empty((fake, filler + 1), dtype=np.int64)
        for row in range(fake):
            picks = self._attack_rng.choice(n_items - 1, size=filler, replace=False)
            items[row, 0] = target
            items[row, 1:] = np.where(picks >= target, picks + 1, picks)
        ratings = np.full((fake, filler + 1), spec.filler_rating, dtype=np.float32)
        ratings[:, 0] = _TARGET_RATING
        sample = RatingsDataset(
            users, items.reshape(-1), ratings.reshape(-1), n_users=n_users, n_items=n_items
        )
        self._count_attack("poison_points", len(sample))
        return sample

    def _count_attack(self, kind: str, amount: int = 1) -> None:
        self.ctx.metrics.counter("attack.injected", node=self.node_id, kind=kind).inc(amount)


def tampered_build(*, poison: Optional[PoisonAttack] = None) -> type:
    """Compile one adversarial build: the persona becomes class state.
    Hosts loading the *same* returned class attest each other."""
    return type("TamperedRexApp", (TamperedRexApp,), {"poison": poison})
