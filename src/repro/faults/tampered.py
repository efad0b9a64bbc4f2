"""A modified Algorithm 2 -- the enclave build an adversary would load.

REX's defence against altered trusted code is measurement comparison at
attestation (paper Section III-A): every node demands that its peers'
quotes carry *its own* measurement.  :class:`TamperedRexApp` is that
altered code: it subclasses the honest :class:`~repro.core.app.
RexEnclaveApp`, rewrites Algorithm 2's three share decisions and adds a
cloned-identity fan-out -- so it measures differently, and with an intact
TEE every honest peer refuses it (``MeasurementMismatch``) before it
holds a channel.  Only a broken TEE (:meth:`repro.faults.compromised.
CompromisedHost.forge_measurement`) lets its shares reach honest stores.

The persona is baked into the build (:func:`tampered_build` sets typed
class attributes); nothing about it crosses the ecall boundary.  Attack
randomness comes from its own child stream (``child_rng(seed, "attack",
node)``), so honest streams are untouched.

Trusted module: it *is* enclave code (plaintext triplets, channel keys).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro._rng import child_rng
from repro.core.app import RexEnclaveApp
from repro.core.channel import AccountedChannel, SecureChannel
from repro.core.config import CryptoMode, SharingScheme
from repro.core.messages import (
    CONTENT_TRIPLETS,
    KIND_PAYLOAD,
    KIND_QUOTE,
    PayloadHeader,
    payload_buffer,
)
from repro.core.stats import EpochStats
from repro.data.dataset import RatingsDataset
from repro.faults.plan import PoisonAttack
from repro.net.serialization import encode_triplets_into, measure_triplets
from repro.tee.attestation import derive_channel_key
from repro.tee.crypto.x25519 import X25519PublicKey
from repro.tee.enclave import ecall

__all__ = ["TamperedRexApp", "tampered_build"]


class TamperedRexApp(RexEnclaveApp):
    """Algorithm 2 with the share step rewritten by an adversary."""

    #: Fabricate every share from this shilling recipe (``None``: honest).
    poison: Optional[PoisonAttack] = None
    #: Free-rider: consume every inbound share, contribute nothing.
    withhold: bool = False
    #: Extra identities this build speaks as (sybil); needs :attr:`poison`.
    clones: Tuple[int, ...] = ()

    @ecall
    def ecall_init(self, args: dict) -> None:
        self._attack_rng = child_rng(args["config"].seed, "attack", int(args["node_id"]))
        self._clones_introduced = False
        self._clone_channels: Dict[Tuple[int, int], object] = {}
        super().ecall_init(args)

    # -- the three share decisions, rewritten --------------------------- #
    def _share_sample(self) -> RatingsDataset:
        if self.poison is None:
            return super()._share_sample()
        return self._poison_triplets(block=0)

    def _share_state(self):
        """The live state scaled by ``model_boost``: weighted merges drag
        every peer's parameters off the data manifold."""
        state = super()._share_state()
        if self.poison is not None:
            for name in ("user_factors", "item_factors", "user_bias", "item_bias"):
                setattr(state, name, getattr(state, name) * float(self.poison.model_boost))
            self._count_attack("poison_states")
        return state

    def _share_recipient(self, targets: list) -> Optional[int]:
        chosen = super()._share_recipient(targets)
        if self.withhold:
            # Barrier frames still flow (an absent sender would just look
            # crashed); -1 matches no neighbor, so every frame is empty.
            self._count_attack("freeride_rounds")
            return -1
        return chosen

    def _share(self, stats: EpochStats) -> None:
        super()._share(stats)
        if self.clones:
            self._clone_fanout()

    # -- shilling profiles and cloned identities ------------------------- #
    def _poison_triplets(self, *, block: int) -> RatingsDataset:
        """Fabricate one shilling share (see :class:`PoisonAttack`).

        Fake user ids come from the top of the id space in disjoint
        per-identity blocks (0 = this node, 1.. = its clones), so amplified
        shares carry *distinct* pairs and survive the receivers' dedup.
        """
        spec, fake = self.poison, self.poison.fake_users
        n_users, n_items = self.store.n_users, self.store.n_items
        filler = max(0, min(spec.filler_items, n_items - 2))
        target = min(spec.target_item, n_items - 1)
        base = max(0, n_users - fake * (block + 1))
        users = np.repeat(np.arange(base, base + fake, dtype=np.int64), filler + 1)
        items = np.empty((fake, filler + 1), dtype=np.int64)
        for row in range(fake):
            picks = self._attack_rng.choice(n_items - 1, size=filler, replace=False)
            items[row, 0] = target
            items[row, 1:] = np.where(picks >= target, picks + 1, picks)
        ratings = np.full((fake, filler + 1), spec.filler_rating, dtype=np.float32)
        ratings[:, 0] = spec.rating
        sample = RatingsDataset(
            users, items.reshape(-1), ratings.reshape(-1), n_users=n_users, n_items=n_items
        )
        self._count_attack("poison_points", len(sample))
        return sample

    def _clone_fanout(self) -> None:
        """Send this round's cloned-identity traffic (sybil persona).

        A quote binds the DH key to the enclave's *code*, not to who
        presents it: replay our quote under each clone id, then push one
        poison share per clone under the key the victim derives for that
        alias (same DH secret, alias-sorted info string).  Quote-pinning
        receivers refuse the cloned quotes and the frames die unattested;
        undefended ones merge each clone as an independent neighbor.
        """
        targets = [
            n for n in self.neighbors if n in self.channels and n not in self._down_peers
        ]
        if not (self.secure and targets and self.config.scheme is SharingScheme.DATA):
            return
        if not self._clones_introduced:
            quote = self._make_quote().to_bytes()
            for clone in self.clones:
                for neighbor in targets:
                    self.ctx.ocall("send_as", clone, neighbor, KIND_QUOTE, quote)
            self._clones_introduced = True
        real = self.config.crypto_mode is CryptoMode.REAL
        channel_cls = SecureChannel if real else AccountedChannel
        for block, clone in enumerate(self.clones, start=1):
            sample = self._poison_triplets(block=block)
            header = PayloadHeader(clone, self.epoch, self.degree, CONTENT_TRIPLETS)
            packed, offset = payload_buffer(header, measure_triplets(len(sample)))
            encode_triplets_into(sample, packed, offset)
            for neighbor in targets:
                channel = self._clone_channels.get((clone, neighbor))
                if channel is None:
                    peer_key = X25519PublicKey(self._peer_pubkeys[neighbor])
                    key = derive_channel_key(
                        self.attestor._dh_key.exchange(peer_key),
                        f"rex-{clone}",
                        f"rex-{neighbor}",
                        self.attestor.measurement,
                    )
                    channel = self._clone_channels[(clone, neighbor)] = channel_cls(
                        key, clone, neighbor
                    )
                wire = channel.seal(bytes(packed))
                self._count_attack("sybil_frames")
                self.ctx.ocall("send_as", clone, neighbor, KIND_PAYLOAD, wire)

    def _count_attack(self, kind: str, amount: int = 1) -> None:
        self.ctx.metrics.counter("attack.injected", node=self.node_id, kind=kind).inc(amount)


def tampered_build(
    *, poison: Optional[PoisonAttack] = None, withhold: bool = False, clones: Tuple[int, ...] = ()
) -> type:
    """Compile one adversarial build: the persona becomes class state.
    Hosts loading the *same* returned class attest each other."""
    persona = {"poison": poison, "withhold": withhold, "clones": tuple(clones)}
    return type("TamperedRexApp", (TamperedRexApp,), persona)
