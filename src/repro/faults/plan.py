"""Declarative, seedable fault plans.

A :class:`FaultPlan` is the complete description of one hostile-network
scenario: per-link loss/duplication/reordering/corruption rates, node
crash-and-restart events, attestation refusal, and straggler links.  It
carries no randomness itself -- the :class:`~repro.faults.injector.
FaultInjector` pairs a plan with an experiment seed, so every chaos run
is exactly replayable from ``(seed, plan)``.

Named plans (:data:`NAMED_PLANS`) cover the scenarios the chaos test
suite and ``repro chaos`` exercise; ``mixed-churn`` is the acceptance
scenario (10% loss + one crash/restart + one straggler).

Beyond crash-style faults, a plan can assign Byzantine *attacker
personas* to nodes: data poisoning (:class:`PoisonAttack`), free-riding,
sybil identity cloning (:class:`SybilAttack`) -- all three a tampered
enclave build (:mod:`repro.faults.tampered`) -- and stale-snapshot
replay at serve time (:class:`ReplayAttack`, host-only).  Attack
behavior draws only from its own seeded child stream, so attack runs
stay ``(seed, plan)``-pure; ``defended`` selects whether the enclave-side
defenses are armed, and every attack plan has an undefended ``-open``
twin that proves the attack actually bites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.config import FaultToleranceConfig

__all__ = [
    "LinkFaults",
    "CrashEvent",
    "PoisonAttack",
    "SybilAttack",
    "ReplayAttack",
    "FaultPlan",
    "NAMED_PLANS",
]


@dataclass(frozen=True)
class LinkFaults:
    """Per-transmission fault probabilities (applied independently).

    Rates are evaluated with a single uniform draw per transmission
    attempt, in the fixed order drop, corrupt, duplicate, delay; their
    sum must therefore not exceed 1.
    """

    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    #: Upper bound (inclusive) on the random delay, in network ticks.
    max_delay_ticks: int = 3

    def __post_init__(self) -> None:
        rates = (self.drop_rate, self.corrupt_rate, self.duplicate_rate, self.delay_rate)
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise ValueError("fault rates must be probabilities in [0, 1]")
        if sum(rates) > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        if self.max_delay_ticks < 1:
            raise ValueError("max delay must be at least one tick")

    @property
    def any_active(self) -> bool:
        return (self.drop_rate + self.corrupt_rate + self.duplicate_rate + self.delay_rate) > 0


@dataclass(frozen=True)
class CrashEvent:
    """Kill ``node`` once any live node completes ``at_epoch`` epochs.

    ``restart_after_ticks`` schedules the reborn incarnation that many
    network ticks after the kill; ``None`` means the node stays dead.
    """

    node: int
    at_epoch: int
    restart_after_ticks: Optional[int] = 8

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("crash target must be a node id")
        if self.at_epoch < 1:
            raise ValueError("crash epoch must be at least 1 (epoch 0 is bootstrap)")
        if self.restart_after_ticks is not None and self.restart_after_ticks < 1:
            raise ValueError("restart delay must be at least one tick")


@dataclass(frozen=True)
class PoisonAttack:
    """Shilling / profile-injection by a tampered enclave build.

    Each attacker node shares fabricated profiles instead of an honest
    sample of its store: ``fake_users`` synthetic profiles, each rating
    ``target_item`` at the scale-maximum ``rating`` and ``filler_items``
    seeded-random items at the scale-bottom ``filler_rating`` -- the
    classic *love/hate* push attack (the target climbs into every top-K
    while the fillers drag honest item biases down).  Profile user ids
    come from the top of the id space, one disjoint block per attacker
    identity.  Model-sharing runs ship the model state scaled by
    ``model_boost`` instead.
    """

    nodes: Tuple[int, ...] = ()
    target_item: int = 111
    rating: float = 5.0
    filler_rating: float = 1.0
    fake_users: int = 4
    filler_items: int = 59
    model_boost: float = 100.0

    def __post_init__(self) -> None:
        if any(n < 0 for n in self.nodes):
            raise ValueError("poison nodes must be node ids")
        if self.fake_users < 1 or self.filler_items < 0:
            raise ValueError("poison profile shape invalid")


@dataclass(frozen=True)
class SybilAttack:
    """One compromised node presents ``clones`` extra cloned identities.

    The attacker replays its own (valid) quote under fabricated peer ids
    -- the quote proves *code* identity, not *who is speaking* -- and
    pushes one poison share per clone per round through channels derived
    from the same enclave DH key, multiplying its vote without defenses.
    Clone ids are assigned at runtime above the real id range.
    """

    node: int = 1
    clones: int = 3
    payload: PoisonAttack = field(
        default_factory=lambda: PoisonAttack(nodes=(), fake_users=4, filler_items=59)
    )

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("sybil attacker must be a node id")
        if self.clones < 1:
            raise ValueError("a sybil attack needs at least one clone")


@dataclass(frozen=True)
class ReplayAttack:
    """A host rolls its serving replica back to a stale snapshot.

    The host captures the enclave's snapshot publication at
    ``capture_epoch`` (version ``stale_version``) and, at serve time,
    answers queries from that stale version instead of the freshly
    published one -- silently degrading recommendation quality without
    touching training.  The monotonicity defense pins the version
    high-water mark inside the enclave.
    """

    node: int = 0
    capture_epoch: int = 1
    stale_version: int = 1

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("replay host must be a node id")
        if self.capture_epoch < 1:
            raise ValueError("capture epoch must be at least 1")


@dataclass(frozen=True)
class FaultPlan:
    """One named, fully-declarative chaos scenario."""

    name: str
    description: str = ""
    link: LinkFaults = field(default_factory=LinkFaults)
    crashes: Tuple[CrashEvent, ...] = ()
    #: Nodes whose links (either direction) get fixed extra latency.
    stragglers: Tuple[int, ...] = ()
    straggler_delay_ticks: int = 3
    #: Nodes whose attestation quotes are swallowed in both directions:
    #: they can never establish channels and must be survived around.
    refuse_attestation: Tuple[int, ...] = ()
    #: Recovery knobs the runner installs alongside the plan.
    barrier_patience_ticks: int = 12
    suspect_after_timeouts: int = 2
    max_attempts: int = 4
    backoff_base_ticks: int = 1
    # -- Byzantine personas (empty/None: classic crash-fault plan) ------ #
    #: Nodes whose (tampered) enclaves share shilling profiles.
    poison: Optional[PoisonAttack] = None
    #: Nodes that consume every share but send only empty barriers.
    free_riders: Tuple[int, ...] = ()
    #: One node presenting cloned quotes under fabricated identities.
    sybil: Optional[SybilAttack] = None
    #: One host replaying a stale snapshot on the serve path.
    replay: Optional[ReplayAttack] = None
    #: Arm the enclave-side defenses (quote pinning, admission quotas,
    #: rating sanity, snapshot monotonicity) for this plan's runs.
    defended: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a fault plan needs a name")
        if self.straggler_delay_ticks < 1:
            raise ValueError("straggler delay must be at least one tick")

    @property
    def attacks_active(self) -> bool:
        return bool(self.attack_personas())

    def attack_personas(self) -> Dict[str, Tuple[int, ...]]:
        """Persona -> attacker node ids (for reports and role wiring)."""
        personas: Dict[str, Tuple[int, ...]] = {}
        if self.poison and self.poison.nodes:
            personas["poison"] = tuple(self.poison.nodes)
        if self.free_riders:
            personas["free_rider"] = tuple(self.free_riders)
        if self.sybil is not None:
            personas["sybil"] = (self.sybil.node,)
        if self.replay is not None:
            personas["replay"] = (self.replay.node,)
        return personas

    def tolerance(self) -> FaultToleranceConfig:
        """The runtime tolerance config this plan expects to run under."""
        return FaultToleranceConfig(
            enabled=True,
            barrier_patience_ticks=self.barrier_patience_ticks,
            suspect_after_timeouts=self.suspect_after_timeouts,
            max_attempts=self.max_attempts,
            backoff_base_ticks=self.backoff_base_ticks,
        )


#: The canonical scenario catalog for tests and ``repro chaos``.
NAMED_PLANS: Dict[str, FaultPlan] = {
    plan.name: plan
    for plan in (
        FaultPlan(
            name="baseline",
            description="no faults injected (tolerance machinery engaged but idle)",
        ),
        FaultPlan(
            name="lossy",
            description="10% of transmissions dropped; ARQ retries recover",
            link=LinkFaults(drop_rate=0.10),
        ),
        FaultPlan(
            name="dup-reorder",
            description="duplicated and delayed frames; replay protection filters them",
            link=LinkFaults(duplicate_rate=0.08, delay_rate=0.12, max_delay_ticks=4),
        ),
        FaultPlan(
            name="corrupt",
            description="bit-flipped frames; AEAD rejects, retransmission recovers",
            link=LinkFaults(corrupt_rate=0.08),
        ),
        FaultPlan(
            name="crash",
            description="one node dies at epoch 2 and restarts (fresh key, re-attest)",
            crashes=(CrashEvent(node=1, at_epoch=2, restart_after_ticks=8),),
        ),
        FaultPlan(
            name="refuse-attest",
            description="one node never completes attestation; peers proceed without it",
            refuse_attestation=(2,),
        ),
        FaultPlan(
            name="mixed-churn",
            description="10% loss + one crash/restart + one straggler link",
            link=LinkFaults(drop_rate=0.10),
            crashes=(CrashEvent(node=1, at_epoch=2, restart_after_ticks=6),),
            stragglers=(2,),
            straggler_delay_ticks=3,
        ),
        # -- Byzantine personas (each with an undefended "-open" twin) -- #
        FaultPlan(
            name="poison",
            description="one node injects shilling profiles; rating-sanity "
            "checks and admission quotas reject them",
            poison=PoisonAttack(nodes=(1, 5), filler_rating=0.5, filler_items=99),
        ),
        FaultPlan(
            name="poison-open",
            description="shilling profiles with defenses disarmed "
            "(degradation baseline)",
            poison=PoisonAttack(nodes=(1, 5), filler_rating=0.5, filler_items=99),
            defended=False,
        ),
        FaultPlan(
            name="free-ride",
            description="two nodes consume shares but contribute only empty "
            "barriers; detection flags them",
            free_riders=(1, 3),
        ),
        FaultPlan(
            name="free-ride-open",
            description="free-riders with defenses disarmed",
            free_riders=(1, 3),
            defended=False,
        ),
        FaultPlan(
            name="sybil",
            description="one node replays its quote under cloned identities; "
            "quote pinning rejects the clones",
            sybil=SybilAttack(
                node=1,
                clones=4,
                payload=PoisonAttack(filler_rating=0.5, filler_items=118),
            ),
        ),
        FaultPlan(
            name="sybil-open",
            description="cloned identities with defenses disarmed "
            "(amplified poisoning lands)",
            sybil=SybilAttack(
                node=1,
                clones=4,
                payload=PoisonAttack(filler_rating=0.5, filler_items=118),
            ),
            defended=False,
        ),
        FaultPlan(
            name="replay-serve",
            description="one host serves a stale captured snapshot; version "
            "monotonicity refuses the rollback",
            replay=ReplayAttack(node=0, capture_epoch=1, stale_version=1),
        ),
        FaultPlan(
            name="replay-serve-open",
            description="stale-snapshot serving with defenses disarmed",
            replay=ReplayAttack(node=0, capture_epoch=1, stale_version=1),
            defended=False,
        ),
        FaultPlan(
            name="byzantine-mix",
            description="poisoning + free-rider + sybil clones on a 10%-loss "
            "network, all defenses armed",
            link=LinkFaults(drop_rate=0.10),
            poison=PoisonAttack(nodes=(4,)),
            free_riders=(3,),
            sybil=SybilAttack(node=1, clones=2),
        ),
    )
}
