"""Deterministic fault injection, the adversary, and the chaos runner.

The paper assumes a healthy LAN and leaves fault tolerance as future
work (Section III-D); this package supplies the hostile network.  A
seeded :class:`FaultPlan` describes what goes wrong (loss, duplication,
reordering, corruption, crashes, attestation refusal, stragglers), the
:class:`FaultInjector` replays it deterministically against the
transport, and :func:`run_chaos` drives a whole cluster through it in
tolerance mode, producing a :class:`ChaosReport`.

The injector runs in the untrusted world: it manipulates only
ciphertext and metadata on the wire, exactly like a real network
adversary -- which is why the recovery story lives in the enclaves and
the transport, not here.

All adversary code lives here; the honest stack has no line of it.
Snapshot replay needs only a compromised host.  Poisoning, free-riding
and sybil cloning rewrite Algorithm 2's share step, which no host can do
from outside: they are a *modified enclave build*, :class:`TamperedRexApp`
(the one trusted module here), loaded by a :class:`CompromisedHost`.
With an intact TEE every honest peer refuses that build's quote.
:func:`run_chaos`'s attack matrix is the broken-TEE tier: each
compromised host first forges the honest measurement, and
:class:`~repro.core.config.DefenseConfig` is what remains.
"""

from repro.faults.compromised import CompromisedHost, compromise
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    NAMED_PLANS,
    CrashEvent,
    FaultPlan,
    LinkFaults,
    PoisonAttack,
    ReplayAttack,
    SybilAttack,
)
from repro.faults.runner import ChaosController, ChaosReport, run_chaos
from repro.faults.tampered import TamperedRexApp, tampered_build

__all__ = [
    "ChaosController",
    "ChaosReport",
    "CompromisedHost",
    "CrashEvent",
    "FaultInjector",
    "FaultPlan",
    "LinkFaults",
    "NAMED_PLANS",
    "PoisonAttack",
    "ReplayAttack",
    "SybilAttack",
    "TamperedRexApp",
    "compromise",
    "run_chaos",
    "tampered_build",
]
