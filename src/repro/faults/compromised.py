"""The untrusted half of the adversary: hosts that load a tampered build.

A participant who controls its machine can load any enclave it likes;
what it cannot do, with an intact TEE, is make that enclave *quote* as
the honest one.  :class:`CompromisedHost` is a :class:`~repro.core.host.
RexHost` whose ``app_class`` is a :mod:`repro.faults.tampered` build.
:func:`compromise` alone is the intact-TEE tier (every honest peer
refuses the quote, defenses off); the attack matrix additionally calls
:meth:`CompromisedHost.forge_measurement` -- the broken-TEE tier, where
:class:`~repro.core.config.DefenseConfig` is what remains.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.cluster import RexCluster
from repro.core.host import RexHost
from repro.faults.plan import FaultPlan
from repro.faults.tampered import tampered_build
from repro.net.transport import Endpoint
from repro.tee.enclave import Platform
from repro.tee.measurement import Measurement, measure_class

__all__ = ["CompromisedHost", "compromise"]


class CompromisedHost(RexHost):
    """A host that boots ``build`` instead of the attested Algorithm 2."""

    def __init__(self, node_id: int, platform: Platform, endpoint: Endpoint, build: type):
        self.app_class = build
        #: Measurement a broken TEE vouches for instead of the build's own.
        self._claimed: Optional[Measurement] = None
        super().__init__(node_id, platform, endpoint)

    def _load_enclave(self, enclave_id: str) -> None:
        super()._load_enclave(enclave_id)
        if self._claimed is not None:  # the break outlives a restart
            self.enclave.measurement = self._claimed

    def forge_measurement(self) -> None:
        """Broken-TEE power (call before bootstrap): quotes and channel
        keys now carry the honest build's measurement -- precisely what an
        intact TEE rules out."""
        self._claimed = measure_class(RexHost.app_class)
        self.enclave.measurement = self._claimed


def compromise(cluster: RexCluster, plan: FaultPlan) -> Dict[int, str]:
    """Swap the plan's poison nodes for compromised hosts, pre-bootstrap.

    Returns ``{node: persona}``; forges nothing.  Attacker ids beyond the
    cluster size are dropped (plans are size-agnostic, like crash events).
    """
    if plan.poison is None:
        return {}
    build = tampered_build(poison=plan.poison)
    attackers = [n for n in plan.poison.nodes if n < len(cluster.hosts)]
    for node in attackers:
        honest = cluster.hosts[node]
        # The machine is the adversary's: unload what the operator put there.
        honest.platform.enclave_ids.discard(honest.enclave.enclave_id)
        cluster.hosts[node] = CompromisedHost(node, honest.platform, honest.endpoint, build)
    return {node: "poison" for node in attackers}
