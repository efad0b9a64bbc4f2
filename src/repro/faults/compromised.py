"""The untrusted half of the adversary: hosts that load a tampered build.

A participant who controls its machine can load any enclave it likes;
what it cannot do, with an intact TEE, is make that enclave *quote* as
the honest one.  :class:`CompromisedHost` is a :class:`~repro.core.host.
RexHost` whose ``app_class`` is a :mod:`repro.faults.tampered` build,
plus the ``send_as`` ocall that build needs.  :func:`compromise` alone is
the intact-TEE tier (every honest peer refuses the quote, defenses off);
the attack matrix additionally calls :meth:`CompromisedHost.
forge_measurement` -- the broken-TEE tier, where
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
        #: Extra network identities (clone id -> endpoint) this host owns.
        self.clone_endpoints: Dict[int, Endpoint] = {}
        super().__init__(node_id, platform, endpoint)

    def _load_enclave(self, enclave_id: str) -> None:
        super()._load_enclave(enclave_id)
        self.enclave.register_ocall("send_as", self._ocall_send_as)
        if self._claimed is not None:  # the break outlives a restart
            self.enclave.measurement = self._claimed

    def _ocall_send_as(self, source: int, destination: int, kind: str, payload: bytes) -> None:
        """Send under a cloned identity this host owns."""
        self.clone_endpoints[int(source)].send(int(destination), payload, kind=kind)

    def forge_measurement(self) -> None:
        """Broken-TEE power (call before bootstrap): quotes and channel
        keys now carry the honest build's measurement -- precisely what an
        intact TEE rules out."""
        self._claimed = measure_class(RexHost.app_class)
        self.enclave.measurement = self._claimed


def compromise(cluster: RexCluster, plan: FaultPlan) -> Dict[int, str]:
    """Swap the plan's attacker nodes for compromised hosts, pre-bootstrap.

    Returns ``{node: persona}``; forges nothing.  Attacker ids beyond the
    cluster size are dropped (plans are size-agnostic, like crash events)
    and clone ids start above the real id range.
    """
    nodes = len(cluster.hosts)
    builds: Dict[int, tuple] = {}
    if plan.poison is not None:
        build = tampered_build(poison=plan.poison)
        builds.update((n, ("poison", build)) for n in plan.poison.nodes if n < nodes)
    if plan.free_riders:
        build = tampered_build(withhold=True)
        builds.update((n, ("free_rider", build)) for n in plan.free_riders if n < nodes)
    if plan.sybil is not None and plan.sybil.node < nodes:
        clones = tuple(range(nodes, nodes + plan.sybil.clones))
        build = tampered_build(poison=plan.sybil.payload, clones=clones)
        builds[plan.sybil.node] = ("sybil", build)
    for node, (_persona, build) in builds.items():
        honest = cluster.hosts[node]
        # The machine is the adversary's: unload what the operator put there.
        honest.platform.enclave_ids.discard(honest.enclave.enclave_id)
        host = CompromisedHost(node, honest.platform, honest.endpoint, build)
        for clone in build.clones:
            host.clone_endpoints[clone] = cluster.network.endpoint(clone)
        cluster.hosts[node] = host
    return {node: persona for node, (persona, _build) in builds.items()}
