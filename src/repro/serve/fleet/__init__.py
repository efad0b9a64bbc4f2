"""Sharded serving fleet: consistent-hash routing + replicated failover.

One serving enclave cannot hold a population-scale catalog inside EPC
(the paper's Fig. 7 paging analysis is exactly about what happens when
it tries).  This package scales :mod:`repro.serve` from one endpoint to
a fleet -- and the one endpoint is its 1-shard x 1-replica case:

- :mod:`repro.serve.fleet.router` -- a consistent-hash ring mapping user
  ids to shards with bounded key movement on membership change (shared).
- :mod:`repro.serve.fleet.shard` -- user-partitioned snapshot shards:
  each shard's enclave holds only its partition's user-embedding rows
  plus the (replicated) item side, so per-shard EPC accounting is honest
  (trusted).
- :mod:`repro.serve.fleet.balancer` -- the front-end load balancer: a
  bounded global queue ahead of per-replica admission queues, with
  snapshot-version-aware failover across replicas (shared).
- :mod:`repro.serve.fleet.runner` -- the kernel-driven train -> shard ->
  serve pipeline behind ``repro serve`` (plays every role, like
  :mod:`repro.sim`); its report is :class:`repro.serve.report.ServeReport`
  (``repro.serve/v2``), returned under the name ``FleetServeReport``.
"""

from repro.serve.fleet.balancer import FleetBalancer, FleetPolicy, ShardReplica
from repro.serve.fleet.router import HashRing
from repro.serve.fleet.runner import run_fleet_experiment
from repro.serve.report import FleetServeReport

__all__ = [
    "FleetBalancer",
    "FleetPolicy",
    "FleetServeReport",
    "HashRing",
    "ShardReplica",
    "run_fleet_experiment",
]
