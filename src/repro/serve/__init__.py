"""Enclave-hosted serving layer: turn a trained node into an endpoint.

The paper trains a recommender inside SGX enclaves and stops at test
RMSE; this package builds the missing deployment half -- the query path
that actually *serves* top-N recommendations from a trained node, inside
the same software-enclave model the training protocol uses:

- :mod:`repro.serve.snapshot` -- immutable, versioned model snapshots
  published copy-on-write from a live model, with SHA-256 content
  digests and wire/EPC working-set accounting (trusted).
- :mod:`repro.serve.scoring` -- vectorized batched top-K kernels with
  per-user seen-item exclusion and deterministic tie-breaking (trusted).
- :mod:`repro.serve.cache` -- LRU top-N result cache and hot-embedding
  cache, flushed whenever a snapshot is installed, counted in obs
  (trusted).
- :mod:`repro.serve.endpoint` -- the enclave-resident serving engine and
  :class:`ServeEnclaveApp`, the one serving trusted application: every
  endpoint and every shard replica boots it (trusted).
- :mod:`repro.serve.server` -- the untrusted host driver: bounded
  admission queue, batching window, load shedding, simulated-latency
  accounting against the SGX cost model.
- :mod:`repro.serve.costing` -- the one batch-pricing helper every
  replica's server charges against.
- :mod:`repro.serve.workload` -- seeded Zipf-popularity workload
  generator, the production :class:`TrafficModel` (diurnal + flash
  crowds + heavy-tailed users) and the open-loop trace driver.
- :mod:`repro.serve.report` -- the one ``repro.serve/v3`` JSON document:
  routing/failover/shed accounting, latency percentiles, cache, quality
  and per-shard snapshot + EPC sections.
- :mod:`repro.serve.fleet` -- the serving stack behind ``repro serve``:
  consistent-hash routing, user-partitioned shard payloads, replicated
  failover, and the one train -> shard -> serve -> report pipeline
  (:mod:`repro.serve.fleet.runner`).
- :mod:`repro.serve.runner` -- the single endpoint, i.e. that pipeline
  at 1 shard x 1 replica (an adapter, not a second pipeline).

Trust split: snapshots hold plaintext model parameters and the exclusion
index is derived from the raw rating store, so everything that touches
them stays enclave-resident; the host sees only encoded payloads going
*in* through ecalls and recommendation lists (item ids + scores, the
system's sanctioned output) coming back.
"""

from repro.serve.costing import ServeCostModel
from repro.serve.report import ServeReport
from repro.serve.runner import run_serving_experiment, train_and_load
from repro.serve.server import RecServer, Request, ServePolicy
from repro.serve.workload import (
    TrafficModel,
    TrafficSpec,
    WorkloadGenerator,
    WorkloadSpec,
)

__all__ = [
    "RecServer",
    "Request",
    "ServeCostModel",
    "ServePolicy",
    "ServeReport",
    "TrafficModel",
    "TrafficSpec",
    "WorkloadGenerator",
    "WorkloadSpec",
    "run_serving_experiment",
    "train_and_load",
]
