"""The ``repro.serve/v3`` report: one document for every serving run.

One run of the serving pipeline -- a single endpoint is the 1-shard x
1-replica fleet -- condenses into a :class:`ServeReport`: the traffic,
routing and model identities (seed, traffic spec, trace digest, ring
digest, snapshot version), the fleet-wide admission outcome (offered /
routed / failover / shed / completed), simulated throughput and latency
percentiles over every completion, cache effectiveness, ranking quality
against the held-out split, and a per-shard section with the shard's
snapshot digest, EPC accounting (resident bytes vs. the shard's cap,
page faults) and per-replica fault history.  What the v1 single-endpoint
document kept at the top level for its one enclave (``snapshot_digest``,
``epc``) is ``per_shard[0]`` of a 1x1 run; its ``workload`` is
``traffic``, its ``k`` is ``policy["shard"]["top_k"]`` and its
``admitted`` is ``routed``.

:class:`FleetServeReport` is the same document under the name
``run_fleet_experiment`` returns it by -- no field, no method, no schema
of its own.  It is a subclass rather than an alias only because the
benchmark (``bench/workloads.py::_serve_outcome``) picks the single
endpoint's precision gate by ``isinstance(report, FleetServeReport)``;
``run_serving_experiment`` hands back the plain :class:`ServeReport`.

Percentiles use the **nearest-rank** definition (the ceil(p*n)-th
smallest sample): it needs no interpolation, so two runs with identical
latency multisets produce byte-identical reports.

Untrusted module: everything here is sanitized counters and metadata.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["percentile", "ServeReport", "FleetServeReport"]


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]); nan for empty input."""
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    if p == 0.0:
        return float(ordered[0])
    rank = math.ceil(p / 100.0 * len(ordered))
    return float(ordered[rank - 1])


@dataclass
class ServeReport:
    """Everything one serving run produced, ready for JSON or a terminal."""

    seed: int
    nodes: int
    node_id: int
    shards: int
    replicas_per_shard: int
    snapshot_version: int
    traffic: dict
    trace_digest: str
    ring_digest: str
    policy: dict
    # -- fleet admission ------------------------------------------------ #
    offered: int
    #: Admissions into a replica queue (a request re-routed after its
    #: replica crashed is admitted, and counted, again).
    routed: int
    failover: int
    shed: int
    deferred: int
    routing_errors: int
    completed: int
    # -- time ----------------------------------------------------------- #
    duration_s: float
    throughput_rps: float
    #: Simulated seconds the enclaves spent serving dispatched batches
    #: (the *service window*).  ``completed / busy_s`` is the capacity
    #: throughput -- the only window comparable across scenarios whose
    #: arrival processes differ (an arrival-bound run's wall-clock
    #: throughput measures the workload, not the server).
    busy_s: float
    latency_s: Dict[str, float]
    # -- faults --------------------------------------------------------- #
    crashes: int
    restarts: int
    # -- caching (load phase only) / quality (optional) ----------------- #
    cache: Dict[str, float]
    quality: Dict[str, float] = field(default_factory=dict)
    # -- per-shard snapshot, EPC + replica detail ----------------------- #
    per_shard: List[dict] = field(default_factory=list)

    @classmethod
    def latency_summary(cls, latencies: Sequence[float]) -> Dict[str, float]:
        """The fixed percentile set every serve report carries."""
        count = len(latencies)
        return {
            "count": float(count),
            "mean": float(sum(latencies) / count) if count else float("nan"),
            "p50": percentile(latencies, 50.0),
            "p95": percentile(latencies, 95.0),
            "p99": percentile(latencies, 99.0),
            "max": max(latencies) if count else float("nan"),
        }

    def to_dict(self) -> dict:
        doc = {"schema": "repro.serve/v3"}
        doc.update(asdict(self))
        return doc

    def format_lines(self) -> List[str]:
        lat = self.latency_s
        hit_pct = 100.0 * (self.cache_hit_rate or 0.0)
        shed_pct = 100.0 * self.shed / self.offered if self.offered else 0.0
        lines = [
            f"serve fleet {self.shards} shards x {self.replicas_per_shard} replicas "
            f"node {self.node_id}/{self.nodes} seed={self.seed} "
            f"k={self.policy['shard']['top_k']} snapshot v{self.snapshot_version} "
            f"ring {self.ring_digest[:16]}…",
            f"  trace digest     {self.trace_digest[:16]}…",
            f"  requests         {self.offered} offered, {self.routed} routed, "
            f"{self.failover} failover, {self.shed} shed "
            f"({shed_pct:.1f}%), {self.completed} completed",
            f"  routing errors   {self.routing_errors}",
            f"  faults           {self.crashes} crashes, {self.restarts} restarts",
            f"  throughput       {self.throughput_rps:.1f} req/s over "
            f"{self.duration_s * 1e3:.1f} ms simulated "
            f"({self.busy_s * 1e3:.1f} ms busy)",
            f"  latency          p50 {lat['p50'] * 1e3:.3f} ms, "
            f"p95 {lat['p95'] * 1e3:.3f} ms, p99 {lat['p99'] * 1e3:.3f} ms",
            f"  cache            {self.cache.get('hits', 0):.0f} hits / "
            f"{self.cache.get('misses', 0):.0f} misses ({hit_pct:.1f}% hit rate)",
        ]
        if self.quality:
            parts = ", ".join(f"{k}={v:.4f}" for k, v in sorted(self.quality.items()))
            lines.append(f"  quality          {parts}")
        for shard in self.per_shard:
            epc = shard["epc"]
            lines.append(
                f"  shard {shard['shard']:>2}         {shard['users']} users "
                f"({shard['snapshot_digest'][:16]}…), "
                f"{epc['resident_bytes'] / 1024:.0f} KiB resident / "
                f"{epc['cap_bytes'] / 1024:.0f} KiB cap "
                f"(x{epc['overcommit']:.2f}), {epc['page_faults']:.0f} page faults"
            )
        return lines

    # Convenience accessors the tests read.
    @property
    def capacity_rps(self) -> float:
        """Completions over the service window (scenario-comparable)."""
        return self.completed / self.busy_s if self.busy_s > 0 else 0.0

    @property
    def cache_hit_rate(self) -> Optional[float]:
        total = self.cache.get("hits", 0.0) + self.cache.get("misses", 0.0)
        return self.cache.get("hits", 0.0) / total if total else None


class FleetServeReport(ServeReport):
    """The one report, as the pipeline's own entry point returns it."""
