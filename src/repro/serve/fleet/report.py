"""The ``repro.serve-fleet/v1`` report: routing, failover, per-shard EPC.

One fleet run condenses into a :class:`FleetServeReport`: the traffic
and routing identities (seed, traffic spec, trace digest, ring digest),
the fleet-wide admission outcome (offered / routed / failover / shed /
completed), latency percentiles over every completion, and a per-shard
section with EPC accounting (resident bytes vs. the shard's cap) and
per-replica fault history.  Latency percentiles reuse the nearest-rank
:func:`~repro.serve.report.percentile` of the single-endpoint report, so
byte-identical runs produce byte-identical documents.

Untrusted module: everything here is sanitized counters and metadata.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List

from repro.serve.report import ServeReport

__all__ = ["FleetServeReport"]


@dataclass
class FleetServeReport:
    """Everything one fleet run produced, ready for JSON or a terminal."""

    seed: int
    shards: int
    replicas_per_shard: int
    traffic: dict
    trace_digest: str
    ring_digest: str
    policy: dict
    # -- fleet admission ------------------------------------------------ #
    offered: int
    routed: int
    failover: int
    shed: int
    deferred: int
    stale_rejected: int
    routing_errors: int
    completed: int
    # -- time ----------------------------------------------------------- #
    duration_s: float
    throughput_rps: float
    busy_s: float
    latency_s: Dict[str, float]
    # -- faults --------------------------------------------------------- #
    crashes: int
    restarts: int
    # -- per-shard EPC + replica detail --------------------------------- #
    per_shard: List[dict] = field(default_factory=list)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def aggregate_resident_bytes(self) -> int:
        return sum(int(s["epc"]["resident_bytes"]) for s in self.per_shard)

    @classmethod
    def latency_summary(cls, latencies) -> Dict[str, float]:
        return ServeReport.latency_summary(latencies)

    def to_dict(self) -> dict:
        doc = {"schema": "repro.serve-fleet/v1"}
        doc.update(asdict(self))
        return doc

    def format_lines(self) -> List[str]:
        lat = self.latency_s
        shed_pct = 100.0 * self.shed_rate
        lines = [
            f"fleet {self.shards} shards x {self.replicas_per_shard} replicas "
            f"seed={self.seed} ring {self.ring_digest[:16]}…",
            f"  trace digest     {self.trace_digest[:16]}…",
            f"  requests         {self.offered} offered, {self.routed} routed, "
            f"{self.failover} failover, {self.shed} shed ({shed_pct:.1f}%), "
            f"{self.completed} completed",
            f"  routing errors   {self.routing_errors} "
            f"(stale loads rejected: {self.stale_rejected})",
            f"  faults           {self.crashes} crashes, {self.restarts} restarts",
            f"  throughput       {self.throughput_rps:.1f} req/s over "
            f"{self.duration_s * 1e3:.1f} ms simulated "
            f"({self.busy_s * 1e3:.1f} ms busy)",
            f"  latency          p50 {lat['p50'] * 1e3:.3f} ms, "
            f"p95 {lat['p95'] * 1e3:.3f} ms, p99 {lat['p99'] * 1e3:.3f} ms",
        ]
        for shard in self.per_shard:
            epc = shard["epc"]
            cap = epc["cap_bytes"]
            lines.append(
                f"  shard {shard['shard']:>2}        {shard['users']} users, "
                f"{epc['resident_bytes'] / 1024:.0f} KiB resident / "
                f"{cap / 1024:.0f} KiB cap "
                f"({100.0 * epc['resident_bytes'] / cap:.0f}%)"
                if cap
                else f"  shard {shard['shard']:>2}        {shard['users']} users"
            )
        return lines
