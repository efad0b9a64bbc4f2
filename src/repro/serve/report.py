"""The ``repro.serve/v1`` report: throughput, latency, caching, EPC.

One serving run condenses into a :class:`ServeReport`: the workload and
snapshot identities (seed, spec, trace digest, snapshot digest), the
admission outcome (offered / admitted / shed / completed), simulated
throughput and latency percentiles, cache effectiveness, EPC paging
pressure, and -- when held-out ratings were provided -- ranking quality.

Percentiles use the **nearest-rank** definition (the ceil(p*n)-th
smallest sample): it needs no interpolation, so two runs with identical
latency multisets produce byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["percentile", "ServeReport"]


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
    snapshot_digest: str
    snapshot_version: int
    workload: dict
    trace_digest: str
    policy: dict
    k: int
    # -- admission ----------------------------------------------------- #
    offered: int
    admitted: int
    shed: int
    completed: int
    # -- time ---------------------------------------------------------- #
    duration_s: float
    throughput_rps: float
    #: Simulated seconds the enclave spent serving dispatched batches
    #: (the *service window*).  ``completed / busy_s`` is the capacity
    #: throughput -- the only window comparable across scenarios whose
    #: arrival processes differ (an arrival-bound run's wall-clock
    #: throughput measures the workload, not the server).
    busy_s: float
    latency_s: Dict[str, float]
    # -- caching / EPC ------------------------------------------------- #
    cache: Dict[str, float]
    epc: Dict[str, float]
    # -- quality (optional) -------------------------------------------- #
    quality: Dict[str, float] = field(default_factory=dict)

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
        doc = {"schema": "repro.serve/v1"}
        doc.update(asdict(self))
        return doc

    def format_lines(self) -> List[str]:
        lat = self.latency_s
        shed_pct = 100.0 * self.shed / self.offered if self.offered else 0.0
        hit_total = self.cache.get("hits", 0.0) + self.cache.get("misses", 0.0)
        hit_pct = 100.0 * self.cache.get("hits", 0.0) / hit_total if hit_total else 0.0
        lines = [
            f"serve node {self.node_id}/{self.nodes} seed={self.seed} "
            f"k={self.k} snapshot v{self.snapshot_version} "
            f"({self.snapshot_digest[:16]}…)",
            f"  trace digest     {self.trace_digest[:16]}…",
            f"  requests         {self.offered} offered, {self.admitted} admitted, "
            f"{self.shed} shed ({shed_pct:.1f}%), {self.completed} completed",
            f"  throughput       {self.throughput_rps:.1f} req/s over "
            f"{self.duration_s * 1e3:.1f} ms simulated",
            f"  latency          p50 {lat['p50'] * 1e3:.3f} ms, "
            f"p95 {lat['p95'] * 1e3:.3f} ms, p99 {lat['p99'] * 1e3:.3f} ms",
            f"  cache            {self.cache.get('hits', 0):.0f} hits / "
            f"{self.cache.get('misses', 0):.0f} misses ({hit_pct:.1f}% hit rate)",
            f"  epc              {self.epc.get('page_faults', 0):.0f} page faults, "
            f"overcommit x{self.epc.get('overcommit_ratio', 0):.2f}",
        ]
        if self.quality:
            parts = ", ".join(f"{k}={v:.4f}" for k, v in sorted(self.quality.items()))
            lines.append(f"  quality          {parts}")
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
