"""Run one observed experiment and export ``metrics.json``.

This is the machinery behind ``python -m repro metrics``: it executes
the *distributed* protocol path (:class:`~repro.core.cluster.RexCluster`
with enclaves, attestation and sealed channels), replays the
reported work through the LAN :class:`~repro.sim.time_model.StageTimer`,
and serializes everything the run observed -- per-stage spans, EPC
page-fault counters, per-edge traffic -- into one machine-readable
document CI can archive and gate on.

Document layout (``schema: repro.metrics/v1``)::

    {
      "schema": "repro.metrics/v1",
      "experiment": "fig1", "smoke": true,
      "config": {...},                     # scenario knobs
      "summary": {final_rmse, total_time_s, total_bytes, epochs, ...},
      "counters": [...], "gauges": [...], "histograms": [...],
      "spans": [...],                      # tracer JSONL objects
      "edges": [{"src": 0, "dst": 1, "bytes": n, "messages": m}, ...]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.cluster import RexCluster
from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.movielens import generate_node_shards
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.obs import Observability
from repro.sim.distributed import timeline_from_cluster
from repro.sim.recorder import RunResult
from repro.sim.time_model import LAN_TIME_MODEL

__all__ = [
    "METRICS_SCHEMA",
    "ObservedRun",
    "SMOKE_SCENARIO",
    "FULL_SCENARIOS",
    "run_observed_experiment",
    "build_metrics_document",
    "write_metrics_json",
]

METRICS_SCHEMA = "repro.metrics/v1"


@dataclass(frozen=True)
class Scenario:
    """Scenario knobs for one observed cluster run."""

    users: int
    items: int
    ratings: int
    nodes: int
    epochs: int
    share_points: int
    k: int
    dissemination: Dissemination = Dissemination.DPSGD
    scheme: SharingScheme = SharingScheme.DATA

    def as_dict(self) -> Dict[str, object]:
        return {
            "users": self.users,
            "items": self.items,
            "ratings": self.ratings,
            "nodes": self.nodes,
            "epochs": self.epochs,
            "share_points": self.share_points,
            "k": self.k,
            "dissemination": self.dissemination.value,
            "scheme": self.scheme.value,
        }


#: CI benchmark-smoke scenario: small enough to finish in seconds yet
#: large enough for the MF model to converge below the RMSE gate.
SMOKE_SCENARIO = Scenario(
    users=40, items=120, ratings=1_600, nodes=6, epochs=30, share_points=300, k=8
)

#: Full (non-smoke) scenarios, loosely following the paper's setups but
#: sized for a workstation rather than the 8-machine SGX testbed.
FULL_SCENARIOS: Dict[str, Scenario] = {
    "fig1": Scenario(
        users=200, items=1_000, ratings=30_000, nodes=20, epochs=40,
        share_points=300, k=10,
    ),
    "sgx": Scenario(
        users=200, items=1_000, ratings=30_000, nodes=8, epochs=40,
        share_points=300, k=10,
    ),
}


@dataclass
class ObservedRun:
    """Everything ``repro metrics`` produces before serialization."""

    experiment: str
    smoke: bool
    scenario: Scenario
    result: RunResult
    obs: Observability
    cluster: RexCluster


def run_observed_experiment(
    experiment: str,
    *,
    smoke: bool = False,
    seed: int = 0,
    obs: Optional[Observability] = None,
) -> ObservedRun:
    """Execute one fully-observed distributed run.

    The cluster runs enclaves + attestation with sealed channels, so the
    exported document carries every metric family: enclave transitions,
    EPC paging, per-edge traffic, and the per-stage span timeline.
    """
    if experiment not in FULL_SCENARIOS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {sorted(FULL_SCENARIOS)}"
        )
    scenario = SMOKE_SCENARIO if smoke else FULL_SCENARIOS[experiment]
    obs = obs if obs is not None else Observability.create()

    split, train, test = generate_node_shards(
        "metrics",
        users=scenario.users,
        items=scenario.items,
        ratings=scenario.ratings,
        nodes=scenario.nodes,
    )
    topo = Topology.fully_connected(scenario.nodes)

    config = RexConfig(
        scheme=scenario.scheme,
        dissemination=scenario.dissemination,
        epochs=scenario.epochs,
        share_points=scenario.share_points,
        seed=seed,
        mf=MfHyperParams(k=scenario.k),
    )
    cluster = RexCluster(topo, config, obs=obs)
    run = cluster.run(train, test, global_mean=split.train.global_mean())
    result = timeline_from_cluster(run, time_model=LAN_TIME_MODEL, obs=obs)
    return ObservedRun(
        experiment=experiment,
        smoke=smoke,
        scenario=scenario,
        result=result,
        obs=obs,
        cluster=cluster,
    )


def _edge_rows(run: ObservedRun) -> List[Dict[str, int]]:
    meter = run.cluster.network.meter
    edge_bytes = meter.edge_bytes()
    edge_messages = meter.edge_messages()
    rows = []
    for (src, dst) in sorted(edge_bytes):
        rows.append(
            {
                "src": src,
                "dst": dst,
                "bytes": edge_bytes[(src, dst)],
                "messages": edge_messages.get((src, dst), 0),
            }
        )
    return rows


def build_metrics_document(run: ObservedRun) -> Dict[str, object]:
    """Serialize one observed run into the ``repro.metrics/v1`` document."""
    result = run.result
    snapshot = run.obs.metrics.snapshot()
    doc: Dict[str, object] = {
        "schema": METRICS_SCHEMA,
        "experiment": run.experiment,
        "smoke": run.smoke,
        "config": run.scenario.as_dict(),
        "summary": {
            "label": result.label,
            "final_rmse": result.final_rmse,
            "total_time_s": result.total_time_s,
            "total_bytes": result.total_bytes,
            "epochs": len(result.records),
            "network_bytes": run.cluster.network.meter.total_bytes,
            "network_messages": run.cluster.network.meter.total_messages,
        },
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
        "spans": [span.to_dict() for span in run.obs.tracer.spans],
        "edges": _edge_rows(run),
    }
    return doc


def write_metrics_json(run: ObservedRun, path: str) -> Dict[str, object]:
    """Build the document and write it to ``path``; returns the document."""
    doc = build_metrics_document(run)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc
