"""Timing the distributed enclave runs (Figures 6-7, Table IV).

The :class:`~repro.core.cluster.RexCluster` executes the *real* protocol
-- enclaves, attestation, sealed channels -- and reports exact per-epoch
work counts.  This module replays those counts through the
:class:`~repro.sim.time_model.StageTimer` under a chosen SGX cost model,
yielding the same :class:`~repro.sim.recorder.RunResult` the figures
consume.

There is one build and two price lists.  :data:`~repro.tee.cost_model.
SGX1_COST_MODEL` (the default) charges transitions, AEAD, memory
encryption and EPC paging; :data:`~repro.tee.cost_model.NATIVE_COST_MODEL`
prices the *same* run as the paper's native build (no enclave charges,
but on-demand page-allocation charges -- the source of the paper's
share-step anomaly).  No training step reads the sim clock, so repricing
a run gives exactly the curve a separate native run would.  The one
residue is on the wire: native rows still carry each frame's 24-byte
channel overhead (:data:`~repro.core.channel.CHANNEL_OVERHEAD_BYTES`),
because that is what the one build sends.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.core.cluster import ClusterRun
from repro.obs import Observability
from repro.sim.recorder import RunResult, fold_epoch
from repro.sim.time_model import DEFAULT_TIME_MODEL, StageTimer, TimeModel
from repro.tee.cost_model import SGX1_COST_MODEL, SgxCostModel

__all__ = ["timeline_from_cluster"]


def _column(stats, name: str) -> np.ndarray:
    """One per-node work count of an epoch, as the float array the timer prices."""
    return np.array([getattr(s, name) for s in stats], dtype=np.float64)


def timeline_from_cluster(
    run: ClusterRun,
    *,
    cost_model: SgxCostModel = SGX1_COST_MODEL,
    time_model: TimeModel = DEFAULT_TIME_MODEL,
    obs: Optional[Observability] = None,
) -> RunResult:
    """Turn a cluster's reported work into a timed RunResult.

    The replay emits the shared per-epoch span/counter schema
    (:mod:`repro.obs.stages`) plus the EPC paging metrics the
    :class:`StageTimer` reports into ``obs`` (``None``: a private one).
    """
    obs = obs if obs is not None else Observability.create()
    timer = StageTimer(
        time_model=time_model, cost_model=cost_model, epc=run.epc, metrics=obs.metrics
    )
    cfg = run.config
    result = RunResult(
        label=f"{cfg.label}{' (SGX)' if cost_model.enabled else ' (native)'}",
        scheme=cfg.scheme.value,
        dissemination=cfg.dissemination.value,
        topology=run.topology.name,
        n_nodes=run.topology.n_nodes,
        model="mf",
        sgx=cost_model.enabled,
        metadata={
            "share_points": cfg.share_points,
            "attestation_messages": run.attestation_messages,
        },
    )

    for epoch in range(run.epochs_completed):
        stats = run.stats_for_epoch(epoch)
        col = functools.partial(_column, stats)
        staging, payload = col("staging_bytes"), col("shared_payload_bytes")
        serialized = col("serialized_bytes")
        full, empty = col("shared_messages"), col("shared_empty_messages")
        resident = col("store_bytes") + col("model_bytes") + staging
        work = dict(
            dedup_items=col("dedup_checked_items"),
            train_samples=col("train_samples"),
            serialized_bytes=serialized,
            payload_bytes=payload,
            messages=full,
            empty_messages=empty,
            test_samples=col("test_samples"),
            resident_bytes=resident,
            staging_bytes=staging,
            transitions=col("ecalls") + col("ocalls"),
            transition_bytes=col("transition_bytes"),
        )
        stages = timer.mf_stage_times(k=cfg.mf.k, merged_rows=col("merged_rows"), **work)
        fold_epoch(
            result,
            obs,
            stages=stages,
            overlap_share=cfg.parallel_share,
            rmse=float(np.nanmean(col("test_rmse"))),
            payload_bytes=int(payload.sum()),
            serialized_bytes=int(serialized.sum()),
            messages=int(full.sum() + empty.sum()),
            resident=resident,
        )
    return result
