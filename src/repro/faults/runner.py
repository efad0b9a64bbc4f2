"""Run a whole cluster experiment under a fault plan and report on it.

``run_chaos`` is the one-call entry point behind ``repro chaos`` and the
chaos test suite: it builds a synthetic-MovieLens deployment, arms the
:class:`~repro.faults.injector.FaultInjector` and the crash/restart
controller, runs the cluster, and condenses what
happened -- injected faults, recoveries, losses, re-attestations, final
accuracy -- into a serializable :class:`ChaosReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.cluster import RexCluster
from repro.core.config import (
    DefenseConfig,
    Dissemination,
    RexConfig,
    SharingScheme,
)
from repro.data.movielens import generate_node_shards
from repro.faults.compromised import compromise
from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashEvent, FaultPlan, NAMED_PLANS
from repro.ml.metrics import precision_at_k, relevance_sets
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.obs import Observability
from repro.tee.errors import SnapshotReplayError

__all__ = ["ChaosController", "ChaosReport", "run_chaos"]

#: The serve probe of attack runs: top-K size and how many (lowest-id,
#: hence honest) users are probed.
PROBE_K = 10
PROBE_USERS = 20


class ChaosController:
    """Fires the plan's crash/restart events against a running cluster.

    Installed as :attr:`RexCluster.controller`; the pump loop calls
    :meth:`on_tick` once per tick.  Crash timing is keyed to
    protocol progress (any live node completing ``at_epoch`` epochs) and
    restart timing to simulated network time, so the whole churn history
    is as deterministic as the run itself.
    """

    def __init__(self, plan: FaultPlan, injector: FaultInjector, train_shards, test_shards,
                 *, global_mean: float = 3.5):
        self.plan = plan
        self.injector = injector
        self._train = list(train_shards)
        self._test = list(test_shards)
        self._global_mean = global_mean
        self._pending: List[CrashEvent] = sorted(plan.crashes, key=lambda e: e.at_epoch)
        self._restarts: List[Tuple[int, int]] = []  # (due_tick, node)
        #: Replay persona: snapshot publication to capture mid-run (the
        #: stale version the host will roll back to at serve time).
        self._capture = plan.replay
        self._captured = False

    @staticmethod
    def _max_live_epoch(cluster: RexCluster) -> int:
        return max(
            (h.epochs_done for h in cluster.hosts if h.node_id not in cluster.crashed),
            default=0,
        )

    def pending_work(self) -> bool:
        """Unfired crash/restart events the pump loop must wait for."""
        return bool(self._pending or self._restarts)

    def on_tick(self, cluster: RexCluster) -> None:
        now = cluster.network.now
        progress = self._max_live_epoch(cluster)
        if (
            self._capture is not None
            and not self._captured
            and progress >= self._capture.capture_epoch
            and self._capture.node < len(cluster.hosts)
            and self._capture.node not in cluster.crashed
        ):
            # Progress-keyed like crashes, so the captured (stale) model
            # is the same pure function of (seed, plan) as everything else.
            cluster.hosts[self._capture.node].publish_snapshot()
            self.injector.note("snapshot_capture", f"node={self._capture.node}")
            self._captured = True
        for event in list(self._pending):
            if event.node >= len(cluster.hosts) or event.at_epoch > cluster.config.epochs:
                self._pending.remove(event)  # plan written for a larger/longer run
                continue
            if progress >= event.at_epoch and event.node not in cluster.crashed:
                cluster.crash_node(event.node)
                self.injector.note("crash", f"node={event.node} epoch={progress}")
                if event.restart_after_ticks is not None:
                    self._restarts.append((now + event.restart_after_ticks, event.node))
                self._pending.remove(event)
        for due, node in list(self._restarts):
            if now >= due:
                cluster.restart_node(
                    node,
                    self._train[node],
                    self._test[node],
                    global_mean=self._global_mean,
                )
                self.injector.note("restart", f"node={node}")
                self._restarts.remove((due, node))


@dataclass
class ChaosReport:
    """Everything one chaos run produced, ready for JSON or a terminal."""

    plan: str
    seed: int
    nodes: int
    epochs: int
    scheme: str
    dissemination: str
    schedule_digest: str
    injected: Dict[str, int]
    recovered: float
    lost: float
    retries: float
    reattestations: float
    barrier_timeouts: float
    final_rmse: float
    node_rmse: Dict[int, float]
    node_epochs: Dict[int, int]
    baseline_rmse: Optional[float] = None
    events: List[str] = field(default_factory=list)
    # -- Byzantine extension (defaults keep crash-only runs unchanged) -- #
    #: Whether the enclave-side defenses were armed for this run.
    defended: bool = False
    #: Persona -> attacker node ids, from the plan.
    attackers: Dict[str, List[int]] = field(default_factory=dict)
    #: Per-kind breakdowns of the enclave defense counters (the obs
    #: registry keeps them per (node, kind); the report folds over nodes).
    rejected: Dict[str, float] = field(default_factory=dict)
    recovered_by_kind: Dict[str, float] = field(default_factory=dict)
    #: Attacker-side activity counters (``attack.injected`` by kind).
    attack_injected: Dict[str, float] = field(default_factory=dict)
    #: Serve-probe results (attack runs only; ``None`` otherwise).
    probe_k: Optional[int] = None
    precision: Optional[float] = None
    baseline_precision: Optional[float] = None

    @property
    def injected_total(self) -> int:
        return sum(self.injected.values())

    @property
    def rmse_delta(self) -> Optional[float]:
        if self.baseline_rmse is None:
            return None
        return self.final_rmse - self.baseline_rmse

    @property
    def rejected_total(self) -> float:
        return sum(self.rejected.values())

    @property
    def precision_drop(self) -> Optional[float]:
        """Precision@k lost vs the fault-free baseline (positive = worse)."""
        if self.precision is None or self.baseline_precision is None:
            return None
        return self.baseline_precision - self.precision

    def to_dict(self) -> dict:
        return {
            "schema": "repro.chaos/v2",
            "plan": self.plan,
            "seed": self.seed,
            "nodes": self.nodes,
            "epochs": self.epochs,
            "scheme": self.scheme,
            "dissemination": self.dissemination,
            "schedule_digest": self.schedule_digest,
            "injected": dict(sorted(self.injected.items())),
            "injected_total": self.injected_total,
            "recovered": self.recovered,
            "lost": self.lost,
            "retries": self.retries,
            "reattestations": self.reattestations,
            "barrier_timeouts": self.barrier_timeouts,
            "final_rmse": self.final_rmse,
            "baseline_rmse": self.baseline_rmse,
            "rmse_delta": self.rmse_delta,
            "node_rmse": {str(k): v for k, v in sorted(self.node_rmse.items())},
            "node_epochs": {str(k): v for k, v in sorted(self.node_epochs.items())},
            "events": list(self.events),
            "defended": self.defended,
            "attackers": {k: list(v) for k, v in sorted(self.attackers.items())},
            "rejected": dict(sorted(self.rejected.items())),
            "rejected_total": self.rejected_total,
            "recovered_by_kind": dict(sorted(self.recovered_by_kind.items())),
            "attack_injected": dict(sorted(self.attack_injected.items())),
            "probe_k": self.probe_k,
            "precision": self.precision,
            "baseline_precision": self.baseline_precision,
            "precision_drop": self.precision_drop,
        }

    def format_lines(self) -> List[str]:
        lines = [
            f"chaos plan {self.plan!r} seed={self.seed} "
            f"({self.nodes} nodes, {self.epochs} epochs, "
            f"{self.dissemination.upper()}, {self.scheme.upper()})",
            f"  schedule digest  {self.schedule_digest[:16]}…",
            f"  faults injected  {self.injected_total} "
            + (
                "(" + ", ".join(f"{k}={v}" for k, v in sorted(self.injected.items())) + ")"
                if self.injected
                else ""
            ),
            f"  recovered/lost   {self.recovered:.0f} recovered, {self.lost:.0f} lost, "
            f"{self.retries:.0f} retries",
            f"  churn            {self.reattestations:.0f} re-attestations, "
            f"{self.barrier_timeouts:.0f} barrier timeouts",
            f"  final RMSE       {self.final_rmse:.4f}"
            + (
                f" (fault-free {self.baseline_rmse:.4f}, delta {self.rmse_delta:+.4f})"
                if self.baseline_rmse is not None
                else ""
            ),
        ]
        if self.attackers:
            lines.append(
                "  attackers        "
                + ", ".join(
                    f"{persona}={list(nodes)}"
                    for persona, nodes in sorted(self.attackers.items())
                )
                + (" [defended]" if self.defended else " [open]")
            )
            lines.append(
                f"  defense          {self.rejected_total:.0f} rejected"
                + (
                    " (" + ", ".join(f"{k}={v:.0f}" for k, v in sorted(self.rejected.items())) + ")"
                    if self.rejected
                    else ""
                )
            )
        if self.precision is not None:
            line = f"  precision@{self.probe_k}     {self.precision:.4f}"
            if self.baseline_precision is not None:
                line += (
                    f" (fault-free {self.baseline_precision:.4f}, "
                    f"drop {self.precision_drop:+.4f})"
                )
            lines.append(line)
        return lines


def _probe_precision(host, relevant: Dict[int, set], *, version=None) -> float:
    """Mean precision@``PROBE_K`` over the lowest-id users with relevant test items.

    Low ids are honest by construction -- poison personas fabricate
    profiles from the *top* of the user id space -- so the probe measures
    what the attack does to genuine users' recommendations.
    """
    probe_users = sorted(relevant)[:PROBE_USERS]
    result = host.serve(probe_users, PROBE_K, version=version)
    precisions = [
        precision_at_k(np.asarray(row, dtype=np.int64), relevant[user], PROBE_K)
        for user, row in zip(probe_users, result["items"])
    ]
    return float(np.nanmean(precisions))


def run_chaos(
    plan: Union[str, FaultPlan],
    *,
    seed: int = 0,
    nodes: int = 8,
    epochs: int = 5,
    scheme: SharingScheme = SharingScheme.DATA,
    dissemination: Dissemination = Dissemination.DPSGD,
    users: int = 40,
    items: int = 120,
    ratings: int = 1_600,
    share_points: int = 60,
    k: int = 8,
    baseline: bool = False,
    defenses: Optional[bool] = None,
    obs: Optional[Observability] = None,
) -> ChaosReport:
    """Run one seeded chaos experiment end to end; returns the report.

    ``baseline=True`` additionally runs the identical scenario fault-free
    (no injector, no attackers, defenses off) and records its RMSE --
    and, for attack plans, its precision@k -- for comparison; that pair
    is what the acceptance tests assert on.  The baseline is the same
    run as ``run_chaos("baseline")``, bit for bit.

    ``defenses`` overrides the plan's ``defended`` flag (``None`` arms
    the enclave defenses exactly when the plan both carries attackers
    and declares itself defended, so crash-only plans keep their pinned
    pre-attack schedules byte-identical).  The post-run precision@k probe
    (``k = PROBE_K``) runs whenever the plan carries attackers.
    """
    if isinstance(plan, str):
        try:
            plan = NAMED_PLANS[plan]
        except KeyError:
            raise ValueError(
                f"unknown fault plan {plan!r}; choose from {sorted(NAMED_PLANS)}"
            ) from None
    obs = obs if obs is not None else Observability.create()

    armed = (plan.defended and plan.attacks_active) if defenses is None else bool(defenses)

    split, train, test = generate_node_shards(
        "chaos", users=users, items=items, ratings=ratings, nodes=nodes
    )
    global_mean = split.train.global_mean()
    topology = Topology.fully_connected(nodes)

    config = RexConfig(
        scheme=scheme,
        dissemination=dissemination,
        epochs=epochs,
        share_points=share_points,
        seed=seed,
        mf=MfHyperParams(k=k),
        defenses=DefenseConfig(enabled=True) if armed else DefenseConfig(),
    )
    cluster = RexCluster(topology, config, obs=obs)
    injector = FaultInjector(plan, seed, metrics=obs.metrics).attach(cluster.network)
    # The attack matrix is the broken-TEE tier: each compromised host
    # forges the honest measurement over its tampered build.  (Unforged,
    # every honest peer refuses its quote and there is nothing to defend.)
    personas = compromise(cluster, plan)
    for node in sorted(personas):
        cluster.hosts[node].forge_measurement()
        injector.note("attack", f"node={node} persona={personas[node]} defended={armed}")
    cluster.controller = ChaosController(
        plan, injector, train, test, global_mean=global_mean
    )
    cluster.run(train, test, global_mean=global_mean)

    node_rmse: Dict[int, float] = {}
    node_epochs: Dict[int, int] = {}
    for host in cluster.hosts:
        status = host.status()
        node_rmse[host.node_id] = float(status["test_rmse"])
        node_epochs[host.node_id] = host.epochs_done
    final_rmse = sum(node_rmse.values()) / max(1, len(node_rmse))

    # -- serve-path probe (precision@k as genuine users see it) -------- #
    precision: Optional[float] = None
    relevant: Dict[int, set] = {}
    probe_node: Optional[int] = None
    if plan.attacks_active:
        relevant = relevance_sets(split.test)
        stale_version: Optional[int] = None
        if plan.replay is not None:
            probe_node = plan.replay.node  # the node whose host rolls back
            stale_version = plan.replay.stale_version
            injector.note("replay_serve", f"node={probe_node} defended={armed}")
        else:
            probe_node = min(
                n for n in range(nodes) if n not in personas and n not in cluster.crashed
            )
        probe_host = cluster.hosts[probe_node]
        probe_host.publish_snapshot()
        try:
            precision = _probe_precision(probe_host, relevant, version=stale_version)
        except SnapshotReplayError:
            # Defense held: the rollback was refused (and counted by the
            # enclave); the host must serve the fresh snapshot.
            precision = _probe_precision(probe_host, relevant)

    baseline_rmse: Optional[float] = None
    baseline_precision: Optional[float] = None
    if baseline:
        plain = RexCluster(topology, replace(config, defenses=DefenseConfig()))
        plain.run(train, test, global_mean=global_mean)
        baseline_rmse = sum(
            float(host.status()["test_rmse"]) for host in plain.hosts
        ) / len(plain.hosts)
        if probe_node is not None:
            plain_host = plain.hosts[probe_node]
            plain_host.publish_snapshot()
            baseline_precision = _probe_precision(plain_host, relevant)

    metrics = obs.metrics
    return ChaosReport(
        plan=plan.name,
        seed=seed,
        nodes=nodes,
        epochs=epochs,
        scheme=scheme.value,
        dissemination=dissemination.value,
        schedule_digest=injector.schedule_digest(),
        injected={
            kind: int(n) for kind, n in _kind_breakdown(metrics, "faults.injected").items()
        },
        recovered=metrics.total("faults.recovered"),
        lost=metrics.total("faults.lost"),
        retries=metrics.total("net.retries"),
        reattestations=metrics.total("faults.reattestations"),
        barrier_timeouts=metrics.total("faults.barrier_timeouts"),
        final_rmse=final_rmse,
        node_rmse=node_rmse,
        node_epochs=node_epochs,
        baseline_rmse=baseline_rmse,
        events=list(injector.events),
        defended=armed,
        attackers={k_: list(v) for k_, v in plan.attack_personas().items()},
        rejected=_kind_breakdown(metrics, "faults.rejected"),
        recovered_by_kind=_kind_breakdown(metrics, "faults.recovered"),
        attack_injected=_kind_breakdown(metrics, "attack.injected"),
        probe_k=PROBE_K if plan.attacks_active else None,
        precision=precision,
        baseline_precision=baseline_precision,
    )


def _kind_breakdown(metrics, name: str) -> Dict[str, float]:
    """Fold one counter family over nodes, keyed by its ``kind`` label."""
    out: Dict[str, float] = {}
    for counter in metrics.collect(name):
        kind = dict(counter.labels).get("kind", "")
        out[kind] = out.get(kind, 0.0) + counter.value
    return dict(sorted(out.items()))
