"""A full distributed REX deployment in one process.

Builds the paper's hardware setup as objects: SGX platforms (the paper
uses 4 machines running 2 REX processes each), one enclave + untrusted
host per node, an in-process network, and a topology.  ``run`` pumps
messages until every node has completed the requested number of epochs --
event-driven, exactly like the real system, with the epoch barrier
("a message from all neighbors") enforced inside the enclaves.  No node
runs a round past ``config.epochs``.

There is one failure semantics (see :mod:`repro.core.config`): a bad
frame is counted and survived, a starved barrier times out after
``BARRIER_PATIENCE_TICKS`` ticks, and a crashed node's neighbors are
told.  A fault-free run simply never takes those paths.

Scheduling is owned by the shared :class:`~repro.sim.kernel.EventKernel`:
each tick registers chaos-controller, host-relay, transport and
host-patience events in a fixed order, so the cluster composes with
every other event source (fleet epochs, serve ticks).
``tests/sim/test_kernel_parity.py`` pins the per-epoch wire traffic, RMSE
floats and kernel trace digest of a fixed-seed run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.core.config import BARRIER_PATIENCE_TICKS, SUSPECT_AFTER_TIMEOUTS, RexConfig
from repro.core.host import RexHost
from repro.core.stats import EpochStats
from repro.data.dataset import RatingsDataset
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.obs import Observability

if TYPE_CHECKING:  # pragma: no cover - annotation-only (cycle: sim -> core)
    from repro.sim.kernel import EventKernel
from repro.tee.attestation import AttestationService
from repro.tee.enclave import Platform
from repro.tee.epc import EpcModel

__all__ = ["RexCluster", "ClusterRun"]

#: REX processes per SGX machine: the paper runs 8 nodes on 4 machines.
NODES_PER_MACHINE = 2


@dataclass
class ClusterRun:
    """Everything a run produced, ready for the time/cost models."""

    config: RexConfig
    topology: Topology
    #: per-node list of per-epoch stats
    node_stats: Dict[int, List[EpochStats]]
    total_network_bytes: int
    total_network_messages: int
    attestation_messages: int
    epc: EpcModel

    def stats_for_epoch(self, epoch: int) -> List[EpochStats]:
        # By ``EpochStats.epoch``, not list position: a restarted node
        # resumes at its neighbours' epoch, so its reports skip the rounds
        # it was down for.
        return [s for stats in self.node_stats.values() for s in stats if s.epoch == epoch]

    @property
    def epochs_completed(self) -> int:
        return min(stats[-1].epoch + 1 if stats else 0 for stats in self.node_stats.values())


class RexCluster:
    """Build and run a distributed REX deployment.

    There is one build: every enclave attests its neighbors and seals
    every payload.  ``secure`` is accepted only because
    ``bench/workloads.py`` still passes ``secure=True``; ``False`` raises.
    """

    def __init__(
        self,
        topology: Topology,
        config: RexConfig,
        *,
        secure: bool = True,
        obs: Optional[Observability] = None,
    ):
        if not secure:
            raise ValueError(
                "there is no native build: price the run with "
                "timeline_from_cluster(run, cost_model=NATIVE_COST_MODEL)"
            )
        if config.adaptive_batches:
            raise ValueError(
                "adaptive_batches is an MfFleetSim ablation; every enclave "
                "trains the fixed batch count"
            )
        self.topology = topology
        self.config = config
        self.obs = obs if obs is not None else Observability.create()
        metrics = self.obs.metrics
        n_nodes = topology.n_nodes
        n_machines = (n_nodes + NODES_PER_MACHINE - 1) // NODES_PER_MACHINE
        self.epc = EpcModel(enclaves_per_machine=NODES_PER_MACHINE)

        self.attestation_service = AttestationService()
        self.platforms = [
            Platform(
                f"sgx-machine-{m}", self.attestation_service, epc=self.epc, metrics=metrics
            )
            for m in range(n_machines)
        ]
        self.network = Network(metrics)
        self.hosts: List[RexHost] = []
        for node in range(n_nodes):
            platform = self.platforms[node // NODES_PER_MACHINE]
            endpoint = self.network.endpoint(node)
            self.hosts.append(RexHost(node, platform, endpoint))
        #: Nodes whose process is currently dead (see :meth:`crash_node`).
        self.crashed: Set[int] = set()
        #: Optional chaos hook called once per pump tick with this
        #: cluster; :mod:`repro.faults` installs its controller here.
        self.controller: Optional[object] = None
        #: The event kernel that drove the most recent ``run`` (``None``
        #: before the first run).
        self.kernel: Optional["EventKernel"] = None

    def bootstrap(
        self,
        train_shards: Sequence[RatingsDataset],
        test_shards: Sequence[RatingsDataset],
        *,
        global_mean: float = 3.5,
    ) -> None:
        if len(train_shards) != self.topology.n_nodes:
            raise ValueError("one train shard per node required")
        for host in self.hosts:
            host.bootstrap(
                self.config,
                train_shards[host.node_id],
                test_shards[host.node_id],
                self.topology.neighbors(host.node_id),
                global_mean=global_mean,
            )

    # ------------------------------------------------------------------ #
    # Churn surface (driven by the chaos controller)
    # ------------------------------------------------------------------ #
    def crash_node(self, node_id: int) -> None:
        """Kill ``node_id``: its traffic drops, its enclave state is lost,
        and live neighbors are notified so they stop waiting for it."""
        node_id = int(node_id)
        self.crashed.add(node_id)
        self.network.set_down(node_id)
        for host in self.hosts:
            if host.node_id != node_id and host.node_id not in self.crashed:
                host.notify_peer_down(node_id)

    def restart_node(
        self,
        node_id: int,
        train: RatingsDataset,
        test: RatingsDataset,
        *,
        global_mean: float = 3.5,
    ) -> None:
        """Bring a crashed node back with a fresh enclave incarnation.

        The reborn node resumes at the most advanced live node's epoch, so
        it rejoins the current round instead of replaying history its
        neighbors would reject as stale.
        """
        node_id = int(node_id)
        resume_epoch = max(
            (h.epochs_done for h in self.hosts if h.node_id != node_id), default=0
        )
        resume_epoch = min(resume_epoch, self.config.epochs - 1)
        self.network.set_up(node_id)
        self.crashed.discard(node_id)
        host = self.hosts[node_id]
        host.restart(
            self.config,
            train,
            test,
            self.topology.neighbors(node_id),
            global_mean=global_mean,
            resume_epoch=resume_epoch,
        )

    def run(
        self,
        train_shards: Sequence[RatingsDataset],
        test_shards: Sequence[RatingsDataset],
        *,
        global_mean: float = 3.5,
    ) -> ClusterRun:
        """Bootstrap and pump until every node completed ``config.epochs``.

        Pump cycles, transport ticks and chaos ticks are scheduled as
        :class:`~repro.sim.kernel.EventKernel` events.
        """
        self.bootstrap(train_shards, test_shards, global_mean=global_mean)
        self._pump(self.config.epochs)
        return ClusterRun(
            config=self.config,
            topology=self.topology,
            node_stats={host.node_id: host.epoch_stats for host in self.hosts},
            total_network_bytes=self.network.meter.total_bytes,
            total_network_messages=self.network.meter.total_messages,
            attestation_messages=self.network.meter.kind_messages.get("quote", 0),
            epc=self.epc,
        )

    def _stall_error(self, idle: int, target: int) -> RuntimeError:
        laggards = {
            host.node_id: host.epochs_done
            for host in self.hosts
            if host.node_id not in self.crashed and host.epochs_done < target
        }
        return RuntimeError(
            f"protocol stalled: no deliveries, retries or forced rounds for "
            f"{idle} ticks; laggards (node: epoch) {laggards}, crashed nodes "
            f"{sorted(self.crashed)}, target epoch {target}, "
            f"{self.network.in_flight} frames in flight"
        )

    # ------------------------------------------------------------------ #
    # Kernel-driven scheduling
    # ------------------------------------------------------------------ #
    def _pump(self, target: int) -> None:
        """Pump + tick events that survive faults and diagnose real stalls.

        Each simulated tick registers four same-timestamp events whose
        keys pin the iteration order: the chaos controller fires first
        (``faults.tick``, injecting crashes/restarts), then host relays
        (``cluster.pump``), then the transport clock (``net.tick`` --
        delayed frames and scheduled retries), then the hosts'
        barrier-patience clocks (``cluster.node_tick``), which also does
        the idle/stall accounting and schedules the next tick's events.
        Permanently crashed nodes are exempt from the completion
        condition; a window with no activity of any kind for longer than
        an enclave needs to suspect a silent peer (``patience x
        SUSPECT_AFTER_TIMEOUTS`` ticks) is a genuine stall and raises with
        a diagnosis instead of spinning.
        """
        from repro.sim.kernel import EventKernel

        stall_bound = BARRIER_PATIENCE_TICKS * SUSPECT_AFTER_TIMEOUTS + 8
        kernel = self.kernel = EventKernel()
        state = {"idle": 0, "stop": False, "moved": 0, "flushed": 0}

        def fault_tick() -> None:
            if self.controller is not None:
                self.controller.on_tick(self)

        def pump() -> None:
            moved = 0
            done = True
            for host in self.hosts:
                if host.node_id in self.crashed:
                    continue
                moved += host.pump()
                if host.epochs_done < target:
                    done = False
            if done and self.controller is not None:
                # A scheduled restart is known future work: keep pumping so
                # the reborn node gets to rejoin and finish, instead of
                # declaring victory while a churn event is still pending.
                done = not getattr(self.controller, "pending_work", lambda: False)()
            state["moved"] = moved
            state["stop"] = done

        def net_tick() -> None:
            if state["stop"]:
                return
            state["flushed"] = self.network.tick()

        def node_tick() -> None:
            if state["stop"]:
                return
            forced = 0
            for host in self.hosts:
                if host.node_id not in self.crashed and host.epochs_done < target:
                    forced += host.tick()
            if state["moved"] or state["flushed"] or forced or self.network.in_flight:
                state["idle"] = 0
            else:
                state["idle"] += 1
                if state["idle"] > stall_bound:
                    raise self._stall_error(state["idle"], target)
            schedule_tick(kernel.now + 1.0)

        def schedule_tick(at: float) -> None:
            state["moved"] = 0
            state["flushed"] = 0
            kernel.at(at, fault_tick, kind="faults.tick", key=(0,))
            kernel.at(at, pump, kind="cluster.pump", key=(1,))
            kernel.at(at, net_tick, kind="net.tick", key=(2,))
            kernel.at(at, node_tick, kind="cluster.node_tick", key=(3,))

        schedule_tick(0.0)
        try:
            kernel.run()
        finally:
            # node_tick and schedule_tick name each other; emptying their
            # cells lets reference counting free the closures (and the
            # cluster they hold) without the cycle collector.
            del node_tick, schedule_tick
