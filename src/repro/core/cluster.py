"""A full distributed REX deployment in one process.

Builds the paper's hardware setup as objects: SGX platforms (the paper
uses 4 machines running 2 REX processes each), one enclave + untrusted
host per node, an in-process network, and a topology.  ``run`` pumps
messages until every node has completed the requested number of epochs --
event-driven, exactly like the real system, with the epoch barrier
("a message from all neighbors") enforced inside the enclaves.

Scheduling is owned by the shared :class:`~repro.sim.kernel.EventKernel`:
each pump cycle registers host relays, transport ticks and
chaos-controller ticks as ordered kernel events, so the cluster composes
with every other event source (fleet epochs, serve ticks).
``tests/sim/test_kernel_parity.py`` pins the per-epoch wire traffic, RMSE
floats and kernel trace digest of a fixed-seed run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.core.config import RexConfig
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


@dataclass
class ClusterRun:
    """Everything a run produced, ready for the time/cost models."""

    config: RexConfig
    secure: bool
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
    """Build and run a distributed REX deployment."""

    def __init__(
        self,
        topology: Topology,
        config: RexConfig,
        *,
        secure: bool = True,
        nodes_per_machine: int = 2,
        epc: Optional[EpcModel] = None,
        obs: Optional[Observability] = None,
    ):
        self.topology = topology
        self.config = config
        self.secure = secure
        self.obs = obs if obs is not None else Observability.create()
        metrics = self.obs.metrics
        n_nodes = topology.n_nodes
        n_machines = (n_nodes + nodes_per_machine - 1) // nodes_per_machine
        self.epc = epc if epc is not None else EpcModel(enclaves_per_machine=nodes_per_machine)

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
            platform = self.platforms[node // nodes_per_machine]
            endpoint = self.network.endpoint(node)
            self.hosts.append(RexHost(node, platform, endpoint))
        #: Nodes whose process is currently dead (see :meth:`crash_node`).
        self.crashed: Set[int] = set()
        #: Optional chaos hook called once per tolerant pump iteration with
        #: this cluster; :mod:`repro.faults` installs its controller here.
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
                secure=self.secure,
                global_mean=global_mean,
            )

    # ------------------------------------------------------------------ #
    # Serving (after training)
    # ------------------------------------------------------------------ #
    def serving_endpoint(self, node_id: int, *, policy=None, costs=None):
        """Publish ``node_id``'s trained model and wrap its enclave in a
        :class:`repro.serve.server.RecServer` admission front-end.

        The snapshot never leaves the enclave: publication is an ecall
        that freezes the live model in place, and the returned server
        talks to the same enclave through ``ecall_serve``.
        """
        from repro.serve.server import RecServer

        node_id = int(node_id)
        if node_id in self.crashed:
            raise RuntimeError(f"node {node_id} is crashed; restart it before serving")
        host = self.hosts[node_id]
        host.publish_snapshot()
        return RecServer(
            host.enclave, policy=policy, costs=costs, epc=self.epc, metrics=host.enclave.metrics
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
        if self.config.faults.enabled:
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
        resume_epoch: Optional[int] = None,
    ) -> None:
        """Bring a crashed node back with a fresh enclave incarnation.

        ``resume_epoch`` defaults to the most advanced live node's epoch,
        so the reborn node rejoins the current round instead of replaying
        history its neighbors would reject as stale.
        """
        node_id = int(node_id)
        if resume_epoch is None:
            resume_epoch = max(
                (h.epochs_done for h in self.hosts if h.node_id != node_id), default=0
            )
        resume_epoch = min(int(resume_epoch), self.config.epochs - 1)
        self.network.set_up(node_id)
        self.crashed.discard(node_id)
        host = self.hosts[node_id]
        host.restart(
            self.config,
            train,
            test,
            self.topology.neighbors(node_id),
            secure=self.secure,
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

        target = self.config.epochs
        if self.config.faults.enabled:
            self._pump_tolerant(target)
        else:
            self._pump_strict(target)
        return ClusterRun(
            config=self.config,
            secure=self.secure,
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
            f"chaos run stalled: no deliveries, retries or forced rounds for "
            f"{idle} ticks; laggards (node: epoch) {laggards}, crashed nodes "
            f"{sorted(self.crashed)}, target epoch {target}, "
            f"{self.network.in_flight} frames in flight"
        )

    # ------------------------------------------------------------------ #
    # Kernel-driven scheduling
    # ------------------------------------------------------------------ #
    def _pump_strict(self, target: int) -> None:
        """The healthy-LAN loop as recurring ``cluster.pump`` events: one
        kernel event per pump cycle; any quiescent gap is a fatal stall."""
        from repro.sim.kernel import EventKernel

        kernel = self.kernel = EventKernel()

        def cycle() -> None:
            moved = 0
            done = True
            for host in self.hosts:
                moved += host.pump()
                if len(host.epoch_stats) < target:
                    done = False
            if done:
                return
            if moved == 0:
                laggards = [
                    host.node_id for host in self.hosts if len(host.epoch_stats) < target
                ]
                raise RuntimeError(
                    f"protocol stalled: no messages in flight but nodes {laggards} "
                    f"have not reached epoch {target}"
                )
            kernel.after(1.0, cycle, kind="cluster.pump", key=())

        kernel.at(0.0, cycle, kind="cluster.pump", key=())
        kernel.run()

    def _pump_tolerant(self, target: int) -> None:
        """Pump + tick events that survive faults and diagnose real stalls.

        Each simulated tick registers four same-timestamp events whose
        keys pin the iteration order: the chaos controller fires first
        (``faults.tick``, injecting crashes/restarts), then host relays
        (``cluster.pump``), then the transport clock (``net.tick`` --
        delayed frames and scheduled retries), then the enclaves'
        barrier-patience clocks (``cluster.node_tick``), which also does
        the idle/stall accounting and schedules the next tick's events.
        Permanently crashed nodes are exempt from the completion
        condition; a window with no activity of any kind for longer than
        an enclave needs to suspect a silent peer (``patience x
        suspect_after_timeouts`` ticks) is a genuine stall and raises with
        a diagnosis instead of spinning.
        """
        from repro.sim.kernel import EventKernel

        faults = self.config.faults
        stall_bound = faults.barrier_patience_ticks * faults.suspect_after_timeouts + 8
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
        kernel.run()
