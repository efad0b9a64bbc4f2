"""The untrusted host runtime -- the paper's Algorithm 1.

The host owns everything an enclave must not: the network endpoint, the
dataset files and the bootstrap sequence.  It relays inbound messages into
the enclave (``ecall_input``), proxies outbound sends and quoting requests
as ocalls, and collects the per-epoch statistics the trusted code reports.
It never sees a decrypted payload: the enclave attests every neighbor
and seals every payload it sends.  It also owns the barrier-patience
clock: it counts the network ticks since the enclave last reported a
round and makes the ``ecall_tick`` only when the patience is spent.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.core.app import RexEnclaveApp
from repro.core.config import BARRIER_PATIENCE_TICKS, RexConfig
from repro.core.stats import EpochStats
from repro.data.dataset import RatingsDataset
from repro.net.serialization import encode_triplets
from repro.net.transport import Endpoint
from repro.tee.enclave import Platform, TrustedApp

__all__ = ["RexHost"]


class RexHost:
    """Bootstrap + I/O relay for one REX node (Algorithm 1)."""

    #: The trusted build this host loads.  Peers compare its measurement
    #: with their own (Section III-A): any other build gets no channel.
    app_class: Type[TrustedApp] = RexEnclaveApp

    def __init__(
        self,
        node_id: int,
        platform: Platform,
        endpoint: Endpoint,
    ):
        self.node_id = node_id
        self.platform = platform
        self.endpoint = endpoint
        self.epoch_stats: List[EpochStats] = []
        #: Incarnation counter; bumped by :meth:`restart` after a crash.
        self.boot = 0
        self._load_enclave(f"rex-node-{node_id}")

    def _load_enclave(self, enclave_id: str) -> None:
        """Create a fresh enclave of :attr:`app_class` and wire its ocalls."""
        self.enclave = self.platform.create_enclave(self.app_class, enclave_id)
        # The enclave's crossing counters, marked now: no two live
        # enclaves share an id, so each delta is this incarnation's own.
        self._transitions = [
            self.platform.metrics.counter(f"tee.enclave.{name}", enclave=enclave_id)
            for name in ("ecalls", "ocalls", "ecall.bytes", "ocall.bytes")
        ]
        self._transition_mark = [c.value for c in self._transitions]
        #: Ticks since the enclave last reported a round.
        self._idle_ticks = 0
        self.enclave.register_ocall("send_message", self._ocall_send)
        self.enclave.register_ocall("get_quote", self.enclave.get_quote)
        self.enclave.register_ocall("report_stats", self._ocall_report_stats)

    # ------------------------------------------------------------------ #
    # Ocall proxies
    # ------------------------------------------------------------------ #
    def _ocall_send(self, destination: int, kind: str, payload: bytes) -> None:
        self.endpoint.send(int(destination), payload, kind=kind)

    # Sanctioned boundary exception: EpochStats carries only aggregate
    # telemetry (counts, byte totals, RMSE) -- never raw triplets or key
    # material -- and the paper's evaluation depends on exporting it.
    def _ocall_report_stats(self, stats: EpochStats) -> None:  # repro-lint: disable=REX-B004
        # Attach the boundary-crossing counts accumulated since the last
        # report; the SGX cost model charges transitions from these.
        now = [c.value for c in self._transitions]
        ecalls, ocalls, ecall_bytes, ocall_bytes = (
            int(a - b) for a, b in zip(now, self._transition_mark)
        )
        self._transition_mark = now
        stats.ecalls, stats.ocalls = ecalls, ocalls
        stats.transition_bytes = ecall_bytes + ocall_bytes
        self.epoch_stats.append(stats)
        self._idle_ticks = 0

    # ------------------------------------------------------------------ #
    # Lifecycle (Algorithm 1 lines 1-6)
    # ------------------------------------------------------------------ #
    def bootstrap(
        self,
        config: RexConfig,
        train: RatingsDataset,
        test: RatingsDataset,
        neighbors,
        *,
        global_mean: float = 3.5,
        resume_epoch: int = 0,
    ) -> None:
        """Read the shard, start the enclave, trigger ``ecall_init``."""
        init_args = {
            "node_id": self.node_id,
            "neighbors": tuple(int(n) for n in neighbors),
            "config": config,
            "train": encode_triplets(train),
            "test": encode_triplets(test),
            "n_users": train.n_users,
            "n_items": train.n_items,
            "global_mean": global_mean,
        }
        # First-boot init args stay byte-identical to the seed runtime; the
        # restart-only keys ride along only when they carry information.
        if self.boot:
            init_args["boot"] = self.boot
            init_args["resume_epoch"] = int(resume_epoch)
        self.enclave.ecall("ecall_init", init_args)

    def restart(self, *args, **kwargs) -> None:
        """Re-create the enclave after a crash and rejoin the gossip.

        Takes :meth:`bootstrap`'s arguments.  The old enclave's in-memory
        state (store growth, model, channel keys) is lost, exactly like a
        process kill: the new incarnation re-reads its local shard, derives
        a fresh DH key (so neighbors re-attest) and resumes at
        ``resume_epoch``.
        """
        self.boot += 1
        self._load_enclave(f"rex-node-{self.node_id}.boot{self.boot}")
        self.bootstrap(*args, **kwargs)

    @property
    def epochs_done(self) -> int:
        """Epochs completed, by the last *reported* epoch: a restarted node
        skips the epochs it was dead for, so the report count undercounts."""
        return self.epoch_stats[-1].epoch + 1 if self.epoch_stats else 0

    def pump(self) -> int:
        """Relay all pending inbound messages into the enclave."""
        messages = self.endpoint.poll()
        for message in messages:
            self.enclave.ecall("ecall_input", message.source, message.kind, message.payload)
        return len(messages)

    def tick(self) -> int:
        """Advance the barrier-patience clock by one network tick.

        Once :data:`BARRIER_PATIENCE_TICKS` ticks pass without a reported
        round, the enclave is told to time its barrier out; returns the
        number of rounds that forced (0 or 1).
        """
        self._idle_ticks += 1
        if self._idle_ticks < BARRIER_PATIENCE_TICKS:
            return 0
        self._idle_ticks = 0
        return int(self.enclave.ecall("ecall_tick"))

    def notify_peer_down(self, peer: int) -> None:
        """Tell the enclave a neighbor's process died (crash fault)."""
        self.enclave.ecall("ecall_peer_down", int(peer))

    def status(self) -> Dict:
        return self.enclave.ecall("ecall_status")

    # ------------------------------------------------------------------ #
    # Serving (after or between training epochs)
    # ------------------------------------------------------------------ #
    def serve(self, users, k: int) -> Dict:
        """Direct (unqueued) top-``k`` query batch against the enclave."""
        return self.enclave.ecall("ecall_serve", [int(u) for u in users], int(k))
