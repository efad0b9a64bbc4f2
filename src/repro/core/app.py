"""The REX trusted application -- the code that runs inside the enclave.

This is the paper's Algorithm 2 over matrix factorization, the one model
the paper's own prototype runs in SGX (Fig. 5's DNN is simulated by
:class:`~repro.sim.dnn_fleet.DnnFleetSim`, outside any enclave).  Two
entry points exist:

- :meth:`RexEnclaveApp.ecall_init` copies the node's local dataset shard
  into protected memory, initializes the model and data store, kicks off
  mutual attestation with every neighbor and, once every channel is up,
  runs epoch 0 -- the first training on the initial local data.
- :meth:`RexEnclaveApp.ecall_input` receives one network message from the
  untrusted host: a clear-text attestation quote, or a sealed protocol
  payload that is decrypted, buffered, and -- once a message (possibly
  empty) has arrived from *all* neighbors -- triggers the next
  merge / train / share / test round.

Everything the host sees leave the enclave is either an attestation quote
or AEAD ciphertext; raw triplets and model parameters exist in plaintext
only inside this class (and the peers' equally attested instances).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro._rng import child_rng, stream_seed
from repro.core.admission import ShareAdmission
from repro.core.channel import ReplayError, SecureChannel, seal_all
from repro.core.config import (
    SUSPECT_AFTER_TIMEOUTS,
    Dissemination,
    RexConfig,
    SharingScheme,
)
from repro.core.messages import (
    CONTENT_EMPTY,
    CONTENT_MF_MODEL,
    CONTENT_TRIPLETS,
    HEADER_BYTES,
    KIND_PAYLOAD,
    KIND_QUOTE,
    PayloadHeader,
    payload_buffer,
    unpack_payload,
)
from repro.core.stats import EpochStats
from repro.core.store import DataStore
from repro.data.dataset import RatingsDataset
from repro.ml.mf import MatrixFactorization
from repro.net.serialization import (
    decode_mf_state,
    decode_triplets,
    encode_mf_state_into,
    encode_triplets_into,
    measure_mf_state,
    measure_triplets,
)
from repro.net.serialization import CodecError
from repro.tee.attestation import MutualAttestation, Quote
from repro.tee.crypto.aead import AeadError
from repro.tee.enclave import TrustedApp, ecall
from repro.tee.errors import (
    ChannelNotEstablished,
    MeasurementMismatch,
    QuoteVerificationError,
)

__all__ = ["RexEnclaveApp"]


class RexEnclaveApp(TrustedApp):
    """Enclave-resident REX node (Algorithm 2)."""

    # ------------------------------------------------------------------ #
    # Entry point: initialization (Algorithm 2 lines 1-4)
    # ------------------------------------------------------------------ #
    @ecall
    def ecall_init(self, args: dict) -> None:
        """Copy the local shard into protected memory and bootstrap.

        ``args`` carries only serializable values across the boundary:
        the node/neighbor ids, the :class:`RexConfig`, the train/test
        shards as encoded triplet payloads, the id-space sizes and the
        global rating mean.  There is one build: it always attests its
        neighbors and seals every payload (a native baseline is the same
        run priced with ``NATIVE_COST_MODEL``).
        """
        self.node_id: int = int(args["node_id"])
        self.neighbors: Tuple[int, ...] = tuple(int(n) for n in args["neighbors"])
        self.degree = len(self.neighbors)
        self.config: RexConfig = args["config"]
        #: Incarnation counter: 0 for the first boot, bumped per restart.
        self.boot: int = int(args.get("boot", 0))
        #: Epoch to rejoin the gossip at after a crash (0 on first boot).
        self.resume_epoch: int = int(args.get("resume_epoch", 0))
        n_users = int(args["n_users"])
        n_items = int(args["n_items"])

        train = decode_triplets(args["train"])
        self.test_data = decode_triplets(args["test"])
        self.local_rng = child_rng(self.config.seed, "node", self.node_id)

        self.store = DataStore(n_users, n_items, capacity=max(1024, len(train)))
        self.store.append_unique(train)

        self.model = MatrixFactorization(
            n_users,
            n_items,
            self.config.mf,
            seed=self.config.seed,  # identical initial code AND weights
            global_mean=float(args.get("global_mean", 3.5)),
        )
        self.model.mark_seen(train)

        # A restarted incarnation derives a *fresh* X25519 key (the old one
        # died with the enclave): neighbors detect the changed public key in
        # the new quote and re-attest instead of treating it as a duplicate.
        if self.boot:
            dh_seed = stream_seed(self.config.seed, "dh", self.node_id, "boot", self.boot)
        else:
            dh_seed = stream_seed(self.config.seed, "dh", self.node_id)
        self.attestor = MutualAttestation(
            f"rex-{self.node_id}",
            self.ctx.measurement,
            self.ctx.attestation_service(),
            key_seed=dh_seed.to_bytes(8, "little"),
        )
        self.channels: Dict[int, object] = {}
        self.epoch = self.resume_epoch
        self._epoch_zero_done = False
        self._inbox: Dict[int, Dict[int, Tuple[PayloadHeader, bytes]]] = {}
        self._current_stats: Optional[EpochStats] = None
        # -- churn-tolerance state --------------------------------------- #
        #: X25519 public key seen in each neighbor's latest quote.
        self._peer_pubkeys: Dict[int, bytes] = {}
        #: Neighbors currently believed dead (host-notified or suspected).
        self._down_peers: set = set()
        #: Epoch from which each neighbor's shares are expected; ``None``
        #: means unknown (peer restarted / not yet heard from) and the
        #: barrier must not block on it.  A restarted node knows nothing
        #: about where its neighbors are, so it starts all-``None``.
        self._active_from: Dict[int, Optional[int]] = {
            n: (0 if self.boot == 0 else None) for n in self.neighbors
        }
        #: Consecutive barrier timeouts each neighbor has missed.
        self._miss_counts: Dict[int, int] = {}
        # -- serving state (populated by ecall_publish_snapshot) -------- #
        self._serving: Optional[ServingState] = None
        #: Enclave-side defenses (quote pinning, share sanity + quotas);
        #: ``None`` = disarmed.
        self._admission: Optional[ShareAdmission] = (
            ShareAdmission(self.config.share_points)
            if self.config.defenses.enabled
            else None
        )

        self._account_memory(staging=0)

        quote_bytes = self._make_quote().to_bytes()
        for neighbor in self.neighbors:
            self.ctx.ocall("send_message", neighbor, KIND_QUOTE, quote_bytes)
        if not self.neighbors:
            self._maybe_start()

    # ------------------------------------------------------------------ #
    # Entry point: message reception (Algorithm 2 lines 5-11)
    # ------------------------------------------------------------------ #
    @ecall
    def ecall_input(self, src: int, kind: str, blob: bytes) -> None:
        """Dispatch one message: attestation or sealed protocol payload."""
        src = int(src)
        if kind == KIND_QUOTE:
            self._handle_quote(src, blob)
        elif kind == KIND_PAYLOAD:
            self._handle_payload(src, blob)
        else:
            raise ValueError(f"unknown message kind {kind!r}")

    @ecall
    def ecall_status(self) -> dict:
        """Introspection for the host/tests (no secrets leave)."""
        return {
            "node_id": self.node_id,
            "epoch": self.epoch,
            "boot": self.boot,
            "attested_peers": len(self.channels),
            "down_peers": sorted(self._down_peers),
            "store_items": len(self.store),
            "test_rmse": self.model.evaluate_rmse(self.test_data),
        }

    @ecall
    def ecall_publish_snapshot(self) -> dict:
        """Publish the live model as an immutable serving snapshot.

        Copy-on-publish: training keeps mutating the live parameters
        while queries score against the frozen copy.  Only the sanitized
        snapshot metadata (sizes, digest) crosses back to the host.
        """
        # Deferred: repro.serve pulls in the sim/cluster world at package
        # import time, which would cycle back into this module.
        from repro.serve.endpoint import ServingState
        from repro.serve.snapshot import publish_snapshot

        if self._serving is None:
            self._serving = ServingState(metrics=self.ctx.metrics)
        snapshot = publish_snapshot(
            self.model,
            version=self._serving.version + 1,
            node_id=self.node_id,
            epoch=self.epoch,
        )
        # Exclusion comes from the node's raw store: everything this
        # node knows a user already rated, local or gossiped.
        dataset = self.store.as_dataset()
        self._serving.install(snapshot, dataset.users, dataset.items)
        self.ctx.memory.set("serve", self._serving.resident_bytes)
        return snapshot.meta().to_dict()

    @ecall
    def ecall_serve(self, users: list, k: int, version: Optional[int] = None) -> dict:
        """Serve a top-``k`` batch; item ids, scores and counts leave.

        ``version`` names the snapshot the host expects to be served; an
        older one is a rollback and the engine refuses it
        (:class:`~repro.tee.errors.SnapshotReplayError`).
        """
        if self._serving is None:
            raise ValueError("no snapshot published; call ecall_publish_snapshot")
        reply = self._serving.serve(users, k, version)
        self.ctx.memory.set("serve", self._serving.resident_bytes)
        return reply

    @ecall
    def ecall_peer_down(self, peer: int) -> None:
        """Host notification that ``peer``'s process died (crash fault)."""
        peer = int(peer)
        self._down_peers.add(peer)
        self._miss_counts.pop(peer, None)
        self._active_from[peer] = None
        if self._epoch_zero_done:
            self._try_advance()  # the barrier may now be satisfiable
        else:
            self._maybe_start()

    @ecall
    def ecall_tick(self) -> int:
        """Barrier timeout: force partial progress.

        The host calls this once the node has gone
        :data:`~repro.core.config.BARRIER_PATIENCE_TICKS` network ticks
        without reporting a round.  The node advances with whatever
        subset of shares it holds (graceful degradation), and neighbors
        missing from ``SUSPECT_AFTER_TIMEOUTS`` consecutive forced rounds
        are treated as dead until heard from again.  Returns the number of
        rounds forced (0 or 1).
        """
        if self._epoch_zero_done and self.epoch >= self.config.epochs:
            return 0
        self._count_fault("faults.barrier_timeouts")
        if not self._epoch_zero_done:
            # Stuck in attestation: a neighbor is refusing (or losing) the
            # handshake.  Suspect it so epoch 0 can start without it.
            for n in self.neighbors:
                if n not in self.channels and n not in self._down_peers:
                    self._note_miss(n)
            self._maybe_start()
            return 1 if self._epoch_zero_done else 0
        for n in self._required_peers(self.epoch - 1):
            if n not in self._inbox.get(self.epoch - 1, {}):
                self._note_miss(n)
        received = self._inbox.pop(self.epoch - 1, {})
        self._run_round(received or None)
        self._try_advance()
        return 1

    def _note_miss(self, peer: int) -> None:
        self._miss_counts[peer] = self._miss_counts.get(peer, 0) + 1
        if self._miss_counts[peer] >= SUSPECT_AFTER_TIMEOUTS:
            self._down_peers.add(peer)
            self._active_from[peer] = None
            self._count_fault("faults.suspected", peer=peer)

    def _count_fault(self, name: str, **labels: object) -> None:
        self.ctx.metrics.counter(name, node=self.node_id, **labels).inc()

    def _count_verdict(self, name: str, reason: str, peer: int) -> None:
        """Count an admission verdict on a share taken out of the inbox.

        Audited declassification point: ``reason`` is one of admission's
        literal ``REASON_*`` strings and ``peer`` the inbox key, i.e. the
        sender id the host itself supplied.  The taint pass cannot tell a
        container's keys, or the literal half of a returned pair, from
        the decrypted payload stored next to them.
        """
        self.ctx.metrics.counter(  # repro-lint: disable=REX-F003
            name, node=self.node_id, kind=reason, peer=peer
        ).inc()

    # ------------------------------------------------------------------ #
    # Attestation (Section III-A)
    # ------------------------------------------------------------------ #
    def _make_quote(self) -> Quote:
        report = self.ctx.create_report(self.attestor.user_data())
        return self.ctx.ocall("get_quote", report)

    def _handle_quote(self, src: int, blob: bytes) -> None:
        if src not in self.neighbors:
            # A valid quote proves code identity, not who is speaking: one
            # replayed under an id outside the topology opens no channel.
            self._count_fault("faults.rejected", kind="non_neighbor", peer=src)
            return
        try:
            quote = Quote.from_bytes(bytes(blob))
            pubkey = bytes(quote.user_data[:32])
            if src in self.channels and pubkey == self._peer_pubkeys.get(src):
                return  # duplicate (possibly replayed) quote; same incarnation
            # A *different* public key from an established peer means it
            # restarted: its enclave died with the old DH key, so re-attest
            # and replace the channel below.
            reattest = src in self.channels
            key = self.attestor.process_peer_quote(f"rex-{src}", quote)
        except (QuoteVerificationError, MeasurementMismatch):
            # A mangled (or forged) quote is survivable: reject it and let
            # the ARQ schedule redeliver the genuine original.
            self._count_fault("faults.recovered", kind="quote")
            return
        if self._admission is not None:
            reason = self._admission.pin_quote(pubkey, src)
            if reason is not None:
                self._count_fault("faults.rejected", kind=reason, peer=src)
                return
        self.channels[src] = self._make_channel(key, src)
        self._peer_pubkeys[src] = pubkey
        self._down_peers.discard(src)
        self._miss_counts.pop(src, None)
        if reattest:
            # Fresh pairwise key, sequence numbers reset on both sides.
            # Answer with our own quote: the one we sent at bootstrap
            # predates the peer's reboot and is lost to it.
            self._active_from[src] = None
            self._count_fault("faults.reattestations", peer=src)
            self.ctx.ocall("send_message", src, KIND_QUOTE, self._make_quote().to_bytes())
            return
        self._maybe_start()

    def _make_channel(self, key: bytes, src: int):
        """A sealed channel that reports into the run's registry, so
        channel bytes land in obs."""
        channel = SecureChannel(key, self.node_id, src)
        channel.bind_metrics(self.ctx.metrics, node=self.node_id)
        return channel

    def _maybe_start(self) -> None:
        """Run epoch 0 once every (live) neighbor channel exists."""
        if self._epoch_zero_done:
            return
        # Channels exist for neighbors only (``_handle_quote`` refuses any
        # other id); a dead neighbor is not waited for.
        if all(n in self.channels for n in self.neighbors if n not in self._down_peers):
            self._epoch_zero_done = True
            self._run_round(received=None)
            self._try_advance()  # shares may have arrived before epoch 0

    # ------------------------------------------------------------------ #
    # Protocol payloads (Algorithm 2 lines 12-21)
    # ------------------------------------------------------------------ #
    def _handle_payload(self, src: int, blob: bytes) -> None:
        channel = self.channels.get(src)
        if channel is None:
            # A frame raced past re-attestation (or from a refused peer):
            # survivable -- the retransmission schedule or the next epoch
            # covers the gap.
            self._count_fault("faults.recovered", kind="unattested")
            return
        try:
            # ``blob`` may be the sender's own frame buffer (a read-only
            # memoryview riding the in-process transport); ``open`` takes
            # any bytes-like zero-copy, so no defensive copy is made here.
            header, content = unpack_payload(channel.open(blob))
        except (AeadError, ChannelNotEstablished, ValueError, CodecError) as exc:
            if isinstance(exc, ReplayError):
                kind = "replay"
            elif isinstance(exc, (AeadError, ChannelNotEstablished)):
                kind = "corrupt"
            else:
                kind = "codec"
            self._count_fault("faults.recovered", kind=kind)
            return
        # Hearing from a peer clears any suspicion of its death.
        self._down_peers.discard(src)
        self._miss_counts.pop(src, None)
        if self._active_from.get(src) is None:
            self._active_from[src] = header.epoch
        if header.epoch < self.epoch - 1:
            self._count_fault("faults.recovered", kind="stale")
            return
        self._inbox.setdefault(header.epoch, {})[src] = (header, content)
        self._try_advance()

    def _required_peers(self, epoch_idx: int) -> list:
        """Neighbors the barrier for ``epoch_idx`` must wait for."""
        required = []
        for n in self.neighbors:
            if n in self._down_peers:
                continue
            active = self._active_from.get(n, 0)
            if active is None or active > epoch_idx:
                continue
            required.append(n)
        return required

    def _try_advance(self) -> None:
        """ready_to_train check: one message from every (live) neighbor."""
        if not self._epoch_zero_done:
            return
        while self.epoch < self.config.epochs:
            waiting_on = self._inbox.get(self.epoch - 1, {})
            required = self._required_peers(self.epoch - 1)
            if not all(n in waiting_on for n in required):
                return
            if not required and not waiting_on:
                # Nothing to merge and nobody to wait for: let the host's
                # patience clock (ecall_tick) pace solo progress instead of
                # racing through the remaining epochs in one call.
                return
            received = self._inbox.pop(self.epoch - 1, {})
            self._run_round(received or None)

    def _run_round(self, received: Optional[Dict[int, Tuple[PayloadHeader, bytes]]]) -> None:
        """One merge / train / share / test round."""
        stats = EpochStats(node_id=self.node_id, epoch=self.epoch)
        staging_peak = 0

        # -- merge (lines 15-16) ---------------------------------------- #
        if received:
            if self.config.scheme is SharingScheme.DATA:
                staging_peak = self._merge_data(received, stats)
            else:
                staging_peak = self._merge_models(received, stats)

        # -- train (line 17) --------------------------------------------- #
        stats.train_samples = self.model.train_epoch(self.store.as_dataset(), self.local_rng)

        # -- share (lines 18-20) ------------------------------------------ #
        self._share(stats)

        # -- test (line 21) ----------------------------------------------- #
        stats.test_rmse = self.model.evaluate_rmse(self.test_data)
        stats.test_samples = len(self.test_data)

        stats.store_items = len(self.store)
        stats.store_bytes = self.store.nbytes
        stats.model_bytes = self.model.resident_bytes
        stats.staging_bytes = staging_peak
        self._account_memory(staging=staging_peak)

        self.epoch += 1
        self.ctx.ocall("report_stats", stats)

    # ------------------------------------------------------------------ #
    # Merge implementations (Section III-C)
    # ------------------------------------------------------------------ #
    def _merge_data(self, received: Dict[int, Tuple[PayloadHeader, bytes]], stats: EpochStats) -> int:
        staging = 0
        admitted = []
        for _src, (header, content) in sorted(received.items()):
            if header.content == CONTENT_EMPTY:
                continue
            try:
                if header.content != CONTENT_TRIPLETS:
                    raise ValueError("data-sharing run received a model payload")
                alien = decode_triplets(content)
                if (alien.n_users, alien.n_items) != (self.store.n_users, self.store.n_items):
                    raise CodecError("share id space does not match the store")
            except (ValueError, CodecError):
                # One undecodable share must not abort the whole merge.
                self._count_fault("faults.recovered", kind="merge")
                continue
            if self._admission is not None:
                alien, reason = self._admission.admit_triplets(_src, self.epoch, alien)
                if reason is not None:
                    self._count_verdict("faults.rejected", reason, _src)
                if alien is None:
                    continue
            staging = max(staging, alien.nbytes + len(content))
            stats.dedup_checked_items += len(alien)
            admitted.append(alien)
        if admitted:
            # One append per round equals one per share in src order (first
            # occurrence wins), and stored ids are already marked seen.
            batch = admitted[0].concat(*admitted[1:])
            if self.config.dedup:
                added = self.store.append_unique(batch)
            else:
                added = self.store.append(batch)
            stats.appended_items += added
            if added:
                self.model.mark_seen(batch)
        return staging

    def _merge_models(
        self, received: Dict[int, Tuple[PayloadHeader, bytes]], stats: EpochStats
    ) -> int:
        incoming = []
        staging = 0
        for src, (header, content) in sorted(received.items()):
            if header.content == CONTENT_EMPTY:
                continue
            try:
                if header.content != CONTENT_MF_MODEL:
                    raise ValueError("model-sharing run received a mismatched payload")
                state = decode_mf_state(content)
            except (ValueError, CodecError):
                self._count_fault("faults.recovered", kind="merge")
                continue
            if self._admission is not None:
                reason = self._admission.check_model_state(state)
                if reason is not None:
                    # A parameter blow-up this large never comes out of
                    # honest SGD; merging it would overwrite the model.
                    self._count_verdict("faults.rejected", reason, src)
                    continue
            staging += len(content) + _state_nbytes(state)
            incoming.append((src, header, state))

        if not incoming:
            return staging
        if self.config.dissemination is Dissemination.RMW:
            for _src, _header, state in incoming:
                self.model.merge_average(state)
                stats.merged_models += 1
                stats.merged_rows += _state_rows(state)
        else:
            contributions = []
            weight_total = 0.0
            for _src, header, state in incoming:
                w = 1.0 / (1.0 + max(self.degree, header.degree))
                contributions.append((state, w))
                weight_total += w
                stats.merged_models += 1
                stats.merged_rows += _state_rows(state)
            self.model.merge_weighted(contributions, self_weight=1.0 - weight_total)
        return staging

    # ------------------------------------------------------------------ #
    # Share (Section III-C / III-E)
    # ------------------------------------------------------------------ #
    def _share(self, stats: EpochStats) -> None:
        # Dead neighbors get nothing: sealing to a lost incarnation would
        # desynchronize sequence numbers for no delivery.
        targets = [
            n for n in self.neighbors if n in self.channels and n not in self._down_peers
        ]
        if not targets:
            return
        # The full payload is assembled in one preallocated buffer: the
        # header is packed in place and the content serialized directly
        # after it (``encode_*_into``), so the plaintext a channel seals
        # was written exactly once -- no header+content join, no
        # intermediate row arrays.
        if self.config.scheme is SharingScheme.DATA:
            sample = self._share_sample()
            stats.share_sampled_items = len(sample)
            header_full = PayloadHeader(self.node_id, self.epoch, self.degree, CONTENT_TRIPLETS)
            packed_full, content_offset = payload_buffer(
                header_full, measure_triplets(len(sample))
            )
            encode_triplets_into(sample, packed_full, content_offset)
        else:
            state = self._share_state()
            header_full = PayloadHeader(self.node_id, self.epoch, self.degree, CONTENT_MF_MODEL)
            seen_users = int(np.count_nonzero(state.user_seen))
            seen_items = int(np.count_nonzero(state.item_seen))
            wire_dtype = "<f8" if self.config.mf.np_dtype == np.float64 else "<f4"
            float_bytes = 8 if wire_dtype == "<f8" else 4
            packed_full, content_offset = payload_buffer(
                header_full,
                measure_mf_state(seen_users, seen_items, state.k, float_bytes=float_bytes),
            )
            encode_mf_state_into(state, packed_full, content_offset, wire_dtype=wire_dtype)
        stats.serialized_bytes += len(packed_full) - HEADER_BYTES

        chosen = None  # D-PSGD broadcasts; RMW picks one random neighbor
        if self.config.dissemination is Dissemination.RMW:
            chosen = int(targets[self.local_rng.integers(0, len(targets))])
        header_empty = PayloadHeader(self.node_id, self.epoch, self.degree, CONTENT_EMPTY)
        # RMW barrier message: header only.
        packed_empty, _ = payload_buffer(header_empty, 0)
        entries = []
        for neighbor in targets:
            if chosen is None or neighbor == chosen:
                plaintext = packed_full
                stats.shared_messages += 1
            else:
                plaintext = packed_empty
                stats.shared_empty_messages += 1
            entries.append((self.channels[neighbor], plaintext, b""))
        # One batch seals the whole epoch's fan-out: every neighbor's
        # payload runs through a single lane-kernel (or native AEAD)
        # invocation, and each frame leaves here as the same buffer the
        # ciphertext was written into -- no per-neighbor re-join.
        wires = seal_all(entries)
        for neighbor, wire in zip(targets, wires):
            # The sealed frame is the wire payload: ``chan.sealed.bytes``
            # counted exactly this length.
            stats.shared_payload_bytes += len(wire)
            self.ctx.ocall("send_message", neighbor, KIND_PAYLOAD, wire)

    # Algorithm 2's two share decisions.  The attested build is defined
    # by what these return; a build returning anything else measures
    # differently and is refused at attestation (Section III-A).
    def _share_sample(self) -> RatingsDataset:
        """Raw-data share: a uniform sample of the store (line 18)."""
        return self.store.sample(self.config.share_points, self.local_rng)

    def _share_state(self):
        """Model share: the live parameters, as trained."""
        return self.model.state()

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #
    def _account_memory(self, *, staging: int) -> None:
        self.ctx.memory.set("store", self.store.nbytes)
        self.ctx.memory.set("model", self.model.resident_bytes)
        self.ctx.memory.set("test", self.test_data.nbytes)
        if staging:
            self.ctx.memory.set("staging", staging)
            self.ctx.memory.free("staging")


def _state_nbytes(state) -> int:
    total = 0
    for value in state.__dict__.values():
        nbytes = getattr(value, "nbytes", None)
        if nbytes is not None:
            total += int(nbytes)
    return total


def _state_rows(state) -> int:
    return int(state.user_seen.sum()) + int(state.item_seen.sum())
