"""Failure injection against the trusted application and the cluster.

The enclave must reject every malformed, replayed, or out-of-protocol
input the untrusted host could throw at it -- counted under
``faults.recovered``, never raised out of ``ecall_input`` -- and the
cluster runner must detect a stalled protocol instead of spinning forever.

Faults are injected through the transport's first-class chaos surface
(:attr:`Network.fault_hook` returning :class:`Fate` decisions, plus the
seeded :class:`~repro.faults.FaultInjector` for whole-plan scenarios)
rather than by monkeypatching delivery internals.
"""

import numpy as np
import pytest

from repro.core import (
    Dissemination,
    RexCluster,
    RexConfig,
    SharingScheme,
)
from repro.core.channel import SecureChannel
from repro.core.messages import (
    CONTENT_MF_MODEL,
    CONTENT_TRIPLETS,
    KIND_PAYLOAD,
    KIND_QUOTE,
    PayloadHeader,
)
from repro.data.dataset import RatingsDataset
from repro.data.partition import partition_users_across_nodes
from repro.faults import FaultInjector, FaultPlan, LinkFaults
from repro.ml.mf import MfHyperParams
from repro.net.serialization import encode_triplets
from repro.net.topology import Topology
from repro.net.transport import Fate
from tests.codec import encode_mf_state


def _config(scheme=SharingScheme.DATA, epochs=3, **kwargs):
    return RexConfig(
        scheme=scheme,
        dissemination=Dissemination.DPSGD,
        epochs=epochs,
        share_points=10,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
        **kwargs,
    )


def _two_node_cluster(**config_kwargs):
    return RexCluster(Topology.fully_connected(2), _config(**config_kwargs))


def _shards(tiny_split):
    train = partition_users_across_nodes(tiny_split.train, 2, seed=2)
    test = partition_users_across_nodes(tiny_split.test, 2, seed=2)
    return train, test, tiny_split.train.global_mean()


def _recovered(cluster, node, kind):
    return cluster.obs.metrics.value("faults.recovered", node=node, kind=kind)


def _tap(kinds, into):
    """A pass-through fault hook that records matching wire messages."""

    def hook(message, attempt):
        if message.kind in kinds:
            into.append(message)
        return None  # deliver unharmed

    return hook


@pytest.fixture()
def pair_cluster(tiny_split):
    """A bootstrapped (attested, epoch-0 done) two-node cluster."""
    train, test, gm = _shards(tiny_split)
    cluster = _two_node_cluster()
    cluster.bootstrap(train, test, global_mean=gm)
    for host in cluster.hosts:
        host.pump()
    return cluster


class TestMalformedInputs:
    def test_payload_from_unattested_peer_rejected(self, pair_cluster):
        host = pair_cluster.hosts[0]
        host.enclave.ecall("ecall_input", 99, KIND_PAYLOAD, b"\x00" * 64)
        assert _recovered(pair_cluster, 0, "unattested") == 1
        assert [s.epoch for s in host.epoch_stats] == [0]

    def test_unknown_message_kind_rejected(self, pair_cluster):
        host = pair_cluster.hosts[0]
        with pytest.raises(ValueError):
            host.enclave.ecall("ecall_input", 1, "gossip", b"")

    def test_garbage_ciphertext_rejected(self, pair_cluster):
        host = pair_cluster.hosts[0]
        host.enclave.ecall("ecall_input", 1, KIND_PAYLOAD, b"\x99" * 80)
        assert _recovered(pair_cluster, 0, "corrupt") == 1
        assert [s.epoch for s in host.epoch_stats] == [0]

    def test_replayed_payload_rejected(self, tiny_split):
        train, test, gm = _shards(tiny_split)
        cluster = _two_node_cluster()
        captured = []
        cluster.network.fault_hook = _tap({KIND_PAYLOAD}, captured)
        cluster.bootstrap(train, test, global_mean=gm)
        for host in cluster.hosts:
            host.pump()
        replay = captured[0]
        target = cluster.hosts[replay.destination]
        rounds = len(target.epoch_stats)
        target.enclave.ecall("ecall_input", replay.source, replay.kind, replay.payload)
        assert _recovered(cluster, replay.destination, "replay") == 1
        assert len(target.epoch_stats) == rounds

    def test_corrupted_frame_rejected_by_aead(self, tiny_split):
        """A bit-flipped payload frame (the injector's mangle, applied as a
        deterministic Fate) must fail authentication inside the enclave.
        The transport's ARQ retransmits the original, so its receiver
        gets the round's share without timing the barrier out."""
        train, test, gm = _shards(tiny_split)
        cluster = _two_node_cluster()
        injector = FaultInjector(
            FaultPlan(name="mangle-probe", link=LinkFaults(corrupt_rate=1.0)), seed=0
        )
        captured = []

        def corrupt_first_payload(message, attempt):
            if message.kind == KIND_PAYLOAD and not captured:
                captured.append(message)
                return Fate("corrupt", payload=injector._mangle(message.payload))
            return None

        cluster.network.fault_hook = corrupt_first_payload
        run = cluster.run(train, test, global_mean=gm)
        victim = captured[0].destination
        assert _recovered(cluster, victim, "corrupt") == 1
        assert cluster.obs.metrics.value("faults.recovered", kind="retry") == 1
        assert cluster.obs.metrics.total("faults.barrier_timeouts") == 0
        assert run.epochs_completed == 3

    @pytest.mark.parametrize("junk", [b"", b"\x01", b"junk", b"\xff" * 200])
    def test_junk_quote_is_counted_not_raised(self, tiny_split, junk):
        train, test, gm = _shards(tiny_split)
        cluster = _two_node_cluster()
        cluster.bootstrap(train, test, global_mean=gm)
        cluster.hosts[0].enclave.ecall("ecall_input", 1, KIND_QUOTE, junk)
        assert _recovered(cluster, 0, "quote") == 1
        assert cluster.hosts[0].status()["attested_peers"] == 0

    def test_duplicate_quote_is_idempotent(self, tiny_split):
        train, test, gm = _shards(tiny_split)
        cluster = _two_node_cluster()
        quotes = []
        cluster.network.fault_hook = _tap({KIND_QUOTE}, quotes)
        cluster.bootstrap(train, test, global_mean=gm)
        for host in cluster.hosts:
            host.pump()
        dup = quotes[0]
        target = cluster.hosts[dup.destination]
        before = target.status()["attested_peers"]
        target.enclave.ecall("ecall_input", dup.source, dup.kind, dup.payload)
        assert target.status()["attested_peers"] == before

    def test_wrong_content_kind_for_scheme(self, pair_cluster):
        """A model payload arriving in a data-sharing run is rejected
        even though it decrypts correctly (protocol confusion defence):
        the round it completes runs without it."""
        host0, host1 = pair_cluster.hosts
        app0 = host0.enclave._app
        app1 = host1.enclave._app
        # Forge a model payload *with the correct channel key*, tagged for
        # the epoch whose barrier fires next at node 0 (protocol confusion
        # by a compromised-but-attested peer; we reach into the test
        # double to craft it).
        state = app1.model.state()
        header = PayloadHeader(1, app0.epoch - 1, 1, CONTENT_MF_MODEL)
        plaintext = header.pack() + encode_mf_state(state)
        forged = SecureChannel(app0.channels[1]._cipher._key, 1, 0)
        forged._send_seq = 10_000  # stay ahead of the replay window
        wire = forged.seal(plaintext)
        epoch, stored = app0.epoch, len(app0.store)
        host0.enclave.ecall("ecall_input", 1, KIND_PAYLOAD, wire)
        assert _recovered(pair_cluster, 0, "merge") == 1
        assert app0.epoch == epoch + 1
        assert len(app0.store) == stored


class TestForeignIdSpaceShare:
    """A triplet share declaring another id space is one bad share.

    It used to pass decoding and fail only at ``store.append_unique``,
    outside the merge guard, so the ``ValueError`` escaped ``ecall_input``.
    """

    def _deliver(self, tiny_split):
        train, test, gm = _shards(tiny_split)
        cluster = _two_node_cluster()
        cluster.bootstrap(train, test, global_mean=gm)
        cluster.hosts[0].pump()  # attests node 1 and runs epoch 0
        app = cluster.hosts[0].enclave._app
        foreign = RatingsDataset(
            np.array([0, 40]), np.array([1, 2]), np.array([4.0, 5.0]),
            n_users=app.store.n_users + 1, n_items=app.store.n_items,
        )
        # Sealed with the channel key, as a compromised-but-attested peer
        # would; node 1 has sent no payload yet, so sequence 0 is fresh.
        sender = SecureChannel(app.channels[1]._cipher._key, 1, 0)
        wire = sender.seal(
            PayloadHeader(1, 0, 1, CONTENT_TRIPLETS).pack() + encode_triplets(foreign)
        )
        stored = len(app.store)
        cluster.hosts[0].enclave.ecall("ecall_input", 1, KIND_PAYLOAD, wire)
        return cluster, app, stored

    def test_tolerant_merge_counts_it_and_advances(self, tiny_split):
        cluster, app, stored = self._deliver(tiny_split)
        assert _recovered(cluster, 0, "merge") == 1
        assert app.epoch == 2  # the round ran without the share
        assert len(app.store) == stored


class TestStallDetection:
    def test_dropped_messages_stall_is_reported(self, tiny_split):
        """Payloads to node 1 are dropped and its host withholds every
        ``ecall_tick``, so its barrier can never time out: once node 0 is
        done the runner must raise with a diagnosis, not spin."""
        train, test, gm = _shards(tiny_split)
        cluster = _two_node_cluster()
        cluster.hosts[1].tick = lambda: 0

        def black_hole(message, attempt):
            if message.kind == KIND_PAYLOAD and message.destination == 1:
                return Fate("drop", reason="blackhole")
            return None

        cluster.network.fault_hook = black_hole
        with pytest.raises(RuntimeError, match=r"stalled.*laggards \(node: epoch\) \{1: 1\}"):
            cluster.run(train, test, global_mean=gm)


class TestDedupFlagInApp:
    def test_dedup_disabled_grows_store_faster(self, tiny_split):
        train, test, gm = _shards(tiny_split)

        def final_store(dedup):
            cluster = RexCluster(Topology.fully_connected(2), _config(dedup=dedup, epochs=6))
            run = cluster.run(train, test, global_mean=gm)
            return sum(s.store_items for s in run.stats_for_epoch(5))

        assert final_store(False) > final_store(True)
