"""Failure injection against the trusted application and the cluster.

The enclave must reject every malformed, replayed, or out-of-protocol
input the untrusted host could throw at it, and the cluster runner must
detect a stalled protocol instead of spinning forever.

Faults are injected through the transport's first-class chaos surface
(:attr:`Network.fault_hook` returning :class:`Fate` decisions, plus the
seeded :class:`~repro.faults.FaultInjector` for whole-plan scenarios)
rather than by monkeypatching delivery internals.
"""

import pytest

from repro.core import (
    CryptoMode,
    Dissemination,
    RexCluster,
    RexConfig,
    SharingScheme,
)
from repro.core.channel import ReplayError, SecureChannel
from repro.core.messages import (
    CONTENT_MF_MODEL,
    KIND_PAYLOAD,
    KIND_QUOTE,
    PayloadHeader,
    pack_payload,
)
from repro.data.partition import partition_users_across_nodes
from repro.faults import FaultInjector, FaultPlan, LinkFaults
from repro.ml.mf import MfHyperParams
from repro.net.serialization import encode_mf_state
from repro.net.topology import Topology
from repro.net.transport import Fate
from repro.tee.crypto.aead import AeadError
from repro.tee.errors import ChannelNotEstablished, QuoteVerificationError


def _config(scheme=SharingScheme.DATA, epochs=3, **kwargs):
    return RexConfig(
        scheme=scheme,
        dissemination=Dissemination.DPSGD,
        epochs=epochs,
        share_points=10,
        crypto_mode=CryptoMode.REAL,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
        **kwargs,
    )


def _two_node_cluster(secure=True, **config_kwargs):
    return RexCluster(
        Topology.fully_connected(2), _config(**config_kwargs), secure=secure
    )


def _shards(tiny_split):
    train = partition_users_across_nodes(tiny_split.train, 2, seed=2)
    test = partition_users_across_nodes(tiny_split.test, 2, seed=2)
    return train, test, tiny_split.train.global_mean()


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
        with pytest.raises(ChannelNotEstablished):
            host.enclave.ecall("ecall_input", 99, KIND_PAYLOAD, b"\x00" * 64)

    def test_unknown_message_kind_rejected(self, pair_cluster):
        host = pair_cluster.hosts[0]
        with pytest.raises(ValueError):
            host.enclave.ecall("ecall_input", 1, "gossip", b"")

    def test_garbage_ciphertext_rejected(self, pair_cluster):
        host = pair_cluster.hosts[0]
        with pytest.raises((AeadError, ChannelNotEstablished)):
            host.enclave.ecall("ecall_input", 1, KIND_PAYLOAD, b"\x99" * 80)

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
        with pytest.raises(ReplayError):
            target.enclave.ecall("ecall_input", replay.source, replay.kind, replay.payload)

    def test_corrupted_frame_rejected_by_aead(self, tiny_split):
        """A bit-flipped payload frame (the injector's mangle, applied as a
        deterministic Fate) must fail authentication inside the enclave."""
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
        with pytest.raises((AeadError, ChannelNotEstablished)):
            cluster.run(train, test, global_mean=gm)

    def test_quote_to_native_build_rejected(self, tiny_split):
        train, test, gm = _shards(tiny_split)
        cluster = _two_node_cluster(secure=False)
        cluster.bootstrap(train, test, global_mean=gm)
        with pytest.raises(ChannelNotEstablished):
            cluster.hosts[0].enclave.ecall("ecall_input", 1, KIND_QUOTE, b"junk")

    @pytest.mark.parametrize("junk", [b"", b"\x01", b"junk", b"\xff" * 200])
    def test_junk_quote_leaves_a_strict_enclave_as_a_typed_error(self, tiny_split, junk):
        train, test, gm = _shards(tiny_split)
        cluster = _two_node_cluster()
        cluster.bootstrap(train, test, global_mean=gm)
        with pytest.raises(QuoteVerificationError):
            cluster.hosts[0].enclave.ecall("ecall_input", 1, KIND_QUOTE, junk)

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
        even though it decrypts correctly (protocol confusion defence)."""
        host0, host1 = pair_cluster.hosts
        for _ in range(3):  # let both nodes run a few rounds
            host0.pump()
            host1.pump()
        app0 = host0.enclave._app
        app1 = host1.enclave._app
        # Forge a model payload *with the correct channel key*, tagged for
        # the epoch whose barrier fires next at node 0 (protocol confusion
        # by a compromised-but-attested peer; we reach into the test
        # double to craft it).
        state = app1.model.state()
        plaintext = pack_payload(
            PayloadHeader(1, app0.epoch - 1, 1, CONTENT_MF_MODEL),
            encode_mf_state(state),
        )
        forged = SecureChannel(app0.channels[1]._cipher._key, 1, 0)
        forged._send_seq = 10_000  # stay ahead of the replay window
        wire = forged.seal(plaintext)
        with pytest.raises(ValueError, match="model payload"):
            host0.enclave.ecall("ecall_input", 1, KIND_PAYLOAD, wire)


class TestStallDetection:
    def test_dropped_messages_stall_is_reported(self, tiny_split):
        """If the (lossless by contract) network drops payloads in strict
        mode, the barrier never fires and the runner must raise, not hang."""
        train, test, gm = _shards(tiny_split)
        cluster = _two_node_cluster()

        def black_hole(message, attempt):
            if message.kind == KIND_PAYLOAD and message.destination == 1:
                return Fate("drop", reason="blackhole")
            return None

        cluster.network.fault_hook = black_hole
        with pytest.raises(RuntimeError, match="stalled"):
            cluster.run(train, test, global_mean=gm)


class TestDedupFlagInApp:
    def test_dedup_disabled_grows_store_faster(self, tiny_split):
        train, test, gm = _shards(tiny_split)

        def final_store(dedup):
            cluster = RexCluster(
                Topology.fully_connected(2),
                _config(dedup=dedup, epochs=6),
                secure=True,
            )
            run = cluster.run(train, test, global_mean=gm)
            return sum(s.store_items for s in run.stats_for_epoch(5))

        assert final_store(False) > final_store(True)
