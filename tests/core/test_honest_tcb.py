"""No adversary in honest code (structural).

Every persona lives in :mod:`repro.faults`; the attested Algorithm 2, its
host, the cluster builder and the attestation state machine carry no
line of it.  These are text/shape checks on purpose: they fail on the
first ``if persona ...`` that creeps back, before any behaviour changes.
The serving checks at the end pin the same property on the serve path:
rollback refusal is not a defence switch and no snapshot history stays.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.cluster import RexCluster
from repro.core.config import RexConfig
from repro.core.host import RexHost
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.serve.endpoint import ServeEnclaveApp
from repro.serve.snapshot import encode_snapshot, snapshot_from_arrays
from repro.tee import AttestationService, Platform
from repro.tee.attestation import MutualAttestation
from repro.tee.errors import SnapshotReplayError

SRC = Path(repro.__file__).parent
HONEST_FILES = ("core/app.py", "core/host.py", "core/cluster.py", "tee/attestation.py")
ADVERSARY_WORDS = re.compile(r"persona|poison|sybil_|forge_|attack_role|send_as")


@pytest.mark.parametrize("relpath", HONEST_FILES)
def test_honest_module_has_no_adversary_vocabulary(relpath):
    text = (SRC / relpath).read_text()
    hits = [
        (lineno, line.strip())
        for lineno, line in enumerate(text.splitlines(), start=1)
        if ADVERSARY_WORDS.search(line)
    ]
    assert hits == []


def test_ecall_init_reads_exactly_the_bootstrap_keys():
    text = (SRC / "core/app.py").read_text()
    body = text[text.index("def ecall_init") : text.index("def ecall_input")]
    keys = set(re.findall(r'args(?:\.get\(|\[)"(\w+)"', body))
    assert keys == {
        "node_id", "neighbors", "config", "secure", "boot", "resume_epoch",
        "n_users", "n_items", "train", "test", "global_mean",
    }  # fmt: skip


def test_honest_host_registers_exactly_three_ocalls():
    service = AttestationService()
    host = RexHost(0, Platform("sgx-0", service), Network().endpoint(0))
    assert sorted(host.enclave._ocall_handlers) == ["get_quote", "report_stats", "send_message"]


def test_no_attack_surface_on_cluster_or_attestor():
    suspicious = re.compile(r"attack|forge|sybil|persona|poison|clone")
    for cls in (RexCluster, RexHost, MutualAttestation):
        assert [name for name in dir(cls) if suspicious.search(name)] == []


# --------------------------------------------------------------------- #
# The honest serving surface: one version rule, no switch, no history
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def published_twice(tiny_split):
    """A trained node (defences off, the default) after two publishes."""
    config = RexConfig(epochs=2, share_points=10, mf=MfHyperParams(k=4, batches_per_epoch=2))
    assert not config.defenses.enabled
    train = partition_users_across_nodes(tiny_split.train, 2, seed=2)
    test = partition_users_across_nodes(tiny_split.test, 2, seed=2)
    cluster = RexCluster(Topology.fully_connected(2), config, secure=False)
    cluster.run(train, test, global_mean=tiny_split.train.global_mean())
    host = cluster.hosts[0]
    host.publish_snapshot()
    assert host.publish_snapshot()["version"] == 2
    return host


def test_undefended_node_refuses_an_older_serve_version(published_twice):
    with pytest.raises(SnapshotReplayError):
        published_twice.serve([0, 1], 5, version=1)
    assert published_twice.serve([0, 1], 5, version=2)["stats"]["requests"] == 2


def test_published_snapshots_keep_no_history(published_twice):
    assert not hasattr(published_twice.enclave._app, "_published")


def test_serving_enclave_refuses_a_rollback_without_any_flag():
    def snapshot(version):
        rows = np.ones((3, 2))
        seen = np.ones(3, dtype=bool)
        return encode_snapshot(
            snapshot_from_arrays(rows, rows, rows[:, 0], rows[:, 0], seen, seen, 3.5,
                                 version=version)
        )

    enclave = Platform("tcb-serve", AttestationService()).create_enclave(
        ServeEnclaveApp, "serve-0"
    )
    enclave.ecall("ecall_load", {"snapshot": snapshot(2)})
    with pytest.raises(SnapshotReplayError):
        enclave.ecall("ecall_load", {"snapshot": snapshot(1)})
    assert enclave.metrics.value("faults.rejected", kind="replay_snapshot") == 1
