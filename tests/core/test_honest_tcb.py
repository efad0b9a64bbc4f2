"""No adversary in honest code (structural).

Every persona lives in :mod:`repro.faults`; the attested Algorithm 2, its
host, the cluster builder and the attestation state machine carry no
line of it.  These are text/shape checks on purpose: they fail on the
first ``if persona ...`` that creeps back, before any behaviour changes.
The serving checks at the end pin the same property on the serve path:
rollback refusal is not a defence switch, and the training enclave keeps
no serving state between queries.
The attested build also carries no model it never runs: it trains MF
only, like the paper's prototype, and refuses any other payload kind.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.channel import SecureChannel
from repro.core.cluster import RexCluster
from repro.core.config import RexConfig, SharingScheme
from repro.core.host import RexHost
from repro.core.messages import KIND_PAYLOAD, PayloadHeader
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.serialization import encode_triplets
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.serve.endpoint import ServeEnclaveApp, ServingState
from repro.serve.fleet.shard import encode_shard_users
from repro.serve.snapshot import encode_snapshot, snapshot_from_arrays
from repro.tee import AttestationService, Platform
from repro.tee.attestation import MutualAttestation
from repro.tee.errors import SnapshotReplayError
from tests.codec import encode_mf_state

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
        "node_id", "neighbors", "config", "boot", "resume_epoch",
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
# MF only: no DNN code in the attested app or its wire codecs
# --------------------------------------------------------------------- #
def _module_file(name: str):
    path = SRC.parent / name.replace(".", "/")
    for candidate in (path.with_suffix(".py"), path / "__init__.py"):
        if candidate.exists():
            return candidate
    return None


def _import_closure(root: str) -> set:
    """``repro`` modules reachable through import statements (function-
    local ones included).  A parent package's ``__init__`` is not
    followed unless imported by name: it aggregates the public API and
    is no code the importing module runs on."""
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(ast.parse(_module_file(name).read_text())):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                targets = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            todo += [t for t in targets if t.startswith("repro.") and _module_file(t)]
    return seen


@pytest.mark.parametrize("root", ["repro.core.app", "repro.net.serialization"])
def test_attested_code_imports_no_dnn(root):
    closure = _import_closure(root)
    assert "repro.ml.mf" in closure
    assert sorted(m for m in closure if m.startswith("repro.ml.dnn")) == []


@pytest.mark.parametrize("scheme", [SharingScheme.DATA, SharingScheme.MODEL], ids=["ds", "ms"])
def test_retired_dnn_content_kind_is_refused(tiny_split, scheme):
    """Tag 3 (the retired DNN model) takes the mismatched-payload path,
    even around bytes that are a valid payload of the run's own kind:
    counted, never raised, and the round runs without it."""
    config = RexConfig(
        scheme=scheme, epochs=3, share_points=10,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
    )  # fmt: skip
    train = partition_users_across_nodes(tiny_split.train, 2, seed=2)
    test = partition_users_across_nodes(tiny_split.test, 2, seed=2)
    cluster = RexCluster(Topology.fully_connected(2), config)
    cluster.bootstrap(train, test, global_mean=tiny_split.train.global_mean())
    host = cluster.hosts[0]
    host.pump()  # attests node 1 and runs epoch 0; node 1 has sent no payload yet
    app = host.enclave._app
    assert app.epoch == 1
    if scheme is SharingScheme.DATA:
        content = encode_triplets(app.store.as_dataset())
    else:
        content = encode_mf_state(app.model.state())
    sender = SecureChannel(app.channels[1]._cipher._key, 1, 0)
    wire = sender.seal(PayloadHeader(1, 0, 1, 3).pack() + content)
    host.enclave.ecall("ecall_input", 1, KIND_PAYLOAD, wire)
    assert cluster.obs.metrics.value("faults.recovered", node=0, kind="merge") == 1
    assert app.epoch == 2  # the round ran without the share


# --------------------------------------------------------------------- #
# The honest serving surface: one version rule, no switch, no state kept
# --------------------------------------------------------------------- #
def test_training_enclave_keeps_no_serving_state(tiny_split):
    """``ecall_serve`` answers from a fresh engine over a fresh snapshot:
    after a served batch the training app holds no engine, snapshot or
    cache, and charges no ``"serve"`` memory."""
    config = RexConfig(epochs=2, share_points=10, mf=MfHyperParams(k=4, batches_per_epoch=2))
    train = partition_users_across_nodes(tiny_split.train, 2, seed=2)
    test = partition_users_across_nodes(tiny_split.test, 2, seed=2)
    cluster = RexCluster(Topology.fully_connected(2), config)
    cluster.run(train, test, global_mean=tiny_split.train.global_mean())
    host = cluster.hosts[0]
    app = host.enclave._app
    fields = dict(vars(app))
    reply = host.serve([0, 1, 2], 5)
    assert len(reply["items"]) == 3 and reply["stats"]["requests"] == 3
    assert vars(app) == fields
    assert not any(isinstance(v, ServingState) for v in vars(app).values())
    assert "serve" not in app.ctx.memory.breakdown()


def test_serving_enclave_refuses_a_rollback_without_any_flag():
    def load_args(version):
        rows = np.ones((3, 2))
        seen = np.ones(3, dtype=bool)
        wire = encode_snapshot(
            snapshot_from_arrays(rows, rows, rows[:, 0], rows[:, 0], seen, seen, 3.5,
                                 version=version)
        )
        return {"snapshot": wire, "shard_users": encode_shard_users(np.arange(3))}

    enclave = Platform("tcb-serve", AttestationService()).create_enclave(
        ServeEnclaveApp, "serve-0"
    )
    enclave.ecall("ecall_load", load_args(2))
    with pytest.raises(SnapshotReplayError):
        enclave.ecall("ecall_load", load_args(1))
    assert enclave.metrics.value("faults.rejected", kind="replay_snapshot") == 1
