"""No adversary in honest code (structural).

Every persona lives in :mod:`repro.faults`; the attested Algorithm 2, its
host, the cluster builder and the attestation state machine carry no
line of it.  These are text/shape checks on purpose: they fail on the
first ``if persona ...`` that creeps back, before any behaviour changes.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.core.cluster import RexCluster
from repro.core.host import RexHost
from repro.net.transport import Network
from repro.tee import AttestationService, Platform
from repro.tee.attestation import MutualAttestation

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
