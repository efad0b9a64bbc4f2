"""A numpy-only install runs the package.

``pyproject.toml`` declares numpy as the one runtime dependency, and CI's
benchmark smoke job installs exactly that.  The check runs in a fresh
interpreter whose import system refuses every optional or dev-only
package, then imports ``repro`` and runs both training engines: the fleet
simulator's D-PSGD model merge and a small attested cluster.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib.abc
import math
import sys

BLOCKED = {"scipy", "networkx", "hypothesis", "cryptography"}


class Blocker(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ModuleNotFoundError(f"{name} is not installed", name=name)
        return None


sys.meta_path.insert(0, Blocker())

import repro  # noqa: E402
from repro.core import Dissemination, RexCluster, RexConfig, SharingScheme  # noqa: E402
from repro.data.movielens import generate_node_shards  # noqa: E402
from repro.ml.mf import MfHyperParams  # noqa: E402
from repro.net.topology import Topology  # noqa: E402
from repro.sim.fleet import MfFleetSim  # noqa: E402
from repro.tee.crypto.backend import aead_backend  # noqa: E402

split, train, test = generate_node_shards("numpy-only", users=30, items=60, ratings=900, nodes=3)
config = RexConfig(
    scheme=SharingScheme.MODEL,
    dissemination=Dissemination.DPSGD,
    epochs=3,
    share_points=20,
    mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
)
topology = Topology.fully_connected(3)
gm = split.train.global_mean()
fleet = MfFleetSim(train, test, topology, config, global_mean=gm).run()
run = RexCluster(topology, config).run(train, test, global_mean=gm)
assert len(fleet.records) == 3 and math.isfinite(fleet.final_rmse)
assert run.epochs_completed == 3 and run.total_network_bytes > 0
assert not BLOCKED & {name.partition(".")[0] for name in sys.modules}
print("numpy-only ok", aead_backend())
"""


def test_import_fleet_and_cluster_without_optional_packages():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("REPRO_AEAD_BACKEND", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["numpy-only", "ok", "numpy"]
