"""The experiment preset registry: scaling, caching, topology presets."""

import json
from functools import lru_cache

import networkx as nx
import pytest

from repro.core import Dissemination, RexCluster, SharingScheme
from repro.sim import experiments as E
from repro.sim.recorder import EpochRecord, RunResult
from tests.conftest import topology_graph


class TestScaling:
    def test_scaled_epochs_applies_factor(self, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCH_SCALE", "0.5")
        assert E.scaled_epochs(100) == 50

    def test_scaled_epochs_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCH_SCALE", "0.001")
        assert E.scaled_epochs(100) == 5

    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_EPOCH_SCALE", raising=False)
        assert E.scaled_epochs(100) == 40


class TestTopologyPresets:
    def test_paper_graphs(self):
        sw = E.topology("sw", 60)
        er = E.topology("er", 60)
        full = E.topology("full", 8)
        assert nx.is_connected(topology_graph(sw)) and nx.is_connected(topology_graph(er))
        assert full.n_edges == 28

    def test_cached_instances(self):
        assert E.topology("sw", 60) is E.topology("sw", 60)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            E.topology("hypercube", 16)


def test_native_cell_is_the_sgx_cell_repriced(monkeypatch):
    """Both builds of a cell come from one protocol run: same curve, and
    the native price list never charges a stage more than SGX's."""
    monkeypatch.setenv("REPRO_EPOCH_SCALE", "0.001")  # the 5-epoch floor
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setattr(E, "_MEMORY_CACHE", {})
    monkeypatch.setattr(
        E, "_sgx_cluster_run", lru_cache(maxsize=None)(E._sgx_cluster_run.__wrapped__)
    )
    calls = []
    run = RexCluster.run

    def counted(self, *args, **kwargs):
        calls.append(self.config)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(RexCluster, "run", counted)
    sgx = E.sgx_run(Dissemination.DPSGD, SharingScheme.DATA, sgx=True)
    native = E.sgx_run(Dissemination.DPSGD, SharingScheme.DATA, sgx=False)

    assert len(calls) == 1
    assert sgx.sgx and not native.sgx
    assert sgx.label.endswith("(SGX)") and native.label.endswith("(native)")
    assert len(sgx.records) == len(native.records) == calls[0].epochs
    assert [r.test_rmse for r in native.records] == [r.test_rmse for r in sgx.records]
    stages = ("merge", "train", "share", "test", "network")
    for s, n in zip(sgx.records, native.records):
        for stage in stages:
            assert getattr(n, f"{stage}_time_s") <= getattr(s, f"{stage}_time_s"), stage


class TestRunCache:
    def _fake_result(self, label):
        return RunResult(
            label=label, scheme="rex", dissemination="rmw", topology="t",
            n_nodes=2, model="mf",
            records=[EpochRecord(0, 1.0, 1.0, 10, 10)],
        )

    def test_builder_called_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        calls = []

        def builder():
            calls.append(1)
            return self._fake_result("cached")

        a = E._cached("test-key-1", builder)
        b = E._cached("test-key-1", builder)
        assert a is b
        assert len(calls) == 1

    def test_disk_cache_survives_memory_eviction(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        E._cached("test-key-2", lambda: self._fake_result("disk"))
        E._MEMORY_CACHE.pop("test-key-2")
        restored = E._cached(
            "test-key-2",
            lambda: (_ for _ in ()).throw(AssertionError("should hit disk")),
        )
        assert restored.label == "disk"
        assert len(list(tmp_path.glob("*.json"))) >= 1

    def test_no_cache_env_disables_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        E._cached("test-key-3", lambda: self._fake_result("volatile"))
        assert not list(tmp_path.glob("*.json"))

    def test_cache_version_partitions_keys(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        E._cached("test-key-4", lambda: self._fake_result("v"))
        path = next(tmp_path.glob("*.json"))
        payload = json.loads(path.read_text())
        assert payload["label"] == "v"
        # A different cache version must map to a different file name.
        monkeypatch.setattr(E, "_CACHE_VERSION", "test-version")
        E._MEMORY_CACHE.pop("test-key-4")
        E._cached("test-key-4", lambda: self._fake_result("v2"))
        assert len(list(tmp_path.glob("*.json"))) == 2

    @pytest.fixture(autouse=True)
    def _clean_memory_cache(self):
        yield
        for key in list(E._MEMORY_CACHE):
            if key.startswith("test-key"):
                E._MEMORY_CACHE.pop(key)
