"""The experiment preset registry: scaling, memoisation, topology presets."""

import networkx as nx
import pytest

from repro.core import Dissemination, RexCluster, SharingScheme
from repro.sim import experiments as E
from repro.sim.fleet import MfFleetSim
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
    E._sgx_cluster_run.cache_clear()
    E._sgx_priced_run.cache_clear()
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


class TestPresetMemo:
    """A preset cell runs once per process and key; every caller shares it."""

    @pytest.fixture
    def fleet_runs(self, monkeypatch):
        E._fleet_run.cache_clear()
        calls = []
        run = MfFleetSim.run

        def counted(self, *args, **kwargs):
            calls.append(self.config.epochs)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(MfFleetSim, "run", counted)
        yield calls
        E._fleet_run.cache_clear()

    def test_same_cell_is_one_run(self, fleet_runs, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCH_SCALE", "0.001")  # the 5-epoch floor
        first = E.fig4_run(Dissemination.RMW, "sw", SharingScheme.DATA)
        again = E.fig4_run(Dissemination.RMW, "sw", SharingScheme.DATA)
        assert again is first
        assert fleet_runs == [5]

    def test_epoch_scale_is_part_of_the_key(self, fleet_runs, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCH_SCALE", "0.001")
        short = E.fig4_run(Dissemination.RMW, "sw", SharingScheme.DATA)
        monkeypatch.setenv("REPRO_EPOCH_SCALE", "0.02")
        longer = E.fig4_run(Dissemination.RMW, "sw", SharingScheme.DATA)
        assert longer is not short
        assert len(short.records) == 5
        assert len(longer.records) == E.scaled_epochs(E.FIG4_BASE_EPOCHS) == 6
        assert fleet_runs == [5, 6]
