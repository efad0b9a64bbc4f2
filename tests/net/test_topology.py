"""Topology generation: small world, Erdos-Renyi, MH weights."""

import networkx as nx
import numpy as np
import pytest

from repro.net.topology import Topology
from tests.conftest import topology_graph


class TestBasics:
    def test_edges_canonicalized(self):
        topo = Topology(4, [(1, 0), (0, 1), (2, 3)])
        assert topo.edges == ((0, 1), (2, 3))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Topology(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Topology(3, [(0, 3)])

    def test_neighbors_sorted(self):
        topo = Topology(5, [(0, 4), (0, 2), (0, 1)])
        assert topo.neighbors(0).tolist() == [1, 2, 4]

    def test_degrees(self):
        topo = Topology.ring(6)
        assert (topo.degrees == 2).all()


class TestGenerators:
    def test_fully_connected_paper_setup(self):
        """The paper's SGX testbed: 8 nodes, 28 pair-wise connections."""
        topo = Topology.fully_connected(8)
        assert topo.n_edges == 28
        assert (topo.degrees == 7).all()

    def test_ring(self):
        topo = Topology.ring(5)
        assert topo.n_edges == 5
        assert nx.is_connected(topology_graph(topo))

    def test_small_world_paper_parameters(self):
        topo = Topology.small_world(100, k=6, rewire_probability=0.03, seed=1)
        assert nx.is_connected(topology_graph(topo))
        # Each node keeps roughly its k lattice links.
        assert 4 <= topo.degrees.mean() <= 8

    def test_small_world_high_clustering(self):
        sw = Topology.small_world(200, k=6, rewire_probability=0.03, seed=1)
        er = Topology.erdos_renyi(200, p=6 / 199, seed=1)
        assert nx.average_clustering(topology_graph(sw)) > 2 * nx.average_clustering(
            topology_graph(er)
        )

    def test_small_world_zero_rewire_is_lattice(self):
        topo = Topology.small_world(20, k=4, rewire_probability=0.0, seed=0)
        assert topo.n_edges == 20 * 2
        assert (topo.degrees == 4).all()

    def test_small_world_odd_k_rejected(self):
        with pytest.raises(ValueError):
            Topology.small_world(20, k=3)

    def test_small_world_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            Topology.small_world(4, k=4)

    def test_erdos_renyi_connected_by_construction(self):
        # Low p would normally leave isolated nodes; repair must join them.
        for seed in range(5):
            topo = Topology.erdos_renyi(60, p=0.02, seed=seed)
            assert nx.is_connected(topology_graph(topo))

    def test_erdos_renyi_density_close_to_p(self):
        topo = Topology.erdos_renyi(300, p=0.05, seed=3)
        possible = 300 * 299 / 2
        assert 0.04 < topo.n_edges / possible < 0.065

    def test_erdos_renyi_invalid_p(self):
        with pytest.raises(ValueError):
            Topology.erdos_renyi(10, p=0.0)

    def test_generators_deterministic(self):
        a = Topology.small_world(50, k=4, rewire_probability=0.1, seed=9)
        b = Topology.small_world(50, k=4, rewire_probability=0.1, seed=9)
        assert a.edges == b.edges

    def test_generator_seed_matters(self):
        a = Topology.erdos_renyi(50, p=0.1, seed=1)
        b = Topology.erdos_renyi(50, p=0.1, seed=2)
        assert a.edges != b.edges


class TestMetropolisHastings:
    def test_rows_sum_to_one(self):
        topo = Topology.erdos_renyi(40, p=0.15, seed=2)
        weights = topo.metropolis_hastings_weights()
        rows = {}
        for (i, _j), w in weights.items():
            rows[i] = rows.get(i, 0.0) + w
        assert all(abs(total - 1.0) < 1e-12 for total in rows.values())

    def test_symmetric(self):
        topo = Topology.erdos_renyi(40, p=0.15, seed=2)
        weights = topo.metropolis_hastings_weights()
        for (i, j), w in weights.items():
            if i != j:
                assert weights[(j, i)] == pytest.approx(w)

    def test_known_ring_values(self):
        weights = Topology.ring(5).metropolis_hastings_weights()
        assert weights[(0, 1)] == pytest.approx(1 / 3)
        assert weights[(0, 0)] == pytest.approx(1 / 3)

    def test_edge_weight_uses_max_degree(self):
        # Star graph: hub degree 3, leaves degree 1 -> w = 1/(1+3).
        topo = Topology(4, [(0, 1), (0, 2), (0, 3)])
        weights = topo.metropolis_hastings_weights()
        assert weights[(1, 0)] == pytest.approx(0.25)
        assert weights[(1, 1)] == pytest.approx(0.75)
        assert weights[(0, 0)] == pytest.approx(0.25)

    def test_self_weight_nonnegative(self):
        topo = Topology.small_world(60, k=6, rewire_probability=0.2, seed=4)
        weights = topo.metropolis_hastings_weights()
        assert all(w >= -1e-12 for (i, j), w in weights.items() if i == j)

    def test_averaging_converges_to_mean(self):
        """The doubly-stochastic property in action: repeated MH averaging
        drives all node values to the global mean (the basis of D-PSGD)."""
        topo = Topology.erdos_renyi(20, p=0.3, seed=5)
        weights = topo.metropolis_hastings_weights()
        W = np.zeros((20, 20))
        for (i, j), w in weights.items():
            W[i, j] = w
        values = np.arange(20, dtype=float)
        target = values.mean()
        for _ in range(300):
            values = W @ values
        np.testing.assert_allclose(values, target, atol=1e-6)
