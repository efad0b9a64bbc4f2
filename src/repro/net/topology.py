"""Communication topologies, generated from scratch.

Two families from the paper (Section IV-A2) plus the fully connected
layout of the SGX hardware experiments:

- **Small world** (Watts-Strogatz): a ring lattice where each node links to
  its ``k`` nearest neighbors, with each edge rewired to a random endpoint
  with probability ``p``.  Low diameter, high clustering.  The paper uses
  k=6, p=3%.
- **Erdos-Renyi**: every possible edge is present independently with
  probability ``p`` (5% in the paper).  The construction can leave the
  graph disconnected, so -- exactly as the paper does -- missing edges are
  added to join the components.
- **Fully connected**: the 8-node, 28-connection SGX testbed.

The class also computes the Metropolis-Hastings weight matrix used by
D-PSGD merging (Section III-C2): ``w_ij = 1 / (1 + max(d_i, d_j))`` for
each edge and ``w_ii = 1 - sum_j w_ij``, a doubly-stochastic matrix that
makes decentralized averaging converge to the true mean.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro._rng import child_rng

__all__ = ["Topology"]

Edge = Tuple[int, int]


class _UnionFind:
    """Disjoint sets for connectivity repair."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


class Topology:
    """An undirected communication graph over ``n_nodes`` nodes."""

    def __init__(self, n_nodes: int, edges: Sequence[Edge], *, name: str = "custom"):
        if n_nodes < 1:
            raise ValueError("topology needs at least one node")
        canonical: set = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if not (0 <= a < n_nodes and 0 <= b < n_nodes):
                raise ValueError(f"edge ({a}, {b}) out of range")
            canonical.add((min(a, b), max(a, b)))
        self.n_nodes = n_nodes
        self.name = name
        self.edges: Tuple[Edge, ...] = tuple(sorted(canonical))

        adjacency: List[List[int]] = [[] for _ in range(n_nodes)]
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        self._neighbors = tuple(np.array(sorted(adj), dtype=np.int64) for adj in adjacency)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of ``node``."""
        return self._neighbors[node]

    @property
    def degrees(self) -> np.ndarray:
        return np.array([len(adj) for adj in self._neighbors], dtype=np.int64)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def metropolis_hastings_weights(self) -> Dict[Tuple[int, int], float]:
        """Directed MH weight map including self-loops ``(i, i)``.

        ``w[i, j] = 1 / (1 + max(d_i, d_j))`` for each neighbor pair and
        ``w[i, i] = 1 - sum_j w[i, j]``; rows sum to one and the matrix is
        symmetric, hence doubly stochastic.
        """
        degrees = self.degrees
        weights: Dict[Tuple[int, int], float] = {}
        for i in range(self.n_nodes):
            row_sum = 0.0
            for j in self._neighbors[i]:
                w = 1.0 / (1.0 + max(degrees[i], degrees[int(j)]))
                weights[(i, int(j))] = w
                row_sum += w
            weights[(i, i)] = 1.0 - row_sum
        return weights

    # ------------------------------------------------------------------ #
    # Generators
    # ------------------------------------------------------------------ #
    @classmethod
    def small_world(
        cls, n_nodes: int, *, k: int = 6, rewire_probability: float = 0.03, seed: int = 0
    ) -> "Topology":
        """Watts-Strogatz graph (paper defaults: k=6, p=3%)."""
        if k % 2 != 0:
            raise ValueError("k must be even (k/2 neighbors on each side)")
        if k >= n_nodes:
            raise ValueError("k must be smaller than the node count")
        rng = child_rng(seed, "topology", "small-world", n_nodes, k)
        edge_set: set = set()
        for node in range(n_nodes):
            for step in range(1, k // 2 + 1):
                edge_set.add((min(node, (node + step) % n_nodes), max(node, (node + step) % n_nodes)))
        edges = sorted(edge_set)
        rewired: set = set()
        for a, b in edges:
            if rng.random() < rewire_probability:
                # Rewire the far endpoint to a uniform random node,
                # avoiding self-loops and duplicates (standard WS rule).
                for _ in range(n_nodes):
                    target = int(rng.integers(0, n_nodes))
                    candidate = (min(a, target), max(a, target))
                    if target != a and candidate not in rewired and candidate not in edge_set:
                        rewired.add(candidate)
                        break
                else:  # pragma: no cover - dense fallback
                    rewired.add((a, b))
            else:
                rewired.add((a, b))
        topology = cls(n_nodes, sorted(rewired), name=f"small-world({n_nodes},k={k})")
        return topology._ensure_connected(rng)

    @classmethod
    def erdos_renyi(cls, n_nodes: int, *, p: float = 0.05, seed: int = 0) -> "Topology":
        """Erdos-Renyi G(n, p) graph, repaired to be connected."""
        if not 0.0 < p <= 1.0:
            raise ValueError("edge probability must be in (0, 1]")
        rng = child_rng(seed, "topology", "erdos-renyi", n_nodes)
        # Vectorized upper-triangle Bernoulli draw.
        iu, ju = np.triu_indices(n_nodes, k=1)
        mask = rng.random(len(iu)) < p
        edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
        topology = cls(n_nodes, edges, name=f"erdos-renyi({n_nodes},p={p})")
        return topology._ensure_connected(rng)

    @classmethod
    def fully_connected(cls, n_nodes: int) -> "Topology":
        """Complete graph (the paper's 8-node / 28-edge SGX setup)."""
        iu, ju = np.triu_indices(n_nodes, k=1)
        edges = list(zip(iu.tolist(), ju.tolist()))
        return cls(n_nodes, edges, name=f"fully-connected({n_nodes})")

    @classmethod
    def ring(cls, n_nodes: int) -> "Topology":
        """Simple cycle; useful in tests and ablations."""
        edges = [(i, (i + 1) % n_nodes) for i in range(n_nodes)]
        return cls(n_nodes, edges, name=f"ring({n_nodes})")

    def _ensure_connected(self, rng: np.random.Generator) -> "Topology":
        """Join components by adding random cross-component edges.

        Mirrors the paper's repair: "we ensure to make it connected by
        adding the missing edges."
        """
        uf = _UnionFind(self.n_nodes)
        for a, b in self.edges:
            uf.union(a, b)
        roots = {uf.find(i) for i in range(self.n_nodes)}
        if len(roots) == 1:
            return self
        extra: List[Edge] = []
        components: Dict[int, List[int]] = {}
        for node in range(self.n_nodes):
            components.setdefault(uf.find(node), []).append(node)
        groups = list(components.values())
        for left, right in zip(groups, groups[1:]):
            a = int(left[rng.integers(0, len(left))])
            b = int(right[rng.integers(0, len(right))])
            extra.append((a, b))
        return Topology(self.n_nodes, list(self.edges) + extra, name=self.name)
