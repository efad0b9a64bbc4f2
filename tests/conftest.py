"""Shared fixtures: small, fast datasets and topologies.

Unit and integration tests run on a miniature MovieLens-shaped dataset
(40 users / 120 items / 1,600 ratings) so the whole suite stays fast; the
full Table I presets are exercised by dedicated dataset tests and by the
benchmark harness.
"""

from __future__ import annotations

import pytest

from repro.data.dataset import TrainTestSplit
from repro.data.movielens import MovieLensSpec, generate_movielens
from repro.net.topology import Topology

TINY_SPEC = MovieLensSpec(
    name="tiny",
    n_ratings=1600,
    n_items=120,
    n_users=40,
    last_updated=2020,
)


def pytest_addoption(parser):
    parser.addoption(
        "--chaos-seed",
        action="store",
        type=int,
        default=7,
        help="experiment seed for the chaos/fault-injection tests; every fault "
        "schedule is a pure function of (seed, plan), so re-running with the "
        "seed printed by a failing chaos test replays it exactly",
    )


@pytest.fixture(scope="session")
def chaos_seed(request) -> int:
    """The seed chaos tests derive their fault schedules from."""
    return int(request.config.getoption("--chaos-seed"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """On a chaos-test failure, print the exact replay command."""
    outcome = yield
    report = outcome.get_result()
    if (
        report.when == "call"
        and report.failed
        and "chaos_seed" in getattr(item, "fixturenames", ())
    ):
        seed = item.config.getoption("--chaos-seed")
        report.sections.append(
            (
                "chaos replay",
                f"deterministic replay: pytest {item.nodeid} --chaos-seed={seed}",
            )
        )


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate_movielens(TINY_SPEC, seed=11)


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset) -> TrainTestSplit:
    return tiny_dataset.split(0.7, seed=3)


@pytest.fixture(scope="session")
def ring8() -> Topology:
    return Topology.ring(8)


@pytest.fixture(scope="session")
def full4() -> Topology:
    return Topology.fully_connected(4)


def topology_graph(topology: Topology):
    """``topology`` as a ``networkx.Graph``, isolated nodes included."""
    import networkx as nx

    graph = nx.empty_graph(topology.n_nodes)
    graph.add_edges_from(topology.edges)
    return graph
