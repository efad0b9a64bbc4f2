"""Pin contract: the single endpoint is the 1-shard x 1-replica fleet.

``run_serving_experiment`` used to own a second train -> load -> drive ->
report pipeline (``RecServer`` driven by ``run_trace``, ``repro.serve/v1``).
It is now an adapter over ``run_fleet_experiment(shards=1, replicas=1)``.
Every literal in ``PINS`` was captured at commit a4a3dd9 -- the last tree
with the separate single-endpoint pipeline -- by running ``_facts`` below
with ``PYTHONPATH=<a4a3dd9>/src`` and printing the values with ``repr``;
``test_single_endpoint_reproduces_parent_pins`` passes unchanged on that
tree and on the current one.  The floats are compared bit for bit, not
allclose: at a fixed seed the degenerate fleet serves the same requests,
in the same batches, at the same simulated instants, against the same
EPC working set.

``run_trace`` + ``RecServer`` stay in-tree as the differential oracle:
the hypothesis test drives generated traces and policies through both and
requires equal completion lists.
"""

import functools
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.serialization import encode_triplets
from repro.serve import run_serving_experiment
from repro.serve import runner as stages
from repro.serve.server import REJECT_NEWEST, SHED_OLDEST, RecServer, ServePolicy
from repro.serve.workload import WorkloadGenerator, WorkloadSpec, run_trace
from repro.tee.attestation import AttestationService
from repro.tee.enclave import Platform
from repro.tee.epc import EpcModel

SMALL = dict(seed=0, nodes=4, epochs=3, users=40, items=120, ratings=1600)

SCENARIOS = {
    "default": dict(seed=0),
    "small_epc": dict(**SMALL, epc=EpcModel(total_mib=1.0, usable_mib=0.01)),
    # Queue depth below the per-tick arrivals: shed-oldest evicts admitted
    # work every tick, so admitted > completed and shed > 0.
    "shed_oldest_overload": dict(
        **SMALL,
        policy=ServePolicy(queue_depth=4, shed=SHED_OLDEST),
        workload=WorkloadSpec(seed=0, n_users=40, ticks=60, rate=8.0),
    ),
}

PINS = {'default': {'admitted': 800,
             'busy_s': 0.006162895999999996,
             'cache': {'embedding_hits': 0.0,
                       'embedding_misses': 0.0,
                       'evictions': 0.0,
                       'hits': 736.0,
                       'misses': 64.0},
             'completed': 800,
             'completion_digest': '0411433fdb40a81be2390821f9bc3431ef6e055e478faf02543a50085193a828',
             'completions': 800,
             'latency_s': {'count': 800.0,
                           'max': 0.0010871263999999992,
                           'mean': 0.0005562553440000028,
                           'p50': 8.712639999999827e-05,
                           'p95': 0.0010740543999999824,
                           'p99': 0.001084056},
             'offered': 800,
             'page_faults': 0.0,
             'quality': {'ndcg_at_10': 0.11822464382224813,
                         'precision_at_10': 0.09,
                         'probed_users': 50.0,
                         'recall_at_10': 0.11436986216397982},
             'resident_bytes': 29284.0,
             'shed': 0,
             'snapshot_digest': '0034f84f0d0d9daaf2b775be2ef3a9ca9babe2acc039f9f24bda38ed16e7008f',
             'trace_digest': '328339a604f575705dcaf6b3d85f27f414b3611dbb809c61b349a13ec0ea077c'},
 'shed_oldest_overload': {'admitted': 472,
                          'busy_s': 0.0014714464000000007,
                          'cache': {'embedding_hits': 0.0,
                                    'embedding_misses': 0.0,
                                    'evictions': 0.0,
                                    'hits': 89.0,
                                    'misses': 31.0},
                          'completed': 120,
                          'completion_digest': '1bceda5212ab2f74d2e4cf90779bcd0a95f87e2c6ae78197ddd7b4997f5c9558',
                          'completions': 120,
                          'latency_s': {'count': 120.0,
                                        'max': 0.0010502816000000012,
                                        'mean': 9.904821333333368e-05,
                                        'p50': 4.9088000000002685e-05,
                                        'p95': 5.0281600000000315e-05,
                                        'p99': 0.0010502816000000012},
                          'offered': 472,
                          'page_faults': 0.0,
                          'quality': {'ndcg_at_10': 0.11443582305567426,
                                      'precision_at_10': 0.07,
                                      'probed_users': 40.0,
                                      'recall_at_10': 0.14856331168831166},
                          'resident_bytes': 17756.0,
                          'shed': 352,
                          'snapshot_digest': 'ccaa58e63c33217dfb70d6a4a2ccd9718a9020b756a13744cde6926ba183afaf',
                          'trace_digest': 'd3063ff22da9ef84cbcff41ca44d61616083743fce18b7193d8211ce815343a2'},
 'small_epc': {'admitted': 802,
               'busy_s': 0.006412956663266593,
               'cache': {'embedding_hits': 0.0,
                         'embedding_misses': 0.0,
                         'evictions': 0.0,
                         'hits': 752.0,
                         'misses': 50.0},
               'completed': 802,
               'completion_digest': '27e7c45a1d932005d9a5b1324f711d438199f656f64c4e87f7720c4a202ff53f',
               'completions': 802,
               'latency_s': {'count': 802.0,
                             'max': 0.0010871263999999714,
                             'mean': 0.0005563070505822014,
                             'p50': 8.405599999999902e-05,
                             'p95': 0.0010779152000000014,
                             'p99': 0.001084056},
               'offered': 802,
               'page_faults': 17.061243187523203,
               'quality': {'ndcg_at_10': 0.11443582305567426,
                           'precision_at_10': 0.07,
                           'probed_users': 40.0,
                           'recall_at_10': 0.14856331168831166},
               'resident_bytes': 18404.0,
               'shed': 0,
               'snapshot_digest': 'ccaa58e63c33217dfb70d6a4a2ccd9718a9020b756a13744cde6926ba183afaf',
               'trace_digest': '619f2f8194fad9ddbb41fa54c5eb36e1ed3edb5bf847f20ee11fa32e2a542a2d'}}


def _completion_digest(completions) -> str:
    digest = hashlib.sha256()
    for c in completions:
        digest.update(
            repr((c.request_id, c.user, c.arrival_s.hex(), c.finish_s.hex())).encode()
        )
    return digest.hexdigest()


def _recording_step(seen):
    """``RecServer.step`` wrapped to record what it completes.

    Every pipeline -- ``run_trace``, ``RecServer.drain`` and the fleet
    balancer -- completes requests only through ``step``, so patching the
    class observes the completion list of whichever pipeline runs.
    """
    original = RecServer.step

    def step(self):
        completed = original(self)
        seen.extend(completed)
        return completed

    return mock.patch.object(RecServer, "step", step)


def _facts(**scenario) -> dict:
    completions: list = []
    with _recording_step(completions):
        report = run_serving_experiment(**scenario)
    doc = report.to_dict()
    # v1 kept the single endpoint's snapshot/EPC facts at the top level;
    # v2 files them under the one shard.
    shard = doc["per_shard"][0] if "per_shard" in doc else doc
    return {
        "completions": len(completions),
        "completion_digest": _completion_digest(completions),
        "trace_digest": doc["trace_digest"],
        "snapshot_digest": shard["snapshot_digest"],
        "offered": report.offered,
        # v1 (the parent tree the pins also run on) called admissions
        # into the replica queue ``admitted``; v2 calls them ``routed``.
        "admitted": report.routed if hasattr(report, "routed") else report.admitted,
        "shed": report.shed,
        "completed": report.completed,
        "busy_s": report.busy_s,
        "latency_s": report.latency_s,
        "cache": report.cache,
        "quality": report.quality,
        "page_faults": float(shard["epc"]["page_faults"]),
        "resident_bytes": float(shard["epc"]["resident_bytes"]),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_single_endpoint_reproduces_parent_pins(name):
    assert _facts(**SCENARIOS[name]) == PINS[name]


# --------------------------------------------------------------------- #
# Differential oracle: run_trace(RecServer) on the same loaded payload.
# --------------------------------------------------------------------- #
MODEL = dict(seed=0, nodes=4, epochs=2, users=30, items=40, ratings=900, mf_k=8)


@functools.lru_cache(maxsize=None)
def _trained():
    return stages.train_fleet_model(**MODEL)


def _oracle_enclave():
    """The 1x1 fleet's one shard payload, loaded into one bare enclave."""
    from repro.serve.fleet.shard import (
        ShardEnclaveApp,
        build_shard_payload,
        encode_shard_users,
    )

    sim, split = _trained()
    owned = np.arange(MODEL["users"], dtype=np.int64)
    wire, _ = build_shard_payload(
        sim.XU[0], sim.YI[0], sim.BU[0], sim.BI[0], sim.SU[0], sim.SI[0],
        sim.global_mean, owned, version=1, shard_id=0, epoch=MODEL["epochs"],
    )
    enclave = Platform("oracle", AttestationService()).create_enclave(
        ShardEnclaveApp, "oracle"
    )
    enclave.ecall(
        "ecall_load",
        {
            "snapshot": wire,
            "ratings": encode_triplets(split.train),
            "shard_users": encode_shard_users(owned),
        },
    )
    return enclave


@settings(max_examples=60, deadline=None)
@given(
    trace_seed=st.integers(0, 2**16),
    ticks=st.integers(1, 40),
    rate=st.floats(0.0, 12.0),
    zipf_s=st.floats(0.0, 2.0),
    shed=st.sampled_from([SHED_OLDEST, REJECT_NEWEST]),
    queue_depth=st.integers(1, 64),
    batch_window_ticks=st.integers(0, 3),
    max_batch=st.integers(1, 32),
)
def test_degenerate_fleet_equals_the_run_trace_oracle(
    trace_seed, ticks, rate, zipf_s, shed, queue_depth, batch_window_ticks, max_batch
):
    spec = WorkloadSpec(
        seed=trace_seed, n_users=MODEL["users"], ticks=ticks, rate=rate, zipf_s=zipf_s
    )
    policy = ServePolicy(
        top_k=5,
        queue_depth=queue_depth,
        max_batch=max_batch,
        batch_window_ticks=batch_window_ticks,
        shed=shed,
    )
    model = _trained()  # trained once, before the stage below is patched out
    served: list = []
    with mock.patch.object(stages, "train_fleet_model", lambda **_kw: model):
        with _recording_step(served):
            report = run_serving_experiment(
                **MODEL, workload=spec, policy=policy, quality_probe=False
            )

    server = RecServer(_oracle_enclave(), policy=policy, epc=EpcModel())
    want = run_trace(server, WorkloadGenerator(spec).trace())

    assert served == want  # (request_id, user, arrival_s, finish_s), bit for bit
    assert (report.offered, report.routed, report.shed, report.completed) == (
        server.offered, server.admitted, server.shed_count, len(want),
    )
    assert report.busy_s == server.busy_s
    assert report.per_shard[0]["epc"]["page_faults"] == server.page_faults
    assert report.routing_errors == 0
