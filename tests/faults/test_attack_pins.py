"""Literal pins for the attack matrix (the net under the adversary's move).

Every attack plan, its undefended ``-open`` twin and the MODEL / RMW
variants, captured at commit 16ab531 -- the last tree whose
attested ``RexEnclaveApp`` carried the personas itself.  The tampered
build in :mod:`repro.faults.tampered` must reproduce each report field
exactly: schedule digest, final RMSE, precision@10 and the two
per-kind counter folds.  The file passes unedited on that parent commit
(``PYTHONPATH=<16ab531 checkout>/src python -m pytest
tests/faults/test_attack_pins.py``); re-capture a literal only for an
intentional behaviour change.

One such change: the enclave now refuses a quote from any id outside
its neighbor set, in every build.  Sybil clone ids lay above the real id
range, so the plans with a sybil persona were re-captured once.

Another: the sybil clone fan-out and the free-rider persona are gone
(membership refused every clone, and free-riding moved no metric), and
with them the ``detected`` column.  ``byzantine-mix`` became poisoning
at node 4 on 10% loss, so its two pins were re-captured once (DPSGD
digest ``bb671bf8…`` -> ``6d20d6a5…``, RMSE 1.0704292192514644 ->
1.0726220719310466, precision@10 0.085 -> 0.09; RMW RMSE
1.0697056920672243 -> 1.0659349666858455, precision@10 0.065 ->
0.085).  Every other pin is unchanged.
"""

import math

import pytest

from repro.core.config import Dissemination, SharingScheme
from repro.faults import run_chaos

NAN = float("nan")

#: (plan, run_chaos overrides, schedule_digest, final_rmse, precision,
#:  rejected, attack_injected)
PINS = (
    (
        "poison",
        {},
        "89ffada0de8207c28689e9cb9de92ca33812f4296c64efe45c25e978a33dbabe",
        1.0674871224602518,
        0.085,
        {"rating_skew": 56},
        {"poison_points": 4000},
    ),
    (
        "poison-open",
        {},
        "13490daa69788ba2f21968a1ebb0a23d7644e787e2ca8ddbc7715ad351630b48",
        1.1302156401667172,
        0.045,
        {},
        {"poison_points": 4000},
    ),
    (
        "replay-serve",
        {},
        "fa4cac8dfc3a6b430cd996df3b1c9cc43219b31bd01f788002fce3f739557f17",
        1.0686196986359013,
        0.09500000000000001,
        {"replay_snapshot": 1},
        {},
    ),
    (
        "byzantine-mix",
        {},
        "6d20d6a51ad315072311b28c36bf14e12f7aa84d03d01f885a0bec3ccdaa714a",
        1.0726220719310466,
        0.09000000000000001,
        {"rating_skew": 28},
        {"poison_points": 1200},
    ),
    (
        "poison",
        {"scheme": SharingScheme.MODEL},
        "89ffada0de8207c28689e9cb9de92ca33812f4296c64efe45c25e978a33dbabe",
        1.0690544943415732,
        0.07,
        {"rating_skew": 56},
        {"poison_states": 10},
    ),
    (
        "poison-open",
        {"scheme": SharingScheme.MODEL},
        "13490daa69788ba2f21968a1ebb0a23d7644e787e2ca8ddbc7715ad351630b48",
        NAN,
        0.0,
        {},
        {"poison_states": 10},
    ),
    (
        "byzantine-mix",
        {"dissemination": Dissemination.RMW},
        "6d20d6a51ad315072311b28c36bf14e12f7aa84d03d01f885a0bec3ccdaa714a",
        1.0659349666858455,
        0.085,
        {"rating_skew": 4},
        {"poison_points": 1200},
    ),
)


def _pin_id(pin):
    plan, overrides = pin[0], pin[1]
    return "-".join([plan, *(str(getattr(v, "value", v)) for v in overrides.values())])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the boosted states overflow
@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_attack_report_matches_parent(pin):
    plan, overrides, digest, rmse, precision, rejected, injected = pin
    report = run_chaos(plan, **overrides)
    assert report.schedule_digest == digest
    # Boosted model states overflow to NaN in the open MODEL run; NaN is
    # the pinned outcome there, everywhere else the float is exact.
    if math.isnan(rmse):
        assert math.isnan(report.final_rmse)
    else:
        assert report.final_rmse == rmse
    assert report.precision == precision
    assert report.rejected == rejected
    assert report.attack_injected == injected
