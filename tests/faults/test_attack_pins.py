"""Literal pins for the attack matrix (the net under the adversary's move).

Every attack plan, its undefended ``-open`` twin and the MODEL / RMW /
seed-5 variants, captured at commit 16ab531 -- the last tree whose
attested ``RexEnclaveApp`` carried the personas itself.  The tampered
build in :mod:`repro.faults.tampered` must reproduce each report field
exactly: schedule digest, final RMSE, precision@10 and the three
per-kind counter folds.  The file passes unedited on that parent commit
(``PYTHONPATH=<16ab531 checkout>/src python -m pytest
tests/faults/test_attack_pins.py``); re-capture a literal only for an
intentional behaviour change.
"""

import math

import pytest

from repro.core.config import Dissemination, SharingScheme
from repro.faults import run_chaos

NAN = float("nan")

#: (plan, run_chaos overrides, schedule_digest, final_rmse, precision,
#:  rejected, detected, attack_injected)
PINS = (
    (
        "poison",
        {},
        "89ffada0de8207c28689e9cb9de92ca33812f4296c64efe45c25e978a33dbabe",
        1.0674871224602518,
        0.085,
        {"rating_skew": 56},
        {},
        {"poison_points": 4000},
    ),
    (
        "poison-open",
        {},
        "13490daa69788ba2f21968a1ebb0a23d7644e787e2ca8ddbc7715ad351630b48",
        1.1302156401667172,
        0.045,
        {},
        {},
        {"poison_points": 4000},
    ),
    (
        "free-ride",
        {},
        "b74671a47ad86266f1528874850fcf5a81ea0bd08c849ff0d0844a9b5e4c7cae",
        1.0664509444818602,
        0.08,
        {},
        {"free_rider": 14},
        {"freeride_rounds": 10},
    ),
    (
        "free-ride-open",
        {},
        "2b0819a5d1323ab8212590704058f9c721496afbc2e75786d6c0e468a61ff476",
        1.0664509444818602,
        0.08,
        {},
        {},
        {"freeride_rounds": 10},
    ),
    (
        "sybil",
        {},
        "4652b347729648ff6341eb062214e158abb8a8e3d155be170091b0499b49f421",
        1.0693110181835994,
        0.10500000000000001,
        {"rating_skew": 28, "sybil": 28},
        {},
        {"poison_points": 11900, "sybil_frames": 140},
    ),
    (
        "sybil-open",
        {},
        "d0ea8c41ab821015111d54a9376538ccb856156284add6e17ef93d831fcc6dd3",
        1.1172931351404607,
        0.05500000000000001,
        {},
        {},
        {"poison_points": 11900, "sybil_frames": 140},
    ),
    (
        "replay-serve",
        {},
        "fa4cac8dfc3a6b430cd996df3b1c9cc43219b31bd01f788002fce3f739557f17",
        1.0686196986359013,
        0.09500000000000001,
        {"replay_snapshot": 1},
        {},
        {},
    ),
    (
        "byzantine-mix",
        {},
        "bb671bf8ae0430f827f084472f1f012f0cd04b0d77a63d9767812d14b1a34f8e",
        1.0704292192514644,
        0.08500000000000002,
        {"rating_skew": 56, "sybil": 14},
        {"free_rider": 7},
        {"freeride_rounds": 5, "poison_points": 4800, "sybil_frames": 70},
    ),
    (
        "poison",
        {"scheme": SharingScheme.MODEL},
        "89ffada0de8207c28689e9cb9de92ca33812f4296c64efe45c25e978a33dbabe",
        1.0690544943415732,
        0.07,
        {"rating_skew": 56},
        {},
        {"poison_states": 10},
    ),
    (
        "poison-open",
        {"scheme": SharingScheme.MODEL},
        "13490daa69788ba2f21968a1ebb0a23d7644e787e2ca8ddbc7715ad351630b48",
        NAN,
        0.0,
        {},
        {},
        {"poison_states": 10},
    ),
    (
        "byzantine-mix",
        {"dissemination": Dissemination.RMW},
        "bb671bf8ae0430f827f084472f1f012f0cd04b0d77a63d9767812d14b1a34f8e",
        1.0697056920672243,
        0.06500000000000002,
        {"rating_skew": 8, "sybil": 14},
        {},
        {"freeride_rounds": 5, "poison_points": 4800, "sybil_frames": 70},
    ),
    (
        "sybil",
        {"seed": 5},
        "4652b347729648ff6341eb062214e158abb8a8e3d155be170091b0499b49f421",
        1.0713294507294067,
        0.09000000000000001,
        {"rating_skew": 28, "sybil": 28},
        {},
        {"poison_points": 11900, "sybil_frames": 140},
    ),
)


def _pin_id(pin):
    plan, overrides = pin[0], pin[1]
    return "-".join([plan, *(str(getattr(v, "value", v)) for v in overrides.values())])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the boosted states overflow
@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_attack_report_matches_parent(pin):
    plan, overrides, digest, rmse, precision, rejected, detected, injected = pin
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
    assert report.detected == detected
    assert report.attack_injected == injected
