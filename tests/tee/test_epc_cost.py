"""EPC paging model and the SGX cost model."""

import pytest

from repro.tee.cost_model import NATIVE_COST_MODEL, SGX1_COST_MODEL, SgxCostModel
from repro.tee.epc import MIB, PAGE_SIZE, EpcModel


class TestEpcModel:
    def test_defaults_match_paper_hardware(self):
        epc = EpcModel()
        assert epc.total_mib == 128.0
        assert epc.usable_mib == 93.5

    def test_share_split_across_enclaves(self):
        epc = EpcModel(enclaves_per_machine=2)
        assert epc.share_bytes == pytest.approx(93.5 * MIB / 2)

    def test_no_misses_below_share(self):
        epc = EpcModel()
        assert epc.miss_probability(10 * MIB) == 0.0
        assert epc.page_faults(5 * MIB, 10 * MIB) == 0.0

    def test_miss_probability_grows_with_overcommit(self):
        epc = EpcModel(enclaves_per_machine=2)
        share = epc.share_bytes
        p2 = epc.miss_probability(2 * share)
        p4 = epc.miss_probability(4 * share)
        assert 0.0 < p2 < p4 < 1.0
        assert p2 == pytest.approx(0.5)

    def test_page_faults_proportional_to_touched(self):
        epc = EpcModel(enclaves_per_machine=2)
        resident = 2 * epc.share_bytes
        f1 = epc.page_faults(1 * MIB, resident)
        f2 = epc.page_faults(2 * MIB, resident)
        assert f2 == pytest.approx(2 * f1)
        assert f1 == pytest.approx((MIB / PAGE_SIZE) * 0.5)

    def test_overcommit_ratio(self):
        epc = EpcModel()
        assert epc.overcommit_ratio(epc.share_bytes) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"usable_mib": 200.0},
            {"usable_mib": 0.0},
            {"enclaves_per_machine": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EpcModel(**kwargs)

    def test_negative_touched_rejected(self):
        with pytest.raises(ValueError):
            EpcModel().page_faults(-1, 10)


class TestSgxCostModel:
    def test_native_charges_no_sgx_costs(self):
        assert NATIVE_COST_MODEL.transition_time(100, 10_000) == 0.0
        assert NATIVE_COST_MODEL.crypto_time(1 << 20) == 0.0
        assert NATIVE_COST_MODEL.compute_multiplier(1 << 30, EpcModel()) == 1.0

    def test_native_pays_on_demand_allocation(self):
        assert NATIVE_COST_MODEL.native_alloc_time(10 * PAGE_SIZE) > 0.0
        assert SGX1_COST_MODEL.native_alloc_time(10 * PAGE_SIZE) == 0.0

    def test_transitions_scale_linearly(self):
        one = SGX1_COST_MODEL.transition_time(1)
        ten = SGX1_COST_MODEL.transition_time(10)
        assert ten == pytest.approx(10 * one)

    def test_crypto_cost_per_byte(self):
        assert SGX1_COST_MODEL.crypto_time(2 << 20) == pytest.approx(
            2 * SGX1_COST_MODEL.crypto_time(1 << 20)
        )

    def test_multiplier_at_least_mee_slowdown(self):
        epc = EpcModel()
        assert SGX1_COST_MODEL.compute_multiplier(1 * MIB, epc) == pytest.approx(
            SGX1_COST_MODEL.mee_slowdown
        )

    def test_multiplier_grows_past_epc(self):
        epc = EpcModel(enclaves_per_machine=2)
        below = SGX1_COST_MODEL.compute_multiplier(epc.share_bytes * 0.9, epc)
        above = SGX1_COST_MODEL.compute_multiplier(epc.share_bytes * 3.0, epc)
        assert above > below

    def test_custom_model_is_frozen(self):
        model = SgxCostModel()
        with pytest.raises(Exception):
            model.enabled = False
