import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from platformsim.adjust import AdjustmentMethod, AdjustmentPolicy
from platformsim.designs import ControlMode, build_fixed_design
from platformsim.engine import ScenarioConfig, run_scenario
from platformsim.metrics import Estimate, characteristics_from_counts
from oracles import rejection_counts


def _characteristics(rejected, effective, kfwer_levels=(1,)):
    return characteristics_from_counts(**rejection_counts(rejected, effective, kfwer_levels))


class TestTallyOutcomes:
    def test_all_null(self):
        oc = _characteristics([[True, False, True]], [False, False, False], (1, 2, 3))
        assert oc.fwer.value == 1.0
        assert oc.kfwer[2].value == 1.0
        assert oc.kfwer[3].value == 0.0
        assert oc.pfer.value == 2.0

    def test_mixed_truth(self):
        oc = _characteristics([[True, True, False]], [True, False, False], (1, 2))
        assert oc.pfer.value == 1.0
        assert oc.kfwer[2].value == 0.0
        assert oc.disjunctive_power.value == 1.0
        assert oc.conjunctive_power.value == 1.0

    def test_nothing_rejected(self):
        oc = _characteristics([[False, False, False]], [True, False, True])
        assert oc.fwer.value == 0.0
        assert oc.pfer.value == 0.0
        assert oc.disjunctive_power.value == 0.0
        assert oc.conjunctive_power.value == 0.0

    def test_length_mismatch(self):
        counts = rejection_counts([[True]], [False])
        with pytest.raises(ValueError, match="joint table must have"):
            characteristics_from_counts(**dict(counts, effective=[False, True]))
        with pytest.raises(ValueError, match="per-arm"):
            characteristics_from_counts(**dict(counts, per_arm_rejections=[1, 0]))

    def test_flattened_table_is_rejected(self):
        # the (2, 3) table of one null and two effective arms, its rows joined into one vector
        counts = rejection_counts([[True, False, True]], [False, True, True])
        assert counts["joint"].shape == (2, 3)
        with pytest.raises(ValueError, match="joint table must have"):
            characteristics_from_counts(**dict(counts, joint=counts["joint"].ravel()))

    @pytest.mark.parametrize("joint", [[[1, 1]], [[5, -1]]], ids=["total-2", "negative"])
    def test_table_must_hold_non_negative_counts_that_total_reps(self, joint):
        # one effective arm: a (1, 2) table, here for reps = 4
        with pytest.raises(ValueError, match="non-negative counts that total reps=4"):
            characteristics_from_counts(4, np.array(joint), [1], [True], (1,))

    @given(
        st.lists(st.booleans(), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=80)
    def test_counts_are_consistent(self, rejections, data):
        effective = data.draw(
            st.lists(st.booleans(), min_size=len(rejections), max_size=len(rejections))
        )
        oc = _characteristics([rejections], effective)
        false_rej = sum(r and not e for r, e in zip(rejections, effective))
        true_rej = sum(r and e for r, e in zip(rejections, effective))
        assert false_rej + true_rej == sum(rejections)
        assert oc.pfer.value == false_rej <= effective.count(False)
        assert oc.fwer.value == (false_rej >= 1)
        if any(effective):
            assert oc.disjunctive_power.value == (true_rej >= 1)
            assert oc.conjunctive_power.value == (true_rej == effective.count(True))


class TestAggregation:
    def test_reference_aggregate(self):
        effective = [False, True, False]
        rejected = np.array(
            [
                [True, True, False],
                [False, False, False],
                [True, False, True],
                [False, True, False],
            ]
        )
        oc = _characteristics(rejected, effective, kfwer_levels=(1, 2))
        assert oc.fwer.value == 0.5
        assert oc.kfwer[2].value == 0.25
        assert oc.pfer.value == 0.75
        assert oc.marginal_power[1].value == 0.5
        assert oc.marginal_power[0] is None
        assert oc.disjunctive_power.value == 0.5
        assert oc.conjunctive_power.value == 0.5

    def test_pfer_se_matches_stdlib(self):
        rejected = np.array(
            [[True, False], [True, True], [False, False], [False, True], [True, True]]
        )
        oc = _characteristics(rejected, [False, False])
        false_counts = rejected.sum(axis=1)
        expected_se = statistics.stdev(false_counts.tolist()) / math.sqrt(len(false_counts))
        assert oc.pfer.se == pytest.approx(expected_se, abs=1e-12)

    def test_proportion_se(self):
        oc = _characteristics(np.array([[True], [False], [False], [False]]), [False])
        assert oc.fwer.se == pytest.approx(math.sqrt(0.25 * 0.75 / 4), abs=1e-12)

    def test_degenerate_all_zero(self):
        oc = _characteristics(np.zeros((100, 3), dtype=bool), [False, False, False])
        assert oc.fwer == Estimate(0.0, 0.0)
        assert oc.pfer == Estimate(0.0, 0.0)

    def test_global_null_reports_no_power(self):
        oc = _characteristics([[True, False]] * 10, [False, False])
        assert oc.marginal_power is None
        assert oc.disjunctive_power is None
        assert oc.conjunctive_power is None

    def test_kfwer_always_includes_level_one(self):
        counts = rejection_counts([[True]] * 4, [False])
        oc = characteristics_from_counts(**dict(counts, kfwer_levels=()))
        assert sorted(oc.kfwer) == [1]
        assert oc.fwer == oc.kfwer[1] == Estimate(1.0, 0.0)
        design = build_fixed_design(2, 50, ControlMode.COMMON)
        policy = AdjustmentPolicy(AdjustmentMethod.UNADJUSTED)
        oc = run_scenario(ScenarioConfig(design, (0.0, 0.0), policy, reps=100, kfwer_levels=(2,)))
        assert sorted(oc.kfwer) == [1, 2]

    @given(st.data())
    @settings(max_examples=60)
    def test_invariants_on_random_batches(self, data):
        m = data.draw(st.integers(2, 5))
        reps = data.draw(st.integers(2, 40))
        effective = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
        rejected = np.array(
            data.draw(
                st.lists(
                    st.lists(st.booleans(), min_size=m, max_size=m),
                    min_size=reps,
                    max_size=reps,
                )
            )
        )
        levels = tuple(range(1, m + 1))
        oc = _characteristics(rejected, effective, kfwer_levels=levels)
        # k-FWER non-increasing in k, FWER is its first entry
        values = [oc.kfwer[k].value for k in levels]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert oc.fwer.value == oc.kfwer[1].value
        # PFER equals the sum of tail probabilities over k = 1..m
        assert oc.pfer.value == pytest.approx(sum(values), abs=1e-12)
        # PFER additivity: sum of per-arm rejection rates over true nulls
        null_rates = [
            rejected[:, j].mean() for j in range(m) if not effective[j]
        ]
        assert oc.pfer.value == pytest.approx(sum(null_rates), abs=1e-12)
        if any(effective):
            marginals = [e.value for e in oc.marginal_power if e is not None]
            for value in marginals:
                assert oc.conjunctive_power.value <= value + 1e-12
                assert value <= oc.disjunctive_power.value + 1e-12


class TestPartialAggregation:
    def test_counts_merge_associatively(self):
        effective = [False, True]
        rejected = np.array(
            [[True, False], [True, True], [False, True], [False, False], [True, True]]
        )
        whole = _characteristics(rejected, effective)
        # merge two worker partials by adding their tables, then rebuild
        a = rejection_counts(rejected[:3], effective)
        b = rejection_counts(rejected[3:], effective)
        merged = characteristics_from_counts(
            reps=len(rejected),
            joint=a["joint"] + b["joint"],
            per_arm_rejections=a["per_arm_rejections"] + b["per_arm_rejections"],
            effective=effective,
            kfwer_levels=(1,),
        )
        assert merged == whole


class TestEstimateNames:
    def test_names_in_report_order(self):
        rejected = [[True, False, True, False], [False, True, True, True]]
        oc = _characteristics(rejected, [False, True, False, True], kfwer_levels=(3, 2, 1))
        assert list(oc.estimates()) == [
            "fwer", "kfwer_2", "kfwer_3", "pfer", "marginal_power_2", "marginal_power_4",
            "disjunctive_power", "conjunctive_power",
        ]
        assert oc.estimates()["kfwer_3"] == oc.kfwer[3]
        assert oc.estimates()["marginal_power_4"] == oc.marginal_power[3]
        assert oc.marginal_power[3].value == 0.5
        assert oc.estimates()["conjunctive_power"] == oc.conjunctive_power
        # the global null has no power estimates
        oc = _characteristics([[True, False]] * 3, [False, False], kfwer_levels=(2,))
        assert list(oc.estimates()) == ["fwer", "kfwer_2", "pfer"]
        assert oc.estimates()["pfer"] == oc.pfer
