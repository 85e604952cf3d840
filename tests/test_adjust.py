import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from platformsim import adjust
from platformsim.adjust import AdjustmentMethod, AdjustmentPolicy, critical_value, critical_values
from platformsim.correlation import CorrelationMatrix, analytic_correlation
from platformsim.designs import (
    ControlMode,
    PlatformDesign,
    build_budget_design,
    build_fixed_design,
    build_fixed_total_design,
)
from platformsim.distributions import Sidedness, normal_quantile
from platformsim.engine import _rejected
from platformsim.presets import FIXED_TOTAL, SPONSOR_BUDGET
from oracles import equicorrelated_matrix
from strategies import single_period_common_designs

UNADJ = AdjustmentPolicy(AdjustmentMethod.UNADJUSTED)
BONF = AdjustmentPolicy(AdjustmentMethod.BONFERRONI)
DUNN = AdjustmentPolicy(AdjustmentMethod.DUNNETT)

RHO_HALF = CorrelationMatrix(
    ((1.0, 0.5, 0.5), (0.5, 1.0, 0.5), (0.5, 0.5, 1.0))
)


def decisions(z, policy, correlation):
    """The engine's rejection rule at the policy's threshold for this matrix."""
    threshold = critical_value(policy, correlation)
    return _rejected(np.asarray(z, dtype=float), threshold, policy.sidedness)


class TestDecisions:
    def test_unadjusted_reference(self):
        z = np.array([2.0, 1.0, 2.5])
        # threshold 1.960 from the standard normal quantile
        assert decisions(z, UNADJ, RHO_HALF).tolist() == [True, False, True]

    def test_bonferroni_reference(self):
        z = np.array([2.0, 1.0, 2.5])
        # threshold z_{1 - 0.05/6} = 2.394
        assert normal_quantile(1 - 0.05 / 6) == pytest.approx(2.394, abs=5e-4)
        assert decisions(z, BONF, RHO_HALF).tolist() == [False, False, True]

    def test_dunnett_reference(self):
        z = np.array([2.0, 1.0, 2.5])
        # threshold roughly 2.35 for three comparisons at shared-control
        # correlation one half (checked against brute force elsewhere)
        assert decisions(z, DUNN, RHO_HALF).tolist() == [False, False, True]

    def test_threshold_ordering(self):
        c_u = critical_value(UNADJ, RHO_HALF)
        c_d = critical_value(DUNN, RHO_HALF)
        c_b = critical_value(BONF, RHO_HALF)
        assert c_u < c_d < c_b

    def test_exact_tie_is_not_rejected(self):
        threshold = critical_value(UNADJ, equicorrelated_matrix(2, 0.0))
        z = np.array([threshold, -threshold])
        assert _rejected(z, threshold, Sidedness.TWO_SIDED).tolist() == [False, False]

    def test_one_sided_uses_signed_statistic(self):
        policy = AdjustmentPolicy(AdjustmentMethod.UNADJUSTED, 0.05, Sidedness.ONE_SIDED)
        threshold = critical_value(policy, equicorrelated_matrix(1, 0.0))
        assert _rejected(np.array([1.7]), threshold, Sidedness.ONE_SIDED).tolist() == [True]
        assert _rejected(np.array([-3.0]), threshold, Sidedness.ONE_SIDED).tolist() == [False]

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            AdjustmentPolicy(AdjustmentMethod.UNADJUSTED, alpha=1.5)

    @pytest.mark.parametrize("alpha", ["0.05", None, True])
    def test_rejects_alpha_that_is_not_a_number(self, alpha):
        with pytest.raises(ValueError, match="^alpha must lie strictly between 0 and 1$"):
            AdjustmentPolicy(AdjustmentMethod.DUNNETT, alpha)

    def test_accepts_a_numpy_float_alpha(self):
        assert AdjustmentPolicy(AdjustmentMethod.DUNNETT, np.float32(0.05)).alpha == np.float32(0.05)

    def test_closed_form_needs_a_closed_form_method(self):
        with pytest.raises(ValueError, match="needs the comparisons' correlation matrix"):
            adjust.closed_form_threshold(DUNN, 3)


class TestNesting:
    @given(
        single_period_common_designs(max_arms=5),
        st.lists(st.floats(-4, 4), min_size=5, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_rejection_sets_are_nested(self, design, raw_z):
        corr = analytic_correlation(design)
        c_u, c_d, c_b = (critical_value(p, corr) for p in (UNADJ, DUNN, BONF))
        assert c_u <= c_d <= c_b
        z = np.array(raw_z[: corr.dim])
        r_bonf = decisions(z, BONF, corr)
        r_dunn = decisions(z, DUNN, corr)
        r_unadj = decisions(z, UNADJ, corr)
        assert np.all(r_bonf <= r_dunn)
        assert np.all(r_dunn <= r_unadj)

    def test_single_comparison_all_methods_agree(self):
        corr = equicorrelated_matrix(1, 0.0)
        c_u = critical_value(UNADJ, corr)
        assert critical_value(BONF, corr) == c_u
        assert critical_value(DUNN, corr) == pytest.approx(c_u, abs=1e-9)
        for z in (np.array([1.5]), np.array([2.5]), np.array([-2.5])):
            u = decisions(z, UNADJ, corr)
            b = decisions(z, BONF, corr)
            d = decisions(z, DUNN, corr)
            assert u.tolist() == b.tolist() == d.tolist()

    def test_permutation_invariance(self):
        entries = (
            (1.0, 0.5, 7 / 30),
            (0.5, 1.0, 7 / 30),
            (7 / 30, 7 / 30, 1.0),
        )
        corr = CorrelationMatrix(entries)
        z = np.array([2.4, 1.2, 2.0])
        perm = [2, 0, 1]
        permuted = CorrelationMatrix(tuple(tuple(entries[i][j] for j in perm) for i in perm))
        assert critical_value(DUNN, permuted) == pytest.approx(critical_value(DUNN, corr), abs=1e-9)
        base = decisions(z, DUNN, corr)
        reordered = decisions(z[perm], DUNN, permuted)
        assert base[perm].tolist() == reordered.tolist()


class TestDunnettBatches:
    """Dunnett requests are grouped once; each group of new matrices is fitted and solved once."""

    @staticmethod
    def counted(monkeypatch):
        """Record each fit's stack shape and each solve's (m, alpha, sidedness, rows)."""
        fit, solve = adjust._fit_factor_loadings, adjust.dunnett_critical_values
        fits, solves = [], []

        def counted_fit(a):
            fits.append(np.shape(a))
            return fit(a)

        def counted_solve(loadings, alpha, sidedness):
            solves.append((loadings.shape[1], alpha, sidedness, loadings.shape[0]))
            return solve(loadings, alpha, sidedness)

        monkeypatch.setattr(adjust, "_dunnett_cache", {})
        monkeypatch.setattr(adjust, "_fit_factor_loadings", counted_fit)
        monkeypatch.setattr(adjust, "dunnett_critical_values", counted_solve)
        return fits, solves

    def test_one_fit_and_one_solve_per_group_of_misses(self, monkeypatch):
        # fig6's budget designs and fig3's fixed-total designs
        designs = [build_budget_design(shift, SPONSOR_BUDGET) for shift in range(151)] + [
            build_fixed_total_design(FIXED_TOTAL, m, ControlMode.COMMON, ratio)
            for m in range(2, 11)
            for ratio in (1.0, math.sqrt(m))
        ]
        policies = [BONF] + [
            AdjustmentPolicy(AdjustmentMethod.DUNNETT, alpha, sidedness)
            for alpha in (0.05, 0.01)
            for sidedness in Sidedness
        ]
        requests = [(policy, design) for design in designs for policy in policies]
        fits, solves = self.counted(monkeypatch)
        values = critical_values(requests)
        groups = {}  # (m, alpha, sidedness) -> distinct matrices
        for policy, design in requests:
            if policy.method is AdjustmentMethod.DUNNETT:
                key = (design.num_arms, policy.alpha, policy.sidedness)
                groups.setdefault(key, set()).add(analytic_correlation(design))
        assert len(fits) == len(solves) == len(groups) == 9 * 4
        assert sorted(shape[:2] for shape in fits) == sorted((len(g), m) for (m, _, _), g in groups.items())
        assert {solve[:3]: solve[3] for solve in solves} == {key: len(g) for key, g in groups.items()}
        # the answers come back in request order
        for (policy, design), value in zip(requests, values):
            assert value == critical_value(policy, analytic_correlation(design))
        fits.clear()
        solves.clear()
        assert critical_values(requests) == values
        assert fits == solves == []

    def test_batch_with_a_general_matrix_is_refused(self, monkeypatch):
        # the three-arm chain of test_threshold_errors_are_not_infeasibility:
        # arms 1 and 3 share no control and arm 2 overlaps both
        n = 150
        chain = PlatformDesign(ControlMode.COMMON, ((n,) * 4, (n, n, 0, 0), (0, n, n, 0), (0, 0, n, n)))
        fixed = build_fixed_design(3, n, ControlMode.COMMON)
        stack = np.array([analytic_correlation(d).as_array() for d in (fixed, chain)])
        with pytest.raises(ValueError, match="not one-factor"):
            adjust._fit_factor_loadings(stack)
        fits, solves = self.counted(monkeypatch)
        with pytest.raises(ValueError, match="not one-factor"):
            critical_values([(DUNN, fixed), (DUNN, chain)])
        assert len(fits) == 1 and solves == [] and adjust._dunnett_cache == {}
