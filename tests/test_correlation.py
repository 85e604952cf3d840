import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from platformsim.correlation import (
    CorrelationMatrix,
    analytic_correlation,
    empirical_correlation,
    equal_recruitment_correlation,
    late_entry_pair_correlation,
)
from platformsim.designs import (
    ControlMode,
    PlatformDesign,
    build_fixed_design,
    build_staggered_design,
)
from strategies import multi_period_common_designs, single_period_common_designs, staggered_params


class TestAnalyticCorrelation:
    def test_fixed_design_is_half(self):
        matrix = analytic_correlation(build_fixed_design(3, 150, ControlMode.COMMON))
        a = matrix.as_array()
        off = a[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, atol=1e-12)

    def test_reference_staggered_entries(self):
        matrix = analytic_correlation(build_staggered_design(150, 80))
        assert matrix.entry(0, 1) == pytest.approx(0.5, abs=1e-12)
        # hand evaluation: 75 * 70 / 22500
        assert matrix.entry(0, 2) == pytest.approx(75 * 70 / 22500, abs=1e-12)
        assert matrix.entry(0, 2) == pytest.approx(0.2333, abs=5e-5)

    def test_disjoint_recruitment_is_uncorrelated(self):
        matrix = analytic_correlation(build_staggered_design(150, 150))
        assert matrix.entry(0, 2) == 0.0
        assert matrix.entry(1, 2) == 0.0
        assert matrix.entry(0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_individual_controls_identity(self):
        matrix = analytic_correlation(build_fixed_design(4, 150, ControlMode.INDIVIDUAL))
        assert np.array_equal(matrix.as_array(), np.eye(4))

    def test_rejects_arm_without_concurrent_controls(self):
        design = PlatformDesign(ControlMode.COMMON, ((150, 0), (150, 0), (0, 150)))
        with pytest.raises(ValueError, match="concurrent control"):
            analytic_correlation(design)

    @given(single_period_common_designs())
    @settings(max_examples=60)
    def test_single_period_matches_equal_recruitment_form(self, design):
        matrix = analytic_correlation(design)
        control = design.concurrent_control_count(0)
        for a in range(design.num_arms):
            for b in range(a + 1, design.num_arms):
                expected = equal_recruitment_correlation(
                    control, design.treatment_total(a), design.treatment_total(b)
                )
                assert matrix.entry(a, b) == pytest.approx(expected, abs=1e-12)

    @given(staggered_params(max_n=250))
    @settings(max_examples=60)
    def test_staggered_pair_matches_three_period_form(self, params):
        n, shift = params
        design = build_staggered_design(n, shift)
        matrix = analytic_correlation(design)
        expected = late_entry_pair_correlation(shift, n - shift, shift)
        assert matrix.entry(1, 2) == pytest.approx(expected, abs=1e-12)
        assert matrix.entry(0, 2) == pytest.approx(expected, abs=1e-12)

    @given(multi_period_common_designs())
    @settings(max_examples=80)
    def test_entries_equal_pairwise_reference(self, design):
        # entry by entry from design.shared_control_count, both triangles
        # computed separately; the matrix must hold the very same floats
        m = design.num_arms
        conc = [design.concurrent_control_count(j) for j in range(m)]
        factor = [
            Fraction(conc[j]) + Fraction(conc[j] * conc[j], design.treatment_total(j))
            for j in range(m)
        ]
        expected = tuple(
            tuple(
                1.0
                if a == b
                else design.shared_control_count(a, b) / math.sqrt(factor[a] * factor[b])
                for b in range(m)
            )
            for a in range(m)
        )
        assert analytic_correlation(design).entries == expected

    @given(staggered_params(max_n=250))
    @settings(max_examples=40)
    def test_matrix_is_valid(self, params):
        n, shift = params
        matrix = analytic_correlation(build_staggered_design(n, shift))
        a = matrix.as_array()
        assert np.allclose(a, a.T)
        assert np.allclose(np.diag(a), 1.0)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert np.linalg.eigvalsh(a).min() >= -1e-10


class TestCorrelationMatrixValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CorrelationMatrix(((1.0, 0.2), (0.4, 1.0)))

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            CorrelationMatrix(((0.9, 0.0), (0.0, 1.0)))

    def test_entry_tolerance_is_absolute(self):
        # asymmetry and diagonal error up to 1e-9 pass; beyond it they fail
        CorrelationMatrix(((1.0 + 5e-10, 0.2), (0.2 + 5e-10, 1.0)))
        with pytest.raises(ValueError, match="symmetric"):
            CorrelationMatrix(((1.0, 0.2), (0.2 + 2e-9, 1.0)))
        with pytest.raises(ValueError, match="diagonal"):
            CorrelationMatrix(((1.0, 0.2), (0.2, 1.0 - 2e-9)))

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                CorrelationMatrix(((1.0, bad), (bad, 1.0)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CorrelationMatrix(((1.0, -0.5), (-0.5, 1.0)))

    def test_rejects_indefinite(self):
        entries = ((1.0, 0.9, 0.0), (0.9, 1.0, 0.9), (0.0, 0.9, 1.0))
        with pytest.raises(ValueError, match="semidefinite"):
            CorrelationMatrix(entries)

    def test_submatrix(self):
        matrix = analytic_correlation(build_staggered_design(150, 80))
        sub = matrix.submatrix([0, 2])
        assert sub.dim == 2
        assert sub.entry(0, 1) == matrix.entry(0, 2)


class TestEmpiricalCorrelation:
    def test_fixed_design_close_to_half(self):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        estimate = empirical_correlation(design, (0.0, 0.0, 0.0), reps=40_000, seed=3)
        expected = analytic_correlation(design).as_array()
        assert np.max(np.abs(estimate - expected)) <= 4 / math.sqrt(40_000)

    def test_individual_controls_uncorrelated(self):
        design = build_fixed_design(3, 150, ControlMode.INDIVIDUAL)
        estimate = empirical_correlation(design, (0.0, 0.0, 0.0), reps=40_000, seed=4)
        assert np.max(np.abs(estimate - np.eye(3))) <= 4 / math.sqrt(40_000)

    def test_budget_design_matches_analytic(self):
        from platformsim.designs import build_budget_design

        design = build_budget_design(90, 300).design
        estimate = empirical_correlation(design, (0.0, 0.0, 0.0), reps=40_000, seed=5)
        expected = analytic_correlation(design).as_array()
        assert np.max(np.abs(estimate - expected)) <= 4 / math.sqrt(40_000)

    def test_rejects_too_few_replications(self):
        design = build_fixed_design(2, 50, ControlMode.COMMON)
        with pytest.raises(ValueError):
            empirical_correlation(design, (0.0, 0.0), reps=5_000)
