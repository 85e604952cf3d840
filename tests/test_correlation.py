import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from platformsim.adjust import AdjustmentPolicy, critical_value
from platformsim.correlation import CorrelationMatrix, analytic_correlation
from platformsim.designs import (
    ControlMode,
    PlatformDesign,
    build_budget_design,
    build_fixed_design,
    build_staggered_design,
)
from platformsim.distributions import MvnSpec
from platformsim.engine import iter_zstat_blocks
from oracles import shared_control_count
from strategies import multi_period_common_designs, single_period_common_designs, staggered_params


def empirical_correlation(design, reps, seed):
    """Sample Pearson correlation of simulated null z-vectors."""
    effects = (0.0,) * design.num_arms
    z = np.vstack(list(iter_zstat_blocks(design, effects, reps, seed)))
    return np.corrcoef(z, rowvar=False)


class TestAnalyticCorrelation:
    def test_fixed_design_is_half(self):
        matrix = analytic_correlation(build_fixed_design(3, 150, ControlMode.COMMON))
        a = matrix.as_array()
        off = a[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, atol=1e-12)

    def test_reference_staggered_entries(self):
        matrix = analytic_correlation(build_staggered_design(150, 80))
        assert matrix.entries[0][1] == pytest.approx(0.5, abs=1e-12)
        # hand evaluation: 75 * 70 / 22500
        assert matrix.entries[0][2] == pytest.approx(75 * 70 / 22500, abs=1e-12)
        assert matrix.entries[0][2] == pytest.approx(0.2333, abs=5e-5)

    def test_disjoint_recruitment_is_uncorrelated(self):
        matrix = analytic_correlation(build_staggered_design(150, 150))
        assert matrix.entries[0][2] == 0.0
        assert matrix.entries[1][2] == 0.0
        assert matrix.entries[0][1] == pytest.approx(0.5, abs=1e-12)

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
                # both arms share the whole control window
                n_a, n_b = design.treatment_total(a), design.treatment_total(b)
                expected = 1.0 / math.sqrt((control / n_a + 1.0) * (control / n_b + 1.0))
                assert matrix.entries[a][b] == pytest.approx(expected, abs=1e-12)

    @given(staggered_params(max_n=250))
    @settings(max_examples=60)
    def test_staggered_pair_matches_three_period_form(self, params):
        n, shift = params
        design = build_staggered_design(n, shift)
        matrix = analytic_correlation(design)
        # controls before the late arm, concurrent to both, and after the early arms close
        before, shared, after = shift, n - shift, shift
        expected = 0.5 * shared / math.sqrt((before + shared) * (shared + after))
        assert matrix.entries[1][2] == pytest.approx(expected, abs=1e-12)
        assert matrix.entries[0][2] == pytest.approx(expected, abs=1e-12)

    @given(multi_period_common_designs())
    @settings(max_examples=80)
    def test_entries_equal_pairwise_reference(self, design):
        # entry by entry from the shared control count, both triangles
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
                else shared_control_count(design, a, b) / math.sqrt(factor[a] * factor[b])
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


def assert_not_one_factor(entries):
    """The constructor takes any square matrix; both readers refuse this one."""
    matrix = CorrelationMatrix(entries)
    with pytest.raises(ValueError, match="not one-factor"):
        MvnSpec.from_correlation(matrix)
    with pytest.raises(ValueError, match="not one-factor"):
        critical_value(AdjustmentPolicy("dunnett"), matrix)


class TestCorrelationMatrixValidation:
    # the constructor checks only the shape; the one-factor fit behind every
    # Dunnett threshold and exact law checks the structure
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            CorrelationMatrix(((1.0, 0.0),))

    def test_rejects_asymmetric(self):
        assert_not_one_factor(((1.0, 0.2), (0.4, 1.0)))

    def test_rejects_non_unit_diagonal(self):
        assert_not_one_factor(((0.9, 0.0), (0.0, 1.0)))

    def test_entry_tolerance_is_absolute(self):
        # an asymmetry or diagonal error of 2e-9 is far beyond the fit's 1e-12
        assert_not_one_factor(((1.0, 0.2), (0.2 + 2e-9, 1.0)))
        assert_not_one_factor(((1.0, 0.2), (0.2, 1.0 - 2e-9)))

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            assert_not_one_factor(((1.0, bad), (bad, 1.0)))

    def test_rejects_negative_entries(self):
        assert_not_one_factor(((1.0, -0.5), (-0.5, 1.0)))

    def test_rejects_entries_above_one(self):
        assert_not_one_factor(((1.0, 1.2), (1.2, 1.0)))

    def test_rejects_indefinite(self):
        assert_not_one_factor(((1.0, 0.9, 0.0), (0.9, 1.0, 0.9), (0.0, 0.9, 1.0)))

    def test_submatrix(self):
        # dropping arm 2 of the staggered design drops its row and column
        matrix = analytic_correlation(build_staggered_design(150, 80))
        control, early, _, late = build_staggered_design(150, 80).recruitment
        sub = analytic_correlation(PlatformDesign(ControlMode.COMMON, (control, early, late)))
        assert sub.dim == 2
        assert sub.entries[0][1] == matrix.entries[0][2]


class TestEmpiricalCorrelation:
    def test_fixed_design_close_to_half(self):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        estimate = empirical_correlation(design, reps=40_000, seed=3)
        expected = analytic_correlation(design).as_array()
        assert np.max(np.abs(estimate - expected)) <= 4 / math.sqrt(40_000)

    def test_individual_controls_uncorrelated(self):
        design = build_fixed_design(3, 150, ControlMode.INDIVIDUAL)
        estimate = empirical_correlation(design, reps=40_000, seed=4)
        assert np.max(np.abs(estimate - np.eye(3))) <= 4 / math.sqrt(40_000)

    def test_budget_design_matches_analytic(self):
        design = build_budget_design(90, 300)
        estimate = empirical_correlation(design, reps=40_000, seed=5)
        expected = analytic_correlation(design).as_array()
        assert np.max(np.abs(estimate - expected)) <= 4 / math.sqrt(40_000)
