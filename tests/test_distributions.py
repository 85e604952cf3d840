import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.optimize import brentq
from scipy.stats import multivariate_normal

from platformsim.correlation import CorrelationMatrix, analytic_correlation
from platformsim.designs import (
    ControlMode,
    build_budget_design,
    build_fixed_design,
    build_staggered_design,
)
from platformsim.distributions import (
    MvnSpec,
    Sidedness,
    dunnett_critical_value,
    factor_rectangle_probability,
    normal_cdf,
    normal_quantile,
    rejection_count_pmf,
)
from platformsim.presets import SPONSOR_BUDGET, _fixed_total_design
from strategies import staggered_params

mpmath.mp.dps = 40


def phi_series(x):
    """High-precision standard normal CDF via the Taylor series of erf."""
    return float(mpmath.mpf(1) / 2 * (1 + mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2))))


def quantile_by_bisection(p, lo=-40.0, hi=40.0):
    """Independent quantile oracle: bisection on the high-precision CDF."""
    for _ in range(200):
        mid = (lo + hi) / 2
        if phi_series(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def phi_tail_asymptotic(x):
    """Lower-tail asymptotic expansion phi(x)/|x| * (1 - 1/x^2 + 3/x^4 - ...)."""
    assert x < -4
    density = math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    z = abs(x)
    return density / z * (1 - 1 / z**2 + 3 / z**4 - 15 / z**6 + 105 / z**8)


def max_abs_mvn_cdf(c, spec):
    """P(max_j |Z_j| <= c) for Z ~ N(0, spec.correlation), by factor quadrature."""
    return factor_rectangle_probability(spec, -c, c)


def genz_rectangle(corr, lower, upper):
    """Rectangle probability from scipy's Genz integrator, independent of the package."""
    a = corr.as_array()
    return multivariate_normal.cdf(
        upper, mean=np.zeros(len(a)), cov=a, lower_limit=lower, abseps=1e-9
    )


# frozen oracle values
Z_0975 = quantile_by_bisection(0.975)  # 1.959964...
Z_09 = quantile_by_bisection(0.9)  # 1.281552...


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_at_two_sided_threshold(self):
        assert abs(normal_cdf(1.959964) - 0.975) < 1e-6
        assert abs(normal_cdf(Z_0975) - 0.975) < 1e-12

    def test_deep_tail_against_asymptotic_expansion(self):
        value = normal_cdf(-8.0)
        assert value == pytest.approx(6.22e-16, rel=5e-3)
        assert value == pytest.approx(phi_tail_asymptotic(-8.0), rel=1e-8)

    def test_matches_series_oracle_on_grid(self):
        for x in np.linspace(-6, 6, 25):
            assert abs(normal_cdf(x) - phi_series(x)) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            normal_cdf(float("nan"))


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_reference_points(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=5e-7)
        assert normal_quantile(0.975) == pytest.approx(Z_0975, abs=1e-9)
        assert normal_quantile(0.9) == pytest.approx(1.281552, abs=5e-7)
        assert normal_quantile(0.9) == pytest.approx(Z_09, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)

    @given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
    @settings(max_examples=200)
    def test_roundtrip(self, p):
        assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-12


class TestStructureDetection:
    def test_identity_is_equicorrelated_zero(self):
        spec = MvnSpec.from_correlation(CorrelationMatrix.identity(4))
        assert spec.factor_loadings == (0.0,) * 4

    def test_equicorrelated(self):
        spec = MvnSpec.equicorrelated(3, 0.5)
        assert spec.factor_loadings == pytest.approx((math.sqrt(0.5),) * 3)

    def test_product_form(self):
        lam = (0.7, 0.5, 0.3)
        entries = tuple(
            tuple(1.0 if i == j else lam[i] * lam[j] for j in range(3)) for i in range(3)
        )
        spec = MvnSpec.from_correlation(CorrelationMatrix(entries))
        assert spec.factor_loadings == pytest.approx(lam)

    def test_product_form_with_independent_block(self):
        entries = ((1.0, 0.5, 0.0), (0.5, 1.0, 0.0), (0.0, 0.0, 1.0))
        spec = MvnSpec.from_correlation(CorrelationMatrix(entries))
        assert spec.factor_loadings == pytest.approx((math.sqrt(0.5), math.sqrt(0.5), 0.0))

    def test_general_matrix_detected(self):
        entries = ((1.0, 0.5, 0.3), (0.5, 1.0, 0.0), (0.3, 0.0, 1.0))
        with pytest.raises(ValueError, match="not one-factor"):
            MvnSpec.from_correlation(CorrelationMatrix(entries))


class TestBuiltDesignsAreOneFactor:
    """Every design a builder or a config can produce has one-factor loadings."""

    @staticmethod
    def assert_one_factor(design):
        spec = MvnSpec.from_correlation(analytic_correlation(design))
        assert all(0.0 <= lam < 1.0 for lam in spec.factor_loadings)

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=1_000),
        st.sampled_from(list(ControlMode)),
    )
    @settings(max_examples=60, deadline=None)
    def test_fixed(self, m, n, mode):
        self.assert_one_factor(build_fixed_design(m, n, mode))

    @given(st.integers(min_value=1, max_value=10), st.sampled_from([1.0, "sqrt"]))
    @settings(max_examples=20, deadline=None)
    def test_fixed_total_control_ratios(self, m, ratio):
        self.assert_one_factor(_fixed_total_design(m, math.sqrt(m) if ratio == "sqrt" else ratio))

    @given(staggered_params(max_n=1_000))
    @settings(max_examples=100, deadline=None)
    def test_staggered(self, params):
        self.assert_one_factor(build_staggered_design(*params))

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=40, deadline=None)
    def test_budget(self, shift):
        self.assert_one_factor(build_budget_design(shift, SPONSOR_BUDGET).design)


class TestMaxAbsMvnCdf:
    """P(max_j |Z_j| <= c), the band coverage the Dunnett threshold solves on."""

    def test_identity_dim3(self):
        spec = MvnSpec.from_correlation(CorrelationMatrix.identity(3))
        assert max_abs_mvn_cdf(Z_0975, spec) == pytest.approx(0.857375, abs=1e-9)

    def test_equicorrelated_half(self):
        spec = MvnSpec.equicorrelated(3, 0.5)
        value = max_abs_mvn_cdf(Z_0975, spec)
        # published complement 0.1247 carries Monte Carlo noise of ~0.0015
        assert 1.0 - value == pytest.approx(0.1247, abs=0.004)
        # independent check against the brute-force sampler below
        assert 1.0 - value == pytest.approx(0.125443, abs=1e-5)

    def test_zero_width_band(self):
        spec = MvnSpec.equicorrelated(3, 0.5)
        assert max_abs_mvn_cdf(0.0, spec) == 0.0

    def test_monotone_in_width(self):
        spec = MvnSpec.equicorrelated(4, 0.3)
        grid = [max_abs_mvn_cdf(c, spec) for c in np.linspace(0.0, 4.0, 17)]
        assert all(a <= b + 1e-12 for a, b in zip(grid, grid[1:]))

    def test_quadrature_agrees_with_qmc_path(self):
        # scipy's randomized-lattice Genz integrator handles any matrix
        entries = (
            (1.0, 0.5, 7 / 30),
            (0.5, 1.0, 7 / 30),
            (7 / 30, 7 / 30, 1.0),
        )
        corr = CorrelationMatrix(entries)
        exact = max_abs_mvn_cdf(1.96, MvnSpec.from_correlation(corr))
        estimate = genz_rectangle(corr, np.full(3, -1.96), np.full(3, 1.96))
        assert exact == pytest.approx(estimate, abs=1e-8)

    def test_monte_carlo_oracle_equicorrelated(self):
        # brute-force check of the quadrature on a fresh sampler
        rng = np.random.default_rng(2024)
        lam = math.sqrt(0.5)
        hits = 0
        reps = 2_000_000
        for _ in range(4):
            w = rng.standard_normal((reps // 4, 1))
            eps = rng.standard_normal((reps // 4, 3))
            z = lam * w + math.sqrt(1 - lam * lam) * eps
            hits += int((np.abs(z).max(axis=1) <= Z_0975).sum())
        estimate = hits / reps
        spec = MvnSpec.equicorrelated(3, 0.5)
        se = math.sqrt(estimate * (1 - estimate) / reps)
        assert abs(max_abs_mvn_cdf(Z_0975, spec) - estimate) <= 4 * se


class TestDunnettCriticalValue:
    def test_dim1_reduces_to_normal_quantile(self):
        spec = MvnSpec.from_correlation(CorrelationMatrix.identity(1))
        assert dunnett_critical_value(spec, 0.05) == pytest.approx(Z_0975, abs=1e-9)

    def test_dim1_one_sided(self):
        spec = MvnSpec.from_correlation(CorrelationMatrix.identity(1))
        value = dunnett_critical_value(spec, 0.05, Sidedness.ONE_SIDED)
        assert value == pytest.approx(quantile_by_bisection(0.95), abs=1e-9)

    def test_identity_matches_sidak_closed_form(self):
        spec = MvnSpec.from_correlation(CorrelationMatrix.identity(3))
        sidak = normal_quantile(0.5 * (1.0 + 0.95 ** (1.0 / 3.0)))
        assert dunnett_critical_value(spec, 0.05) == pytest.approx(sidak, abs=1e-8)

    def test_equicorrelated_half_dim3_against_mc_oracle(self):
        spec = MvnSpec.equicorrelated(3, 0.5)
        value = dunnett_critical_value(spec, 0.05)
        assert value == pytest.approx(2.35, abs=0.01)
        # 10^7 draws: rejection fraction within 3 MC standard errors of 0.05
        rng = np.random.default_rng(7)
        lam = math.sqrt(0.5)
        rejected = 0
        reps = 10_000_000
        chunk = 1_000_000
        for _ in range(reps // chunk):
            w = rng.standard_normal((chunk, 1))
            eps = rng.standard_normal((chunk, 3))
            z = lam * w + math.sqrt(1 - lam * lam) * eps
            rejected += int((np.abs(z).max(axis=1) > value).sum())
        fraction = rejected / reps
        se = math.sqrt(0.05 * 0.95 / reps)
        assert abs(fraction - 0.05) <= 3 * se

    def test_bracketed_by_unadjusted_and_bonferroni(self):
        for m in range(2, 11):
            spec = MvnSpec.from_correlation(CorrelationMatrix.identity(m))
            value = dunnett_critical_value(spec, 0.05)
            assert normal_quantile(1 - 0.05 / 2) <= value
            assert value <= normal_quantile(1 - 0.05 / (2 * m))

    def test_monotone_in_common_correlation(self):
        values = [
            dunnett_critical_value(MvnSpec.equicorrelated(4, rho), 0.05)
            for rho in np.arange(0.0, 0.95, 0.1)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_coverage_residual(self):
        spec = MvnSpec.equicorrelated(5, 0.5)
        value = dunnett_critical_value(spec, 0.05)
        assert abs(max_abs_mvn_cdf(value, spec) - 0.95) <= 1e-6

    def test_one_sided_coverage_residual(self):
        spec = MvnSpec.equicorrelated(3, 0.5)
        value = dunnett_critical_value(spec, 0.05, Sidedness.ONE_SIDED)
        covered = factor_rectangle_probability(
            spec, np.full(3, -np.inf), np.full(3, value)
        )
        assert covered == pytest.approx(0.95, abs=1e-6)
        # one-sided thresholds sit below their two-sided counterparts
        assert value < dunnett_critical_value(spec, 0.05)

    def test_general_path_close_to_structured(self):
        entries = (
            (1.0, 0.5, 7 / 30),
            (0.5, 1.0, 7 / 30),
            (7 / 30, 7 / 30, 1.0),
        )
        corr = CorrelationMatrix(entries)
        structured = dunnett_critical_value(MvnSpec.from_correlation(corr), 0.05)

        def general_shortfall(c):
            return genz_rectangle(corr, np.full(3, -c), np.full(3, c)) - 0.95

        general = brentq(general_shortfall, 2.0, 2.5, xtol=1e-10)
        assert structured == pytest.approx(general, abs=1e-6)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            dunnett_critical_value(MvnSpec.equicorrelated(2, 0.5), 0.0)


class TestRejectionCounts:
    def test_pmf_matches_brute_force(self):
        spec = MvnSpec.equicorrelated(3, 0.5)
        shifts = np.array([1.0, 0.0, -0.5])
        c = 1.96
        pmf = rejection_count_pmf(spec, shifts, c)
        rng = np.random.default_rng(11)
        lam = math.sqrt(0.5)
        reps = 400_000
        w = rng.standard_normal((reps, 1))
        eps = rng.standard_normal((reps, 3))
        z = shifts + lam * w + math.sqrt(1 - lam * lam) * eps
        counts = (np.abs(z) > c).sum(axis=1)
        for k in range(4):
            mc = float((counts == k).mean())
            se = math.sqrt(max(mc * (1 - mc), 1e-9) / reps)
            assert abs(pmf[k] - mc) <= 4 * se

    def test_independent_case_is_binomial(self):
        spec = MvnSpec.from_correlation(CorrelationMatrix.identity(3))
        pmf = rejection_count_pmf(spec, np.zeros(3), Z_0975)
        p = 0.05
        assert 1.0 - pmf[0] == pytest.approx(1 - (1 - p) ** 3, abs=1e-9)
        assert pmf[2:].sum() == pytest.approx(3 * p * p * (1 - p) + p**3, abs=1e-9)

    def test_requires_factor_structure(self):
        # a spec, and so a count law, exists only for one-factor matrices
        entries = ((1.0, 0.5, 0.3), (0.5, 1.0, 0.0), (0.3, 0.0, 1.0))
        with pytest.raises(ValueError, match="not one-factor"):
            MvnSpec.from_correlation(CorrelationMatrix(entries))
        with pytest.raises(ValueError, match="mean shifts"):
            rejection_count_pmf(MvnSpec.equicorrelated(3, 0.5), np.zeros(2), 1.96)


class TestFactorRectangle:
    def test_shifted_rectangle_matches_univariate_product_when_independent(self):
        spec = MvnSpec.from_correlation(CorrelationMatrix.identity(2))
        lower = np.array([-1.0, 0.5])
        upper = np.array([2.0, 3.0])
        expected = (normal_cdf(2.0) - normal_cdf(-1.0)) * (normal_cdf(3.0) - normal_cdf(0.5))
        assert factor_rectangle_probability(spec, lower, upper) == pytest.approx(
            expected, abs=1e-12
        )

    def test_agrees_with_qmc_general_path(self):
        spec = MvnSpec.equicorrelated(3, 0.4)
        lower = np.array([-1.0, -2.0, -0.5])
        upper = np.array([1.5, 2.5, 0.75])
        exact = factor_rectangle_probability(spec, lower, upper)
        estimate = genz_rectangle(spec.correlation, lower, upper)
        assert exact == pytest.approx(estimate, abs=1e-8)
