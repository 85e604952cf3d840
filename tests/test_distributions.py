import math
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri, roots_hermitenorm
from scipy.stats import multivariate_normal

from platformsim import adjust, distributions
from platformsim.correlation import CorrelationMatrix, analytic_correlation
from platformsim.designs import (
    ControlMode,
    build_budget_design,
    build_fixed_design,
    build_fixed_total_design,
    build_staggered_design,
)
from platformsim.distributions import (
    MvnSpec,
    Sidedness,
    normal_cdf,
    normal_quantile,
    rejection_count_pmf,
    rejection_law,
)
from platformsim.presets import FIXED_TOTAL, SPONSOR_BUDGET
from oracles import dunnett_threshold, equicorrelated_matrix, equicorrelated_spec
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


def max_abs_mvn_cdf(c, spec, sidedness=Sidedness.TWO_SIDED):
    """P(max_j |Z_j| <= c), or P(max_j Z_j <= c) one-sided, for centred Z with the spec's correlation.

    This is the band coverage: the zero-count entry of the rejection law.
    """
    null = np.zeros(spec.dim, dtype=bool)
    return float(rejection_law(spec, np.zeros(spec.dim), null, c, sidedness)[0, 0])


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


def quantile_oracle(p):
    """High-precision quantile: a root of the mpmath normal CDF."""
    p = mpmath.mpf(p)
    return float(mpmath.findroot(lambda x: mpmath.ncdf(x) - p, float(ndtri(float(p)))))


class TestAgainstScipySpecial:
    """The numpy-only normal functions and Gauss-Hermite rules against scipy.special."""

    @pytest.mark.parametrize("n", distributions._QUAD_NODE_COUNTS)
    def test_hermite_rule_matches_roots_hermitenorm(self, n):
        x, w = distributions._hermite_nodes(n)
        reference_x, reference_w = roots_hermitenorm(n)
        reference_w = reference_w / math.sqrt(2.0 * math.pi)
        # the rule drops the nodes of weight below 1e-20, which sit at both ends
        drop = (n - len(x)) // 2
        kept = slice(drop, n - drop)
        assert len(x) == len(w) and np.array_equal(x[::-1], -x)
        assert reference_w[drop - 1] < 1e-20 <= reference_w[drop]
        assert np.abs(x - reference_x[kept]).max() <= 1e-12
        assert np.abs(w / reference_w[kept] - 1.0).max() <= 1e-11
        assert reference_w[:drop].sum() + reference_w[n - drop:].sum() < 1e-17

    def test_cdf_pair_matches_ndtr(self):
        h = np.append(np.linspace(-40.0, 40.0, 80_001), [0.0, np.inf, -np.inf]).reshape(-1, 4)
        below, above = distributions._cdf_pair(h)
        assert np.abs(below - ndtr(h)).max() <= 2.3e-16
        assert np.abs(above - ndtr(-h)).max() <= 2.3e-16
        assert max(abs(normal_cdf(x) - ndtr(x)) for x in h[:-1].ravel()) <= 2.3e-16

    def test_lower_tail_relative_to_mpmath(self):
        # Phi's relative condition number in the lower tail is about x^2, so
        # rounding x / sqrt(2) alone costs up to x^2 2^-52 relative (1.5e-13
        # at x = -37; scipy's ndtr errs 2.2e-13 there)
        x = np.linspace(-37.0, -1.0, 721)
        below, _ = distributions._cdf_pair(x[:, None])
        _, mirrored = distributions._cdf_pair(-x[:, None])
        for point, pair, flipped in zip(x, below[:, 0], mirrored[:, 0]):
            exact = float(mpmath.ncdf(point))
            tolerance = (1e-14 + point * point * 2.0**-52) * exact
            for value in (pair, flipped, normal_cdf(point)):
                assert abs(value - exact) <= tolerance

    def test_quantile_matches_ndtri_and_mpmath(self):
        p = np.concatenate([
            np.logspace(-300.0, -1.0, 300),
            np.linspace(0.01, 0.99, 981),
            1.0 - np.logspace(-15.0, -1.0, 141),
            [1.0 - 2.0**-53],
        ])
        for prob in p:
            value, reference = normal_quantile(prob), float(ndtri(prob))
            # ndtri is itself off by up to 8.6e-16 relative on this grid
            assert abs(value - reference) <= 2e-15 * abs(reference)
        for prob in p[::10]:
            exact = quantile_oracle(prob)
            assert abs(normal_quantile(prob) - exact) <= 1e-15 * abs(exact)


# a loading of any size the fit meets: moderate, tiny, too small to link its
# comparison (every entry of its row below STRUCTURE_TOL), or 0
any_loading = st.one_of(
    st.floats(0.0, 0.97, exclude_max=True),
    st.floats(1e-9, 1e-4),
    st.floats(1e-16, 1e-12),
    st.just(0.0),
)


@st.composite
def batches_holding(draw, a, max_others=6):
    """A stack of one-factor matrices of ``a``'s dimension that holds ``a``, and its position."""
    m = len(a)
    rows = draw(st.lists(st.lists(any_loading, min_size=m, max_size=m), max_size=max_others))
    stack = [one_factor_correlation(row).as_array() for row in rows]
    pick = draw(st.integers(0, len(stack)))
    stack.insert(pick, a)
    return np.array(stack), pick


def fit_by_rule(a):
    """The loadings rule one comparison at a time, in Python floats."""
    m = len(a)
    linked = [
        j for j in range(m)
        if any(a[j][i] > distributions.STRUCTURE_TOL for i in range(m) if i != j)
    ]
    lam = [0.0] * m
    for j in linked:
        others = [i for i in linked if i != j]
        if len(others) == 1:
            lam[j] = math.sqrt(a[j][others[0]])
        else:
            # max keeps the first of equal pairs, in row-major order
            pairs = [(i, k) for i in others for k in others if i != k]
            i, k = max(pairs, key=lambda pair: a[pair[0]][pair[1]])
            lam[j] = math.sqrt(a[j][i] * a[j][k] / a[i][k])
    return lam


class TestStructureDetection:
    def test_identity_is_equicorrelated_zero(self):
        spec = MvnSpec.from_correlation(equicorrelated_matrix(4, 0.0))
        assert spec.factor_loadings == (0.0,) * 4

    def test_equicorrelated(self):
        spec = equicorrelated_spec(3, 0.5)
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

    @pytest.mark.parametrize("loadings", [(0.5, 0.5, 1e-13), (0.9, 0.8, 0.7, 1e-13)])
    def test_comparison_without_a_linked_entry_keeps_loading_0(self, loadings):
        # its entries, all below STRUCTURE_TOL, would fit a loading of 1e-13
        spec = MvnSpec.from_correlation(one_factor_correlation(loadings))
        assert spec.factor_loadings[-1] == 0.0
        assert spec.factor_loadings == pytest.approx(loadings[:-1] + (0.0,), rel=1e-15)

    @given(st.integers(1, 10).flatmap(lambda m: st.lists(any_loading, min_size=m, max_size=m)),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_loadings_are_the_rules_alone_and_in_a_batch(self, loadings, data):
        a = one_factor_correlation(loadings).as_array()
        (alone,) = distributions._fit_factor_loadings(a[None]).tolist()
        assert [x.hex() for x in alone] == [x.hex() for x in fit_by_rule(a.tolist())]
        stack, pick = data.draw(batches_holding(a))
        batched = distributions._fit_factor_loadings(stack)[pick].tolist()
        assert [x.hex() for x in batched] == [x.hex() for x in alone]


class TestBuiltDesignsAreOneFactor:
    """Every design a builder or a config can produce has one-factor loadings."""

    @staticmethod
    def assert_one_factor(design, data):
        correlation = analytic_correlation(design)
        spec = MvnSpec.from_correlation(correlation)
        assert all(0.0 <= lam < 1.0 for lam in spec.factor_loadings)
        # the same loadings, bit for bit, inside a random batch of its dimension
        stack, pick = data.draw(batches_holding(correlation.as_array()))
        fitted = distributions._fit_factor_loadings(stack)[pick]
        assert [x.hex() for x in fitted.tolist()] == [x.hex() for x in spec.factor_loadings]

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=1_000),
        st.sampled_from(list(ControlMode)),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fixed(self, m, n, mode, data):
        self.assert_one_factor(build_fixed_design(m, n, mode), data)

    @given(st.integers(min_value=1, max_value=10), st.sampled_from([1.0, "sqrt"]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_fixed_total_control_ratios(self, m, ratio, data):
        ratio = math.sqrt(m) if ratio == "sqrt" else ratio
        design = build_fixed_total_design(FIXED_TOTAL, m, ControlMode.COMMON, ratio)
        self.assert_one_factor(design, data)

    @given(staggered_params(max_n=1_000), st.data())
    @settings(max_examples=100, deadline=None)
    def test_staggered(self, params, data):
        self.assert_one_factor(build_staggered_design(*params), data)

    @given(st.integers(min_value=0, max_value=150), st.data())
    @settings(max_examples=40, deadline=None)
    def test_budget(self, shift, data):
        self.assert_one_factor(build_budget_design(shift, SPONSOR_BUDGET), data)


class TestMaxAbsMvnCdf:
    """P(max_j |Z_j| <= c), the band coverage the Dunnett threshold solves on."""

    def test_identity_dim3(self):
        spec = MvnSpec.from_correlation(equicorrelated_matrix(3, 0.0))
        assert max_abs_mvn_cdf(Z_0975, spec) == pytest.approx(0.857375, abs=1e-9)

    def test_equicorrelated_half(self):
        spec = equicorrelated_spec(3, 0.5)
        value = max_abs_mvn_cdf(Z_0975, spec)
        # published complement 0.1247 carries Monte Carlo noise of ~0.0015
        assert 1.0 - value == pytest.approx(0.1247, abs=0.004)
        # independent check against the brute-force sampler below
        assert 1.0 - value == pytest.approx(0.125443, abs=1e-5)

    @pytest.mark.parametrize("c", [0.5, 1.96, 3.5])
    def test_mirrored_lower_bound_matches_direct_evaluation(self, c):
        # two-sided without a shift takes lo from hi at the mirrored node; a
        # zero mean shift forces the direct evaluation of lo
        lam = np.array([[0.9, 0.6, 0.3, 0.05]])  # one problem: one row
        bound = np.array([c])
        integrate = distributions._factor_integral
        mirrored = integrate(lam, distributions._coverage_and_slope, bound, True)
        direct = integrate(lam, distributions._coverage_and_slope, bound, True, np.zeros((1, 4)))
        assert np.array_equal(mirrored, direct)

    def test_zero_width_band(self):
        spec = equicorrelated_spec(3, 0.5)
        assert max_abs_mvn_cdf(0.0, spec) == 0.0

    def test_monotone_in_width(self):
        spec = equicorrelated_spec(4, 0.3)
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
        spec = equicorrelated_spec(3, 0.5)
        se = math.sqrt(estimate * (1 - estimate) / reps)
        assert abs(max_abs_mvn_cdf(Z_0975, spec) - estimate) <= 4 * se


class TestDunnettCriticalValue:
    def test_dim1_reduces_to_normal_quantile(self):
        spec = MvnSpec.from_correlation(equicorrelated_matrix(1, 0.0))
        assert dunnett_threshold(spec, 0.05) == pytest.approx(Z_0975, abs=1e-9)

    def test_dim1_one_sided(self):
        spec = MvnSpec.from_correlation(equicorrelated_matrix(1, 0.0))
        value = dunnett_threshold(spec, 0.05, Sidedness.ONE_SIDED)
        assert value == pytest.approx(quantile_by_bisection(0.95), abs=1e-9)

    def test_identity_matches_sidak_closed_form(self):
        spec = MvnSpec.from_correlation(equicorrelated_matrix(3, 0.0))
        sidak = normal_quantile(0.5 * (1.0 + 0.95 ** (1.0 / 3.0)))
        assert dunnett_threshold(spec, 0.05) == pytest.approx(sidak, abs=1e-8)

    def test_equicorrelated_half_dim3_against_mc_oracle(self):
        spec = equicorrelated_spec(3, 0.5)
        value = dunnett_threshold(spec, 0.05)
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
            spec = MvnSpec.from_correlation(equicorrelated_matrix(m, 0.0))
            value = dunnett_threshold(spec, 0.05)
            assert normal_quantile(1 - 0.05 / 2) <= value
            assert value <= normal_quantile(1 - 0.05 / (2 * m))

    def test_monotone_in_common_correlation(self):
        values = [
            dunnett_threshold(equicorrelated_spec(4, rho), 0.05)
            for rho in np.arange(0.0, 0.95, 0.1)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_coverage_residual(self):
        spec = equicorrelated_spec(5, 0.5)
        value = dunnett_threshold(spec, 0.05)
        assert abs(max_abs_mvn_cdf(value, spec) - 0.95) <= 1e-6

    def test_one_sided_coverage_residual(self):
        spec = equicorrelated_spec(3, 0.5)
        value = dunnett_threshold(spec, 0.05, Sidedness.ONE_SIDED)
        covered = max_abs_mvn_cdf(value, spec, Sidedness.ONE_SIDED)
        assert covered == pytest.approx(0.95, abs=1e-6)
        # one-sided thresholds sit below their two-sided counterparts
        assert value < dunnett_threshold(spec, 0.05)

    def test_general_path_close_to_structured(self):
        entries = (
            (1.0, 0.5, 7 / 30),
            (0.5, 1.0, 7 / 30),
            (7 / 30, 7 / 30, 1.0),
        )
        corr = CorrelationMatrix(entries)
        structured = dunnett_threshold(MvnSpec.from_correlation(corr), 0.05)

        def general_shortfall(c):
            return genz_rectangle(corr, np.full(3, -c), np.full(3, c)) - 0.95

        # The coverage grows in c, so a sign change across structured +/- 1e-6
        # puts the general root within 1e-6 of it, in two Genz evaluations.
        assert general_shortfall(structured - 1e-6) < 0 < general_shortfall(structured + 1e-6)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            dunnett_threshold(equicorrelated_spec(2, 0.5), 0.0)


def one_factor_correlation(loadings):
    """Correlation matrix with corr[i, j] = lambda_i * lambda_j off the diagonal."""
    m = len(loadings)
    return CorrelationMatrix(
        tuple(
            tuple(1.0 if i == j else loadings[i] * loadings[j] for j in range(m))
            for i in range(m)
        )
    )


one_factor_loadings = st.lists(
    st.floats(0.0, 0.97, exclude_max=True), min_size=2, max_size=10
)


class TestDunnettNewton:
    """The Sidak-started Newton solve against a tight Brent root of the same coverage."""

    @given(
        one_factor_loadings,
        st.floats(1e-6, 0.999),
        st.sampled_from(list(Sidedness)),
    )
    @example(loadings=[0.5, 5.960464477539063e-08, 5.960464477539063e-08], alpha=0.5,
             sidedness=Sidedness.ONE_SIDED)
    # a coverage bar of 1e-9 alone stopped this quadrature at 128 nodes, 1.5e-6 off the root
    @example(loadings=[0.0, 0.96875, 0.96875], alpha=1e-6, sidedness=Sidedness.ONE_SIDED)
    @settings(max_examples=80, deadline=None)
    def test_matches_brent_root_of_the_coverage(self, loadings, alpha, sidedness):
        spec = MvnSpec.from_correlation(one_factor_correlation(loadings))
        sides = 2.0 if sidedness is Sidedness.TWO_SIDED else 1.0
        m = len(loadings)
        lam = np.array([spec.factor_loadings])
        null = partial(distributions._rejection_law, np.zeros(m, dtype=bool))

        def shortfall(c):
            # the band coverage of the rejection law on the 512-node rule alone,
            # converged to rounding for loadings below 0.97: the adaptive law's
            # 1e-9 stop can leave its root 2e-8 off at alpha 1e-6
            (law,) = distributions._factor_integral(
                lam, null, np.array([c]), sides == 2.0, node_counts=(512,)
            )
            return float(law[0, 0, 0]) - (1.0 - alpha)

        per_comparison = normal_quantile(1.0 - alpha / sides)
        sidak = normal_quantile(1.0 - (1.0 - (1.0 - alpha) ** (1.0 / m)) / sides)
        root = brentq(shortfall, per_comparison - 0.5, sidak + 0.5, xtol=1e-14)
        value = dunnett_threshold(spec, alpha, sidedness)
        assert abs(value - root) <= 1e-9
        assert abs(shortfall(value)) <= 1e-6
        assert per_comparison - 1e-9 <= value <= sidak + 1e-9

    @given(
        one_factor_loadings,
        one_factor_loadings,
        st.floats(1e-6, 0.999),
        st.sampled_from(list(Sidedness)),
    )
    @settings(max_examples=40, deadline=None)
    def test_threshold_does_not_depend_on_call_order(self, first, second, alpha, sidedness):
        a = (one_factor_correlation(first), alpha, sidedness)
        b = (one_factor_correlation(second), alpha, sidedness)
        adjust._dunnett_cache.clear()
        (a_first,) = adjust._dunnett_thresholds([a])
        (b_second,) = adjust._dunnett_thresholds([b])
        adjust._dunnett_cache.clear()
        (b_first,) = adjust._dunnett_thresholds([b])
        (a_second,) = adjust._dunnett_thresholds([a])
        assert a_first.hex() == a_second.hex()
        assert b_first.hex() == b_second.hex()

    @pytest.mark.xfail(strict=True, reason="far-tail thresholds are anti-conservative (ROADMAP direction 1)")
    def test_far_tail_threshold_meets_alpha(self):
        # m = 3, rho = 0.5, one-sided, alpha = 1e-15: the 40-digit root is
        # 8.076473, and the package's 8.068999891 has a tail of 1.063 alpha
        alpha = 1e-15
        policy = adjust.AdjustmentPolicy(adjust.AdjustmentMethod.DUNNETT, alpha, Sidedness.ONE_SIDED)
        c = mpmath.mpf(adjust.critical_value(policy, equicorrelated_matrix(3, 0.5)))
        load = scale = mpmath.sqrt(mpmath.mpf(1) / 2)

        def outside(x):
            # P(some Z_j > c | factor x) = 1 - (1 - q)^3, q = P(Z_j > c | x)
            q = mpmath.ncdf((load * x - c) / scale)
            return mpmath.npdf(x) * -mpmath.expm1(3 * mpmath.log1p(-q))

        tail = mpmath.quad(outside, [-mpmath.inf, 0, c * load, 2 * c * load, mpmath.inf])
        assert abs(tail / alpha - 1) <= 1e-6

    @given(
        st.integers(2, 10).flatmap(
            lambda m: st.lists(
                st.lists(st.floats(0.0, 0.97, exclude_max=True), min_size=m, max_size=m),
                min_size=1,
                max_size=8,
            )
        ),
        st.data(),
        st.floats(1e-6, 0.5),
        st.sampled_from(list(Sidedness)),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_does_not_depend_on_its_batch(self, batch, data, alpha, sidedness):
        specs = [MvnSpec.from_correlation(one_factor_correlation(row)) for row in batch]
        solved = distributions.dunnett_critical_values(
            [spec.factor_loadings for spec in specs], alpha, sidedness
        )
        pick = data.draw(st.integers(0, len(specs) - 1))
        alone = dunnett_threshold(specs[pick], alpha, sidedness)
        assert float(solved[pick]).hex() == alone.hex()

    @pytest.mark.parametrize("stop", [distributions._QUAD_STOP, 0.0])
    def test_rows_leave_the_quadrature_at_their_own_stage(self, monkeypatch, stop):
        # at the default stop these 12 rows leave after 1 to 6 node counts;
        # a stop of 0 makes every row fall through to the largest rule
        monkeypatch.setattr(distributions, "_QUAD_STOP", stop)
        rng = np.random.default_rng(1)
        lam = rng.uniform(0.0, 0.99, size=(12, 3))
        lam[0] = 0.999
        c = rng.uniform(1.0, 3.0, size=12)
        kernel, reduce = distributions._factor_integral, distributions._coverage_and_slope
        together = kernel(lam, reduce, c, True)
        for i in range(len(lam)):
            alone = kernel(lam[i : i + 1], reduce, c[i : i + 1], True)
            for batch_part, single_part in zip(together, alone):
                assert batch_part[i].hex() == single_part[0].hex()
        # each row returns the one-rule integral at the first node count whose
        # coverage agrees with the previous count's, or else the largest rule's
        scale = np.sqrt(1.0 - lam * lam)
        rules = []
        for n in distributions._QUAD_NODE_COUNTS:
            x, w = distributions._hermite_nodes(n)
            parts = reduce(*distributions._conditional(x, lam, scale, None, c, True))
            rules.append([(w @ part[:, :, None])[:, 0] for part in parts])
        for i in range(len(lam)):
            coverage = [rule[0][i] for rule in rules]
            gaps = np.abs(np.diff(coverage))
            stage = 1 + int(np.argmax(gaps < stop)) if (gaps < stop).any() else len(rules) - 1
            for part, expected in zip(together, rules[stage]):
                assert part[i].hex() == expected[i].hex()

    @pytest.mark.parametrize("sidedness", list(Sidedness))
    def test_few_coverage_evaluations_per_solve(self, monkeypatch, sidedness):
        # the fig3 fixed-total designs and the staggered designs the
        # required-n search meets
        designs = [
            build_fixed_total_design(FIXED_TOTAL, m, ControlMode.COMMON, ratio)
            for m in range(2, 11)
            for ratio in (1.0, math.sqrt(m))
        ] + [
            build_staggered_design(n, shift)
            for n in range(150, 190)
            for shift in (37, 75, 120)
        ]
        kernel = distributions._factor_integral
        calls = []

        def counted(*args, **kwargs):
            # an adaptive evaluation runs more than one rule; the one-rule start phase is not counted
            if len(kwargs.get("node_counts", distributions._QUAD_NODE_COUNTS)) > 1:
                calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(distributions, "_factor_integral", counted)
        evaluations = []
        for design in designs:
            spec = MvnSpec.from_correlation(analytic_correlation(design))
            calls.clear()
            dunnett_threshold(spec, 0.05, sidedness)
            evaluations.append(len(calls))
        assert max(evaluations) <= 3
        assert sum(evaluations) / len(evaluations) <= 1.5


class TestRejectionCounts:
    def test_pmf_matches_brute_force(self):
        spec = equicorrelated_spec(3, 0.5)
        shifts = np.array([1.0, 0.0, -0.5])
        effective = np.array([True, False, True])
        c = 1.96
        pmf = rejection_count_pmf(spec, shifts, c)
        law = rejection_law(spec, shifts, effective, c)
        assert law.shape == (2, 3)
        rng = np.random.default_rng(11)
        lam = math.sqrt(0.5)
        reps = 400_000
        w = rng.standard_normal((reps, 1))
        eps = rng.standard_normal((reps, 3))
        z = shifts + lam * w + math.sqrt(1 - lam * lam) * eps
        rejected = np.abs(z) > c
        counts = rejected.sum(axis=1)
        false = rejected[:, ~effective].sum(axis=1)
        true = rejected[:, effective].sum(axis=1)
        cells = [(pmf[k], counts == k) for k in range(4)] + [
            (law[f, t], (false == f) & (true == t)) for f in range(2) for t in range(3)
        ]
        for exact, hits in cells:
            mc = float(hits.mean())
            se = math.sqrt(max(mc * (1 - mc), 1e-9) / reps)
            assert abs(exact - mc) <= 4 * se

    @given(
        st.integers(2, 10).flatmap(
            lambda m: st.tuples(
                st.lists(st.floats(0.0, 0.97, exclude_max=True), min_size=m, max_size=m),
                st.lists(st.floats(-4.0, 4.0), min_size=m, max_size=m),
                st.lists(st.booleans(), min_size=m, max_size=m),
            )
        ),
        st.floats(0.0, 4.0),
        st.sampled_from(list(Sidedness)),
    )
    @settings(max_examples=60, deadline=None)
    def test_law_total_count_marginal_is_the_pmf(self, case, c, sidedness):
        loadings, shifts, effective = case
        spec = MvnSpec.from_correlation(one_factor_correlation(loadings))
        law = rejection_law(spec, shifts, effective, c, sidedness)
        assert law.shape == (len(effective) - sum(effective) + 1, sum(effective) + 1)
        total = np.zeros(len(effective) + 1)
        for (f, t), p in np.ndenumerate(law):
            total[f + t] += p
        pmf = rejection_count_pmf(spec, shifts, c, sidedness)
        assert np.abs(total - pmf).max() <= 1e-13

    def test_independent_case_is_binomial(self):
        spec = MvnSpec.from_correlation(equicorrelated_matrix(3, 0.0))
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
            rejection_count_pmf(equicorrelated_spec(3, 0.5), np.zeros(2), 1.96)
        with pytest.raises(ValueError, match="effective mask"):
            rejection_law(equicorrelated_spec(3, 0.5), np.zeros(3), [True, False], 1.96)


class TestFactorRectangle:
    """Bands of shifted means: P(-c <= Z_j + mu_j <= c for every j), the law's zero-count entry."""

    @staticmethod
    def coverage(spec, shifts, c):
        return rejection_law(spec, shifts, np.zeros(spec.dim, dtype=bool), c)[0, 0]

    def test_shifted_rectangle_matches_univariate_product_when_independent(self):
        spec = MvnSpec.from_correlation(equicorrelated_matrix(2, 0.0))
        shifts = np.array([-0.5, -1.75])
        c = 1.5
        # bands [-c - mu_j, c - mu_j]: [-1, 2] and [0.25, 3.25]
        expected = (normal_cdf(2.0) - normal_cdf(-1.0)) * (normal_cdf(3.25) - normal_cdf(0.25))
        assert self.coverage(spec, shifts, c) == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_qmc_general_path(self):
        corr = equicorrelated_matrix(3, 0.4)
        spec = MvnSpec.from_correlation(corr)
        shifts = np.array([-0.25, 0.5, 1.25])
        c = 1.25
        exact = self.coverage(spec, shifts, c)
        estimate = genz_rectangle(corr, -c - shifts, c - shifts)
        assert exact == pytest.approx(estimate, abs=1e-8)
