import math
import warnings
from functools import partial

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from platformsim.adjust import AdjustmentMethod, AdjustmentPolicy, critical_value
from platformsim.correlation import analytic_correlation
from platformsim.designs import (
    ControlMode,
    PlatformDesign,
    build_fixed_design,
    build_fixed_total_design,
    build_staggered_design,
)
from platformsim.distributions import Sidedness, normal_cdf, normal_quantile
from platformsim.engine import ScenarioConfig, run_scenario
from platformsim import sample_size
from platformsim.sample_size import (
    PowerTarget,
    comparison_mean_shifts,
    marginal_power,
    required_per_arm_n,
    required_per_arm_ns,
)

UNADJ = AdjustmentPolicy(AdjustmentMethod.UNADJUSTED)
BONF = AdjustmentPolicy(AdjustmentMethod.BONFERRONI)
DUNN = AdjustmentPolicy(AdjustmentMethod.DUNNETT)
TARGET = PowerTarget(0.9, 0.38)
ONE_SIDED = Sidedness.ONE_SIDED


def _fixed(num_arms, control_mode):
    """Design family n -> fixed design with n patients in every arm."""
    return partial(build_fixed_design, num_arms, control_mode=control_mode)


def _staggered(shift):
    """Design family n -> three-arm staggered design; sizes below ``shift`` are infeasible."""
    return partial(build_staggered_design, shift=shift)


def _comparison_power(n, target, policy, template, arm):
    design = template(n)
    threshold = critical_value(policy, analytic_correlation(design))
    return marginal_power(
        design.treatment_total(arm), design.concurrent_control_count(arm), target.delta, threshold
    )


def _bisection_required_n(target, policy, template, arm=0, max_n=10_000_000):
    """Reference search: double up from the two-arm size, then bisect from 1.

    This is the search ``required_per_arm_n`` used before it galloped from a
    closed-form guess; it costs about ten threshold evaluations per call.
    """

    def power(n):
        try:
            return _comparison_power(n, target, policy, template, arm)
        except ValueError:
            return -1.0

    z_sum = normal_quantile(1.0 - policy.alpha / 2.0) + normal_quantile(target.target)
    probe = max(1, math.ceil(2.0 * (z_sum / target.delta) ** 2))
    high = probe
    while power(high) < target.target:
        high *= 2
        if high > max_n:
            raise ValueError("no feasible sample size below the search cap")
    low = 1
    while high - low > 1:
        mid = (low + high) // 2
        if power(mid) >= target.target:
            high = mid
        else:
            low = mid
    if power(low) >= target.target:
        return low
    return high


def _recording(template):
    """Wrap a template so that the candidate sizes it is asked for are kept."""
    asked = []

    def build(n):
        asked.append(n)
        return template(n)

    return build, asked


SEARCH_CASES = (
    [(f"common-m{m}", _fixed(m, ControlMode.COMMON), 0) for m in range(1, 11)]
    + [(f"individual-m{m}", _fixed(m, ControlMode.INDIVIDUAL), 0) for m in (1, 3, 10)]
    + [
        (f"staggered-shift{shift}", _staggered(shift), 2)
        for shift in (0, 1, 37, 75, 149, 150, 151, 200)
    ]
)


class TestAnalyticPower:
    def test_reference_sample_sizes(self):
        c = normal_quantile(0.975)
        assert marginal_power(150, 150, 0.38, c) == pytest.approx(0.9084, abs=5e-5)
        assert marginal_power(100, 100, 0.38, c) == pytest.approx(0.7664, abs=5e-5)

    def test_marginal_power_includes_far_tail(self):
        # with delta 0 both tails contribute alpha/2 each
        assert marginal_power(100, 100, 0.0, 1.959963984540054) == pytest.approx(
            0.05, abs=1e-9
        )

    def test_one_sided_power_counts_the_upper_tail_only(self):
        c = normal_quantile(0.95)
        assert marginal_power(10, 10, 0.0, c, ONE_SIDED) == pytest.approx(0.05, abs=1e-12)
        assert marginal_power(10, 10, 0.0, c) == pytest.approx(0.10, abs=1e-12)
        # an effect in the wrong direction is (almost) never a one-sided rejection
        assert marginal_power(100, 100, -0.5, c, ONE_SIDED) < 1e-6
        assert marginal_power(100, 100, -0.5, c) > 0.5

    def test_mean_shift_vector(self):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        shifts = comparison_mean_shifts(design, (0.38, 0.0, 0.0))
        assert shifts[0] == pytest.approx(0.38 * math.sqrt(75), abs=1e-12)
        assert shifts[1] == 0.0

    @pytest.mark.parametrize(
        "effect", [1e308, 10**400, float("inf"), float("nan")], ids=["1e308", "10**400", "inf", "nan"]
    )
    def test_mean_shifts_must_be_finite(self, effect):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow is an error, not a warning
            with pytest.raises(ValueError, match="effects must give finite z-statistic means"):
                comparison_mean_shifts(design, (effect, 0.0, 0.0))

    def test_mean_shift_needs_concurrent_controls(self):
        # the second arm recruits only after the control arm has closed
        design = PlatformDesign(ControlMode.COMMON, ((5, 0), (5, 0), (0, 5)))
        with pytest.raises(ValueError, match="arm 1 has no concurrent control patients"):
            comparison_mean_shifts(design, (0.38, 0.38))


class TestRequiredPerArmN:
    def test_unadjusted_two_arm(self):
        # closed form 2 (z_{0.975} + z_{0.9})^2 / delta^2 = 145.5, next integer
        # with power(146) >= 0.9 is 146
        assert required_per_arm_n(TARGET, UNADJ, _fixed(1, ControlMode.COMMON)) == 146

    def test_bonferroni_three_arms(self):
        # local level alpha/3: closed form 187.1; smallest integer with
        # analytic power >= 0.9 is 188
        assert required_per_arm_n(TARGET, BONF, _fixed(3, ControlMode.COMMON)) == 188

    def test_dunnett_between_unadjusted_and_bonferroni(self):
        n_d = required_per_arm_n(TARGET, DUNN, _fixed(3, ControlMode.COMMON))
        assert 146 <= n_d <= 188
        assert n_d == 183

    def test_huge_effect_small_target(self):
        # smallest n with Phi(3 sqrt(n/2) - 1.96) >= 0.5: already true at n=1
        goal = PowerTarget(0.5, 3.0)
        assert marginal_power(1, 1, 3.0, normal_quantile(0.975)) >= 0.5
        assert required_per_arm_n(goal, UNADJ, _fixed(1, ControlMode.COMMON)) == 1

    def test_returned_n_is_minimal(self):
        for policy in (UNADJ, BONF, DUNN):
            template = _fixed(3, ControlMode.COMMON)
            n = required_per_arm_n(TARGET, policy, template)
            design = template(n)
            corr = analytic_correlation(design)
            from platformsim.adjust import critical_value

            threshold = critical_value(policy, corr)
            assert marginal_power(n, n, 0.38, threshold) >= 0.9
            assert marginal_power(n - 1, n - 1, 0.38, threshold) < 0.9

    def test_monotone_in_arm_count(self):
        for policy in (BONF, DUNN):
            sizes = [
                required_per_arm_n(TARGET, policy, _fixed(m, ControlMode.COMMON))
                for m in range(2, 7)
            ]
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_dunnett_never_needs_more_than_bonferroni(self):
        for m in range(2, 7):
            n_d = required_per_arm_n(TARGET, DUNN, _fixed(m, ControlMode.COMMON))
            n_b = required_per_arm_n(TARGET, BONF, _fixed(m, ControlMode.COMMON))
            assert n_d <= n_b

    def test_staggered_template_respects_feasibility_floor(self):
        n = required_per_arm_n(TARGET, UNADJ, _staggered(150), arm=2)
        assert n == 150  # unconstrained answer 146 is below the entry shift

    @pytest.mark.parametrize("method", list(AdjustmentMethod))
    def test_one_sided_search_is_minimal_for_the_upper_tail(self, method):
        # oracle: one-sided power Phi(mu - c), written out without marginal_power
        policy = AdjustmentPolicy(method, sidedness=ONE_SIDED)
        cases = ((_fixed(3, ControlMode.COMMON), 0), (_staggered(75), 2))
        for template, arm in cases:
            for goal in (0.12, 0.5, 0.9):
                for delta in (0.1, 0.38):
                    target = PowerTarget(goal, delta)

                    def power(n):
                        design = template(n)
                        c = critical_value(policy, analytic_correlation(design))
                        nt = design.treatment_total(arm)
                        nc = design.concurrent_control_count(arm)
                        return normal_cdf(delta / math.sqrt(1 / nt + 1 / nc) - c)

                    n = required_per_arm_n(target, policy, template, arm=arm)
                    assert power(n) >= goal
                    try:
                        assert power(n - 1) < goal
                    except ValueError:  # n - 1 is infeasible
                        pass

    def test_one_sided_search_at_low_power_goal(self):
        # Phi(0.1 sqrt(n / 2) - 1.645) >= 0.12 first holds at n = 45; counting
        # the lower tail as well would stop near n = 24
        policy = AdjustmentPolicy(AdjustmentMethod.UNADJUSTED, sidedness=ONE_SIDED)
        target = PowerTarget(0.12, 0.1)
        assert required_per_arm_n(target, policy, _fixed(1, ControlMode.COMMON)) == 45

    def test_mc_verification_of_boundary(self):
        # simulated power brackets the target at the returned n (guard band
        # of two Monte Carlo standard errors)
        design_ok = build_fixed_design(1, 146, ControlMode.COMMON)
        design_low = build_fixed_design(1, 145, ControlMode.COMMON)
        oc_ok = run_scenario(
            ScenarioConfig(design_ok, (0.38,), UNADJ, reps=50_000, seed=21, kfwer_levels=(1,))
        )
        oc_low = run_scenario(
            ScenarioConfig(design_low, (0.38,), UNADJ, reps=50_000, seed=21, kfwer_levels=(1,))
        )
        power_ok = oc_ok.marginal_power[0]
        power_low = oc_low.marginal_power[0]
        assert power_ok.value >= 0.9 - 2 * power_ok.se
        assert power_low.value <= 0.9 + 2 * power_low.se


class TestGallopingSearch:
    """``required_per_arm_n`` against the bisection it replaced."""

    @pytest.mark.parametrize(
        "template, arm", [case[1:] for case in SEARCH_CASES], ids=[case[0] for case in SEARCH_CASES]
    )
    def test_matches_bisection_oracle(self, template, arm):
        for policy in (UNADJ, BONF, DUNN):
            for goal in (0.5, 0.8, 0.9, 0.95):
                for delta in (0.2, 0.38, 3.0):
                    target = PowerTarget(goal, delta)
                    n = required_per_arm_n(target, policy, template, arm=arm)
                    assert n == _bisection_required_n(target, policy, template, arm=arm)
                    assert _comparison_power(n, target, policy, template, arm) >= goal
                    if n > 1:
                        try:
                            below = _comparison_power(n - 1, target, policy, template, arm)
                        except ValueError:  # n - 1 is infeasible
                            continue
                        assert below < goal

    def test_exact_guess_costs_three_evaluations(self):
        # probe threshold, the guess and the size below it
        template, asked = _recording(_fixed(3, ControlMode.COMMON))
        assert required_per_arm_n(TARGET, DUNN, template) == 183
        assert len(asked) == 3

    def test_gallop_down_to_one(self):
        # 1000 patients per side for each unit of n: the closed-form guess
        # (146) overshoots and the search gallops down to the floor
        def template(n):
            return build_fixed_design(1, 1000 * n, ControlMode.COMMON)

        recorded, asked = _recording(template)
        assert required_per_arm_n(TARGET, UNADJ, recorded) == 1
        assert max(asked) > 100 and asked[-1] == 1
        assert _bisection_required_n(TARGET, UNADJ, template) == 1

    def test_gallop_up_through_infeasible_sizes(self):
        # shift 200 rejects every guess below 200, so the search climbs
        # through infeasible sizes until it brackets the answer
        template, asked = _recording(_staggered(200))
        assert required_per_arm_n(TARGET, UNADJ, template, arm=2) == 200
        assert min(asked) < 200 < max(asked)
        assert _bisection_required_n(TARGET, UNADJ, _staggered(200), arm=2) == 200

    def test_search_cap(self, monkeypatch):
        template = _fixed(1, ControlMode.COMMON)
        monkeypatch.setattr(sample_size, "MAX_N", 146)
        assert required_per_arm_n(TARGET, UNADJ, template) == 146
        monkeypatch.setattr(sample_size, "MAX_N", 145)
        with pytest.raises(ValueError, match="no feasible sample size below the search cap"):
            required_per_arm_n(TARGET, UNADJ, template)
        monkeypatch.setattr(sample_size, "MAX_N", 250)
        with pytest.raises(ValueError, match="search cap"):
            required_per_arm_n(TARGET, UNADJ, _staggered(300), arm=2)

    def test_threshold_errors_are_not_infeasibility(self):
        # a chain of three arms: arms 1 and 3 share no control, arm 2 overlaps
        # both, so the matrix has no one-factor form and Dunnett must refuse
        # it rather than report that no n is feasible
        def chain(n):
            return PlatformDesign(
                ControlMode.COMMON, ((n,) * 4, (n, n, 0, 0), (0, n, n, 0), (0, 0, n, n))
            )

        with pytest.raises(ValueError, match="not one-factor"):
            required_per_arm_n(TARGET, DUNN, chain)
        config = ScenarioConfig(chain(150), (0.0, 0.0, 0.0), DUNN, reps=100)
        with pytest.raises(ValueError, match="not one-factor"):
            run_scenario(config)
        # the other policies do not need the factor form
        assert required_per_arm_n(TARGET, BONF, chain) > 0


def _search_cases():
    """(template kind, parameter, policy, goal, delta) of one required-n search."""
    template = st.one_of(
        st.tuples(st.just("common"), st.integers(1, 6)),
        st.tuples(st.just("individual"), st.integers(1, 4)),
        st.tuples(st.just("staggered"), st.integers(0, 220)),
    )
    return st.tuples(
        template,
        st.sampled_from([UNADJ, BONF, DUNN]),
        st.sampled_from([0.5, 0.8, 0.9]),
        st.sampled_from([0.2, 0.38, 1.0]),
    )


def _make_template(kind, parameter):
    if kind == "staggered":
        return _staggered(parameter), 2
    return _fixed(parameter, ControlMode(kind)), 0


class TestLockstepSearch:
    """``required_per_arm_ns`` against running the same searches one at a time."""

    @given(st.lists(_search_cases(), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_matches_searches_run_one_at_a_time(self, cases):
        together, alone = [], []
        for (kind, parameter), policy, goal, delta in cases:
            template, arm = _make_template(kind, parameter)
            for calls in (together, alone):
                recorded, asked = _recording(template)
                calls.append(((PowerTarget(goal, delta), policy, recorded, arm), asked))
        found = required_per_arm_ns([search for search, _ in together])
        expected = [required_per_arm_n(*search) for search, _ in alone]
        assert found == expected
        assert [asked for _, asked in together] == [asked for _, asked in alone]

    def test_empty_batch(self):
        assert required_per_arm_ns([]) == []

    @pytest.mark.parametrize("policy", [UNADJ, BONF, DUNN])
    def test_arm_without_concurrent_controls_is_an_error(self, policy):
        # the second arm recruits only after the control arm has closed
        def template(n):
            return PlatformDesign(ControlMode.COMMON, ((n, 0), (n, 0), (0, n)))

        with pytest.raises(ValueError, match="arm 1 has no concurrent control patients"):
            required_per_arm_n(TARGET, policy, template, arm=1)


class TestSplitFixedTotal:
    """How ``designs.build_fixed_total_design`` splits a fixed total over the arms."""

    def test_reference_splits(self):
        def sizes(m, mode):
            return build_fixed_total_design(600, m, mode).comparison_sizes(0)

        assert sizes(3, ControlMode.COMMON) == (150, 150)
        assert sizes(10, ControlMode.COMMON)[0] == 54
        assert sizes(10, ControlMode.INDIVIDUAL) == (30, 30)
        assert sizes(2, ControlMode.COMMON) == (200, 200)

    def test_common_split_conserves_patients(self):
        for m in range(1, 12):
            allocated = build_fixed_total_design(600, m, ControlMode.COMMON).total_sample_size()
            assert allocated <= 600 < allocated + (m + 1)

    def test_ratio_weighted_control(self):
        design = build_fixed_total_design(600, 3, ControlMode.COMMON, math.sqrt(3))
        assert design.comparison_sizes(0) == (126, 600 - 3 * 126)
        assert design.total_sample_size() == 600

    def test_individual_split_leftover_bounded(self):
        for m in range(1, 12):
            allocated = build_fixed_total_design(600, m, ControlMode.INDIVIDUAL).total_sample_size()
            assert allocated <= 600 < allocated + 2 * m

    def test_sqrt_ratio_lowers_correlation(self):
        # more control patients per comparison weaken the shared-control link
        for m in (3, 5, 8):
            equal, wide = (
                analytic_correlation(build_fixed_total_design(600, m, ControlMode.COMMON, ratio))
                .entries[0][1]
                for ratio in (1.0, math.sqrt(m))
            )
            assert wide < equal

    def test_infeasible_totals_rejected(self):
        with pytest.raises(ValueError, match="total too small"):
            build_fixed_total_design(3, 3, ControlMode.COMMON)
        with pytest.raises(ValueError, match="total too small"):
            build_fixed_total_design(5, 3, ControlMode.INDIVIDUAL)
        with pytest.raises(ValueError, match="at least one treatment arm"):
            build_fixed_total_design(600, 0, ControlMode.COMMON)

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError, match="control ratio must be at least 1"):
            build_fixed_total_design(600, 3, ControlMode.COMMON, 0.5)


class TestPowerTargetValidation:
    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            PowerTarget(1.0, 0.38)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            PowerTarget(0.9, 0.0)
