"""Sample-size determination and analytic power formulas.

The z-statistics here are exactly normal with known variance, so marginal
power is available in closed form for any single-step threshold. The
integer sample-size search evaluates that closed form; simulation serves as
an independent cross-check in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .adjust import AdjustmentMethod, AdjustmentPolicy, critical_value
from .correlation import CorrelationMatrix, analytic_correlation
from .designs import ControlMode, PlatformDesign, build_fixed_design, build_staggered_design
from .distributions import Sidedness, normal_cdf, normal_quantile


@dataclass(frozen=True)
class PowerTarget:
    """A marginal power goal for a given effect size and test level."""

    target: float
    delta: float
    alpha: float = 0.05
    sidedness: Sidedness = Sidedness.TWO_SIDED

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise ValueError("target power must lie strictly between 0 and 1")
        if self.delta <= 0.0:
            raise ValueError("effect size must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")


def analytic_two_arm_power(n: int, delta: float, alpha_local: float) -> float:
    """Power of a two-sided z-test with ``n`` patients per side.

    Uses the usual one-tail approximation (the probability of rejecting into
    the wrong tail is neglected); the error is far below every tolerance
    used here.
    """
    if n < 1:
        raise ValueError("need at least one patient per side")
    threshold = normal_quantile(1.0 - alpha_local / 2.0)
    return normal_cdf(delta * math.sqrt(n / 2.0) - threshold)


def marginal_power(
    n_treatment: int,
    n_control: int,
    delta: float,
    threshold: float,
    sidedness: Sidedness = Sidedness.TWO_SIDED,
) -> float:
    """Exact rejection probability of one comparison.

    The comparison statistic is normal with unit variance and mean
    delta / sqrt(1/n_t + 1/n_c). A two-sided test rejects in both tails, a
    one-sided test only when the statistic exceeds the threshold.
    """
    mu = delta / math.sqrt(1.0 / n_treatment + 1.0 / n_control)
    power = normal_cdf(mu - threshold)
    if sidedness is Sidedness.TWO_SIDED:
        power += normal_cdf(-mu - threshold)
    return power


def comparison_mean_shifts(design: PlatformDesign, effects) -> np.ndarray:
    """Expected value of each comparison's z-statistic under given effects."""
    effects = np.asarray(effects, dtype=float)
    m = design.num_arms
    if effects.shape != (m,):
        raise ValueError("effects vector must match the number of arms")
    out = np.empty(m)
    for arm in range(m):
        se = math.sqrt(
            1.0 / design.treatment_total(arm) + 1.0 / design.concurrent_control_count(arm)
        )
        out[arm] = effects[arm] / se
    return out


def fixed_template(num_arms: int, control_mode: ControlMode) -> Callable[[int], PlatformDesign]:
    """Design family n -> fixed design with n patients in every arm."""

    def build(n: int) -> PlatformDesign:
        return build_fixed_design(num_arms, n, control_mode)

    return build


def staggered_template(shift: int) -> Callable[[int], PlatformDesign]:
    """Design family n -> three-arm staggered design with a fixed entry shift.

    Candidates smaller than the shift are infeasible (the late arm cannot
    join after the early arms have closed), so the search floor is the shift.
    """

    def build(n: int) -> PlatformDesign:
        return build_staggered_design(n, shift)

    return build


def _policy_power(design: PlatformDesign, policy: AdjustmentPolicy, delta: float, arm: int) -> float:
    threshold = critical_value(policy, analytic_correlation(design))
    return marginal_power(
        design.treatment_total(arm),
        design.concurrent_control_count(arm),
        delta,
        threshold,
        policy.sidedness,
    )


def _per_side_n(threshold: float, target: PowerTarget) -> int:
    """Closed-form two-arm size: delta sqrt(n / 2) reaches threshold + z_target."""
    z_target = normal_quantile(target.target)
    return max(1, math.ceil(2.0 * ((threshold + z_target) / target.delta) ** 2))


def required_per_arm_n(
    target: PowerTarget,
    policy: AdjustmentPolicy,
    template: Callable[[int], PlatformDesign],
    arm: int = 0,
    max_n: int = 10_000_000,
) -> int:
    """Smallest per-arm n up to ``max_n`` whose marginal power reaches the target.

    The policy's threshold is evaluated once, at the design of the two-arm
    unadjusted size, and the closed-form per-side n at that threshold is the
    first guess. From the guess the search gallops down or up in steps of
    1, 2, 4, ... until the answer is bracketed, then bisects the bracket on
    the monotone analytic power curve. When the guess is exact, as for fixed
    designs whose threshold does not depend on n, that costs three threshold
    evaluations. ``template`` maps a candidate n to the design it induces;
    candidates it rejects with a ``ValueError`` count as infeasible. Errors
    from the threshold itself propagate. Raises if no n up to ``max_n``
    reaches the target.
    """
    if target.alpha != policy.alpha:
        raise ValueError("power target and policy disagree on alpha")
    if target.sidedness is not policy.sidedness:
        raise ValueError("power target and policy disagree on sidedness")

    def meets(n: int) -> bool:
        try:
            design = template(n)
        except ValueError:
            return False
        return _policy_power(design, policy, target.delta, arm) >= target.target

    # the probe size comes from the threshold of a single unadjusted comparison
    single = replace(policy, method=AdjustmentMethod.UNADJUSTED)
    probe = _per_side_n(critical_value(single, CorrelationMatrix(((1.0,),))), target)
    try:
        design = template(probe)
    except ValueError:  # the template rejects the probe size
        guess = probe
    else:
        guess = _per_side_n(critical_value(policy, analytic_correlation(design)), target)
    guess = min(guess, max_n)
    # invariant once bracketed: lo misses the target (or is 0), hi meets it
    step = 1
    if meets(guess):
        hi = guess
        while True:
            lo = max(hi - step, 0)
            if lo == 0 or not meets(lo):
                break
            hi, step = lo, step * 2
    else:
        lo = guess
        while True:
            if lo >= max_n:
                raise ValueError("no feasible sample size below the search cap")
            hi = min(lo + step, max_n)
            if meets(hi):
                break
            lo, step = hi, step * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


class ArmSplit(NamedTuple):
    """Per-arm sizes after splitting a fixed total."""

    per_treatment: int
    control: int


def split_fixed_total(
    total: int,
    num_arms: int,
    control_mode: ControlMode,
    control_ratio: float = 1.0,
) -> ArmSplit:
    """Split a fixed total sample size over the arms of a platform trial.

    Common control: each treatment arm gets floor(total / (m + ratio)). At
    ratio 1 the control arm gets the same (equal allocation, up to m
    patients left unallocated); for larger ratios the control arm absorbs
    the ratio-weighted share plus the rounding remainder. Individual
    controls: floor(total / 2m) per arm, leaving up to 2m - 1 patients
    unallocated.
    """
    if num_arms < 1:
        raise ValueError("need at least one treatment arm")
    if control_ratio < 1.0:
        raise ValueError("control ratio must be at least 1")
    if control_mode is ControlMode.COMMON:
        per_treatment = int(total / (num_arms + control_ratio))
        if control_ratio == 1.0:
            control = per_treatment
        else:
            control = total - num_arms * per_treatment
        if per_treatment < 1 or control < 1:
            raise ValueError("total too small to give every arm a patient")
        return ArmSplit(per_treatment, control)
    per_arm = total // (2 * num_arms)
    if per_arm < 1:
        raise ValueError("total too small to give every arm a patient")
    return ArmSplit(per_arm, per_arm)
