"""Sample-size determination and analytic power formulas.

The z-statistics here are exactly normal with known variance, so marginal
power is available in closed form for any single-step threshold. The
integer sample-size search evaluates that closed form on the designs a
caller's template builds (``designs`` builds every design, fixed totals
included); simulation serves as an independent cross-check in the test
suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .adjust import AdjustmentMethod, AdjustmentPolicy, closed_form_threshold, critical_values
from .designs import PlatformDesign
from .distributions import Sidedness, normal_cdf, normal_quantile


# Largest per-arm n a required-n search tries before it gives up.
MAX_N = 10_000_000


@dataclass(frozen=True)
class PowerTarget:
    """A marginal power goal for a given effect size.

    The test level and sidedness are the adjustment policy's: a search
    takes both from the policy it is given.
    """

    target: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise ValueError("target power must lie strictly between 0 and 1")
        if self.delta <= 0.0:
            raise ValueError("effect size must be positive")


def _z_mean(delta: float, n_treatment: int, n_control: int) -> float:
    """Mean of a comparison's z-statistic: delta over its standard error sqrt(1/n_t + 1/n_c)."""
    return delta / math.sqrt(1.0 / n_treatment + 1.0 / n_control)


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
    mu = _z_mean(delta, n_treatment, n_control)
    power = normal_cdf(mu - threshold)
    if sidedness is Sidedness.TWO_SIDED:
        power += normal_cdf(-mu - threshold)
    return power


def comparison_mean_shifts(design: PlatformDesign, effects) -> np.ndarray:
    """Expected value of each comparison's z-statistic under given effects; a ValueError unless
    there is one effect per arm and every mean is finite."""
    try:
        values = np.asarray(effects, dtype=float)
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError(f"effects must give finite z-statistic means, got {effects}") from exc
    m = design.num_arms
    if values.shape != (m,):
        raise ValueError(f"effects vector has length {len(values)}, design has {m} arms")
    with np.errstate(over="ignore"):  # an overflow is rejected below, not warned of
        shifts = np.array([_z_mean(values[arm], *design.comparison_sizes(arm)) for arm in range(m)])
    if not np.isfinite(shifts).all():
        raise ValueError(f"effects must give finite z-statistic means, got {effects}")
    return shifts


def _per_side_n(threshold: float, target: PowerTarget) -> int:
    """Closed-form two-arm size: delta sqrt(n / 2) reaches threshold + z_target."""
    z_target = normal_quantile(target.target)
    return max(1, math.ceil(2.0 * ((threshold + z_target) / target.delta) ** 2))


def required_per_arm_n(
    target: PowerTarget,
    policy: AdjustmentPolicy,
    template: Callable[[int], PlatformDesign],
    arm: int = 0,
) -> int:
    """Smallest per-arm n up to ``MAX_N`` whose marginal power reaches the target.

    The policy's threshold is evaluated once, at the design of the two-arm
    unadjusted size, and the closed-form per-side n at that threshold is the
    first guess. From the guess the search gallops down or up in steps of
    1, 2, 4, ... until the answer is bracketed, then bisects the bracket on
    the monotone analytic power curve. When the guess is exact, as for fixed
    designs whose threshold does not depend on n, that costs three threshold
    evaluations. ``template`` is any callable from a candidate n to the
    design it induces, such as ``functools.partial(build_fixed_design, 3,
    control_mode=ControlMode.COMMON)``; candidates it rejects with a
    ``ValueError`` count as infeasible. Errors from the threshold itself
    propagate. Raises if no n up to ``MAX_N`` reaches the target. The test
    level and sidedness are the policy's. This is ``required_per_arm_ns``
    for one search.
    """
    return required_per_arm_ns([(target, policy, template, arm)])[0]


def required_per_arm_ns(searches) -> list[int]:
    """``required_per_arm_n(*search)`` of each search, run in lockstep rounds.

    Each round advances every unfinished search to the next design whose
    threshold it needs, and the round's thresholds come from one
    ``critical_values`` call, so its new Dunnett matrices are solved in one
    batch. Every search asks for the same candidates, and calls its template
    the same way, as it does alone.
    """
    searches = [tuple(search) for search in searches]
    runs = [_search(*search) for search in searches]
    found = [None] * len(runs)
    sends = [(index, None) for index in range(len(runs))]  # None starts a search
    while sends:
        waiting = {}  # search index -> the design whose threshold it waits for
        for index, threshold in sends:
            try:
                waiting[index] = runs[index].send(threshold)
            except StopIteration as stop:
                found[index] = stop.value
        thresholds = critical_values((searches[i][1], design) for i, design in waiting.items())
        sends = list(zip(waiting, thresholds))
    return found


def _search(target, policy, template, arm=0):
    """The search of ``required_per_arm_n`` as a generator.

    It yields each design whose threshold it needs, is sent that threshold,
    and returns the smallest n.
    """

    def meets(n: int):
        try:
            design = template(n)
        except ValueError:
            return False
        n_treatment, n_control = design.comparison_sizes(arm)
        threshold = yield design
        power = marginal_power(n_treatment, n_control, target.delta, threshold, policy.sidedness)
        return power >= target.target

    # the probe size comes from the threshold of a single unadjusted comparison
    single = replace(policy, method=AdjustmentMethod.UNADJUSTED)
    probe = _per_side_n(closed_form_threshold(single, 1), target)
    try:
        design = template(probe)
    except ValueError:  # the template rejects the probe size
        guess = probe
    else:
        guess = _per_side_n((yield design), target)
    guess = min(guess, MAX_N)
    # invariant once bracketed: lo misses the target (or is 0), hi meets it
    step = 1
    if (yield from meets(guess)):
        hi = guess
        while True:
            lo = max(hi - step, 0)
            if lo == 0 or not (yield from meets(lo)):
                break
            hi, step = lo, step * 2
    else:
        lo = guess
        while True:
            if lo >= MAX_N:
                raise ValueError("no feasible sample size below the search cap")
            hi = min(lo + step, MAX_N)
            if (yield from meets(hi)):
                break
            lo, step = hi, step * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (yield from meets(mid)):
            hi = mid
        else:
            lo = mid
    return hi
