"""Single-step multiplicity thresholds for comparison z-statistics."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .correlation import CorrelationMatrix, analytic_correlation
from .distributions import Sidedness, _fit_factor_loadings, dunnett_critical_values, normal_quantile


class AdjustmentMethod(Enum):
    UNADJUSTED = "unadjusted"
    BONFERRONI = "bonferroni"
    DUNNETT = "dunnett"


@dataclass(frozen=True)
class AdjustmentPolicy:
    """A multiplicity rule: which threshold each |z| is compared against."""

    method: AdjustmentMethod
    alpha: float = 0.05
    sidedness: Sidedness = Sidedness.TWO_SIDED

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")


# (correlation, alpha, sidedness) -> Dunnett threshold, kept for the process
# as analytic_correlation's memo keeps its matrices
_dunnett_cache: dict = {}


def _dunnett_thresholds(keys) -> list[float]:
    """Dunnett threshold of each (correlation, alpha, sidedness) key, in order.

    Keys not cached yet are grouped once, by (dimension, alpha, sidedness),
    without repeats; each group's matrices are fitted in one
    ``_fit_factor_loadings`` pass and solved in one
    ``dunnett_critical_values`` call, and the thresholds are cached.
    """
    misses = {}  # (dimension, alpha, sidedness) -> keys to solve, without repeats
    for key in keys:
        if key not in _dunnett_cache:
            correlation, alpha, sidedness = key
            misses.setdefault((correlation.dim, alpha, sidedness), {})[key] = None
    for (_, alpha, sidedness), group in misses.items():
        loadings = _fit_factor_loadings([correlation.as_array() for correlation, _, _ in group])
        values = dunnett_critical_values(loadings, alpha, sidedness).tolist()
        _dunnett_cache.update(zip(group, values))
    return [_dunnett_cache[key] for key in keys]


def closed_form_threshold(policy: AdjustmentPolicy, m: int) -> float:
    """Threshold of an unadjusted or Bonferroni policy over ``m`` comparisons."""
    if policy.method is AdjustmentMethod.DUNNETT:
        raise ValueError("a Dunnett threshold needs the comparisons' correlation matrix")
    tail = policy.alpha / 2.0 if policy.sidedness is Sidedness.TWO_SIDED else policy.alpha
    if policy.method is AdjustmentMethod.BONFERRONI:
        tail /= m
    return normal_quantile(1.0 - tail)


def critical_value(policy: AdjustmentPolicy, correlation: CorrelationMatrix) -> float:
    """Common rejection threshold the policy applies to every comparison."""
    if policy.method is AdjustmentMethod.DUNNETT:
        return _dunnett_thresholds([(correlation, policy.alpha, policy.sidedness)])[0]
    return closed_form_threshold(policy, correlation.dim)


def critical_values(requests) -> list[float]:
    """``critical_value`` of each (policy, design) request, in order.

    Unadjusted and Bonferroni thresholds read only the number of arms, so no
    correlation matrix is built for them. Each Dunnett request becomes one
    (``analytic_correlation``, alpha, sidedness) key, and one
    ``_dunnett_thresholds`` call answers them all: the keys not cached yet
    are fitted and solved together, one batch per (m, alpha, sidedness).
    """
    requests = list(requests)
    dunnett = iter(_dunnett_thresholds([
        (analytic_correlation(design), policy.alpha, policy.sidedness)
        for policy, design in requests
        if policy.method is AdjustmentMethod.DUNNETT
    ]))
    return [
        next(dunnett) if policy.method is AdjustmentMethod.DUNNETT
        else closed_form_threshold(policy, design.num_arms)
        for policy, design in requests
    ]
