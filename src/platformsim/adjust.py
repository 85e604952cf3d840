"""Single-step multiplicity thresholds for comparison z-statistics."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .correlation import CorrelationMatrix, analytic_correlation
from .distributions import MvnSpec, Sidedness, dunnett_critical_values, normal_quantile


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


_DUNNETT_CACHE_SIZE = 4096
# (correlation, alpha, sidedness) -> Dunnett threshold, oldest first
_dunnett_cache: dict = {}


def _dunnett_thresholds(correlations, alpha: float, sidedness: Sidedness) -> list[float]:
    """Dunnett threshold of each matrix: cached ones are read, and the rest are
    solved in one ``dunnett_critical_values`` batch per dimension."""
    misses = {}  # dimension -> matrices to solve, without repeats
    for correlation in correlations:
        if (correlation, alpha, sidedness) not in _dunnett_cache:
            misses.setdefault(correlation.dim, {})[correlation] = None
    solved = {}
    for group in misses.values():
        loadings = [MvnSpec.from_correlation(c).factor_loadings for c in group]
        solved.update(zip(group, dunnett_critical_values(loadings, alpha, sidedness).tolist()))
    values = [
        solved[c] if c in solved else _dunnett_cache[(c, alpha, sidedness)] for c in correlations
    ]
    for correlation, value in solved.items():
        _dunnett_cache[(correlation, alpha, sidedness)] = value
        if len(_dunnett_cache) > _DUNNETT_CACHE_SIZE:
            del _dunnett_cache[next(iter(_dunnett_cache))]
    return values


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
        return _dunnett_thresholds([correlation], policy.alpha, policy.sidedness)[0]
    return closed_form_threshold(policy, correlation.dim)


def critical_values(requests) -> list[float]:
    """``critical_value`` of each (policy, design) request, in order.

    Unadjusted and Bonferroni thresholds read only the number of arms, so no
    correlation matrix is built for them. Dunnett thresholds use each
    design's ``analytic_correlation``; those not cached yet are solved
    together, one batch per (m, alpha, sidedness).
    """
    requests = list(requests)
    values = [None] * len(requests)
    dunnett = {}  # (alpha, sidedness) -> request indices
    for index, (policy, design) in enumerate(requests):
        if policy.method is AdjustmentMethod.DUNNETT:
            dunnett.setdefault((policy.alpha, policy.sidedness), []).append(index)
        else:
            values[index] = closed_form_threshold(policy, design.num_arms)
    for (alpha, sidedness), indices in dunnett.items():
        correlations = [analytic_correlation(requests[i][1]) for i in indices]
        for index, value in zip(indices, _dunnett_thresholds(correlations, alpha, sidedness)):
            values[index] = value
    return values
