"""Single-step multiplicity thresholds for comparison z-statistics."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .correlation import CorrelationMatrix
from .distributions import MvnSpec, Sidedness, dunnett_critical_value, normal_quantile


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


@lru_cache(maxsize=4096)
def _dunnett_threshold(correlation: CorrelationMatrix, alpha: float, sidedness: Sidedness) -> float:
    return dunnett_critical_value(MvnSpec.from_correlation(correlation), alpha, sidedness)


def critical_value(policy: AdjustmentPolicy, correlation: CorrelationMatrix) -> float:
    """Common rejection threshold the policy applies to every comparison."""
    m = correlation.dim
    tail = policy.alpha / 2.0 if policy.sidedness is Sidedness.TWO_SIDED else policy.alpha
    if policy.method is AdjustmentMethod.UNADJUSTED:
        return normal_quantile(1.0 - tail)
    if policy.method is AdjustmentMethod.BONFERRONI:
        return normal_quantile(1.0 - tail / m)
    return _dunnett_threshold(correlation, policy.alpha, policy.sidedness)
