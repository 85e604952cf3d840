"""Correlation of comparison test statistics induced by a shared control arm.

Two z-statistics that compare different treatment arms against overlapping
sets of control patients are positively correlated. The analytic form
follows from the covariance of the two control means restricted to the
overlap window and is verified empirically by simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .designs import PlatformDesign


@dataclass(frozen=True)
class CorrelationMatrix:
    """Square matrix of pairwise comparison correlations.

    The constructor checks only the shape. Every Dunnett threshold and exact
    rejection law reads the matrix through ``_fit_factor_loadings``, which
    refuses it unless it has the one-factor form of Dunnett (1955) within
    1e-12. A matrix of that form is finite, symmetric and positive
    semidefinite, with a unit diagonal and entries in [0, 1]. Stored as
    nested tuples so instances are hashable (threshold caches key on them).
    """

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        a = self.as_array()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("correlation matrix must be square")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)


@lru_cache(maxsize=None)
def analytic_correlation(design: PlatformDesign) -> CorrelationMatrix:
    """Correlation matrix of the comparison z-statistics for a design.

    Two comparisons share control patients only when their control rows
    (``PlatformDesign.arm_rows``) are the same row; every other pair is
    uncorrelated, so individual controls give the identity. For a shared
    control row, the correlation equals the control count concurrent to
    both arms divided by the product of the concurrent control counts,
    rescaled by both statistics' standard errors. Raises if some arm has no
    concurrent control patients. Each design's matrix is computed once per
    process and then read from a cache.
    """
    m = design.num_arms
    # n0_j^2 (1/n_j + 1/n0_j) as an exact rational, so that integer-valued
    # denominators (the usual equal-allocation cases) stay exact in floats
    factor = [
        Fraction(n_control) + Fraction(n_control * n_control, n_treat)
        for n_treat, n_control in map(design.comparison_sizes, range(m))
    ]
    controls = [design.arm_rows(j)[1] for j in range(m)]
    active = [set(design.active_periods(j)) for j in range(m)]
    rows = [[1.0 if a == b else 0.0 for b in range(m)] for a in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            if controls[a] != controls[b]:
                continue
            # control patients concurrent to both arms; the exact product
            # factor[a] * factor[b] is symmetric, so one entry serves both
            control = design.recruitment[controls[a]]
            overlap = sum(control[t] for t in active[a] & active[b])
            rows[a][b] = rows[b][a] = overlap / math.sqrt(factor[a] * factor[b])
    return CorrelationMatrix(tuple(tuple(row) for row in rows))
