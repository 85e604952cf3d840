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

import numpy as np

from .designs import ControlMode, PlatformDesign

PSD_FLOOR = -1e-10
_ENTRY_TOL = 1e-9


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric matrix of pairwise comparison correlations.

    Entries live in [0, 1] with a unit diagonal; the matrix must be positive
    semidefinite up to a small tolerance so it can back a valid joint normal
    law. Stored as nested tuples so instances are hashable (threshold caches
    key on them).
    """

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        a = self.as_array()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("correlation matrix must be square")
        if not np.all(np.isfinite(a)):
            raise ValueError("correlation entries must be finite")
        # entries are finite here, so these are np.allclose(..., rtol=0) tests
        if np.abs(a - a.T).max() > _ENTRY_TOL:
            raise ValueError("correlation matrix must be symmetric")
        if np.abs(np.diag(a) - 1.0).max() > _ENTRY_TOL:
            raise ValueError("correlation matrix must have a unit diagonal")
        if a.min() < -_ENTRY_TOL or a.max() > 1.0 + _ENTRY_TOL:
            raise ValueError("correlation entries must lie in [0, 1]")
        if np.linalg.eigvalsh(a).min() < PSD_FLOOR:
            raise ValueError("correlation matrix is not positive semidefinite")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    def entry(self, i: int, j: int) -> float:
        return self.entries[i][j]

    def submatrix(self, indices) -> "CorrelationMatrix":
        idx = list(indices)
        return CorrelationMatrix(
            tuple(tuple(self.entries[i][j] for j in idx) for i in idx)
        )

    @classmethod
    def identity(cls, dim: int) -> "CorrelationMatrix":
        if dim < 1:
            raise ValueError("dimension must be positive")
        return cls(tuple(tuple(1.0 if i == j else 0.0 for j in range(dim)) for i in range(dim)))

    @classmethod
    def from_array(cls, a) -> "CorrelationMatrix":
        arr = np.asarray(a, dtype=float)
        return cls(tuple(tuple(float(x) for x in row) for row in arr))


def analytic_correlation(design: PlatformDesign) -> CorrelationMatrix:
    """Correlation matrix of the comparison z-statistics for a design.

    With individual controls the comparisons are independent and the result
    is the identity. With a common control, the correlation of two
    comparisons equals the shared control count divided by the product of
    the concurrent control counts, rescaled by both statistics' standard
    errors. Raises if some arm has no concurrent control patients.
    """
    m = design.num_arms
    if design.control_mode is ControlMode.INDIVIDUAL:
        return CorrelationMatrix.identity(m)
    treat = [design.treatment_total(j) for j in range(m)]
    conc = [design.concurrent_control_count(j) for j in range(m)]
    for j, count in enumerate(conc):
        if count == 0:
            raise ValueError(f"arm {j} has no concurrent control patients")
    # n0_j^2 (1/n_j + 1/n0_j) as an exact rational, so that integer-valued
    # denominators (the usual equal-allocation cases) stay exact in floats
    factor = [Fraction(conc[j]) + Fraction(conc[j] * conc[j], treat[j]) for j in range(m)]
    control = design.recruitment[0]
    active = [set(design.active_periods(j)) for j in range(m)]
    rows = [[1.0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            # same overlap as design.shared_control_count(a, b); the exact
            # product factor[a] * factor[b] is symmetric, so one entry serves both
            overlap = sum(control[t] for t in active[a] & active[b])
            rows[a][b] = rows[b][a] = overlap / math.sqrt(factor[a] * factor[b])
    return CorrelationMatrix(tuple(tuple(row) for row in rows))


def equal_recruitment_correlation(n_control: int, n_first: int, n_second: int) -> float:
    """Pairwise correlation when both arms share the whole control window."""
    return 1.0 / math.sqrt((n_control / n_first + 1.0) * (n_control / n_second + 1.0))


def late_entry_pair_correlation(n_before: int, n_shared: int, n_after: int) -> float:
    """Correlation of an early and a late comparison with equal per-period overlap.

    ``n_before`` controls precede the late arm, ``n_shared`` are concurrent to
    both comparisons and ``n_after`` follow the early arms' close-out; each
    treatment arm matches its concurrent controls period by period.
    """
    return 0.5 * n_shared / math.sqrt((n_before + n_shared) * (n_shared + n_after))


def empirical_correlation(
    design: PlatformDesign,
    effects,
    reps: int = 100_000,
    seed: int = 42,
    mode=None,
) -> np.ndarray:
    """Sample Pearson correlation of simulated per-replication z-vectors."""
    if reps < 10_000:
        raise ValueError("need at least 10,000 replications for a stable estimate")
    from . import engine  # local import: engine depends on this module

    if mode is None:
        mode = engine.SimulationMode.SUFFICIENT_STATISTIC
    m = design.num_arms
    total = np.zeros(m)
    cross = np.zeros((m, m))
    for block in engine.iter_zstat_blocks(design, effects, reps, seed, mode=mode):
        total += block.sum(axis=0)
        cross += block.T @ block
    mean = total / reps
    cov = cross / reps - np.outer(mean, mean)
    sd = np.sqrt(np.diag(cov))
    return cov / np.outer(sd, sd)
