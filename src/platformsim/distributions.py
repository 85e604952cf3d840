"""Normal-distribution utilities and factor quadrature for shared-control comparisons.

Comparison statistics that share a control arm are correlated only through
that control, so their correlation matrix has the one-factor form of Dunnett
(1955): corr[i, j] = lambda_i * lambda_j off the diagonal. Fixed designs are
equicorrelated, and the staggered and budget designs have three arms, so
every design this package builds has that form. Given the shared factor the
comparisons are independent, and every joint probability becomes a
one-dimensional integral over the factor. One adaptive Gauss-Hermite kernel
evaluates it for both uses here: the simultaneous coverage whose root is the
Dunnett threshold, and the Poisson-binomial law of the number of rejections.
The same nodes give the coverage's slope, so the threshold is found by a
bracketed Newton iteration started at the Sidak bound, with a residual of at
most 1e-6; it depends only on the matrix, not on what was solved before. A
matrix without one-factor structure is rejected with an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy import special

from .correlation import CorrelationMatrix

STRUCTURE_TOL = 1e-12
_QUAD_STOP = 1e-9
_QUAD_NODE_COUNTS = (64, 128, 256, 512, 1024, 2048, 4096)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class ConvergenceError(RuntimeError):
    """A root search or integration did not reach its accuracy target."""


class Sidedness(Enum):
    ONE_SIDED = "one_sided"
    TWO_SIDED = "two_sided"


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("argument must be finite")
    return float(special.ndtr(x))


def normal_quantile(p: float) -> float:
    """Standard normal quantile; rejects probabilities outside (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie strictly between 0 and 1")
    return float(special.ndtri(p))


@dataclass(frozen=True)
class MvnSpec:
    """A correlation matrix together with its one-factor loadings.

    ``factor_loadings`` holds the per-dimension loadings lambda_j, each
    below 1, with corr[i, j] = lambda_i * lambda_j for i != j.
    """

    correlation: CorrelationMatrix
    factor_loadings: tuple[float, ...]

    @property
    def dim(self) -> int:
        return self.correlation.dim

    @classmethod
    def from_correlation(cls, correlation: CorrelationMatrix) -> "MvnSpec":
        loadings = _fit_factor_loadings(correlation.as_array())
        if loadings is None:
            raise ValueError(
                "correlation matrix is not one-factor (corr[i, j] = lambda_i * lambda_j with "
                "every lambda_j < 1); Dunnett thresholds and exact rejection counts support "
                "only one-factor designs such as the fixed, staggered and budget designs"
            )
        return cls(correlation, loadings)


def _fit_factor_loadings(a: np.ndarray):
    """Loadings lambda with a[i, j] = lambda_i lambda_j off-diagonal, or None.

    Comparisons without a positive correlation get loading 0; the rest must
    form one factor, and each loading is solved from two others.
    """
    m = len(a)
    positive = a > STRUCTURE_TOL
    np.fill_diagonal(positive, False)
    linked = np.flatnonzero(positive.any(axis=1))
    lam = np.zeros(m)
    if len(linked) == 2:
        i, j = linked
        lam[i] = lam[j] = math.sqrt(a[i, j])
    elif len(linked) > 2:
        for j in linked:
            i, k = [x for x in linked if x != j][:2]
            if a[i, k] <= STRUCTURE_TOL:
                return None
            ratio = a[j, i] * a[j, k] / a[i, k]
            if ratio < 0.0:
                return None
            lam[j] = math.sqrt(ratio)
    fitted = np.outer(lam, lam)
    np.fill_diagonal(fitted, 1.0)
    if np.max(np.abs(fitted - a)) > STRUCTURE_TOL or lam.max() >= 1.0 - 1e-9:
        return None
    return tuple(float(x) for x in lam)


@lru_cache(maxsize=None)
def _hermite_nodes(n: int):
    x, w = special.roots_hermitenorm(n)
    return x, w / _SQRT_2PI


def _bounds(x, lam, scale, mu, lower, upper):
    """Standardized bounds (hi, lo) of each comparison's own noise given the factor.

    Z_j = mu_j + lam_j x + scale_j e_j with e_j independent standard normals,
    so lower <= Z_j <= upper exactly when lo <= e_j <= hi; rows are nodes and
    columns comparisons. ``mu`` None means no mean shift and ``lower`` None an
    open lower end (lo None).
    """
    shifted = x[:, None] * lam
    if mu is not None:
        shifted = mu + shifted
    lo = None if lower is None else (lower - shifted) / scale
    return (upper - shifted) / scale, lo


def _inside(hi, lo) -> np.ndarray:
    """P(lo <= e_j <= hi) per node and comparison."""
    inside = special.ndtr(hi)
    if lo is not None:
        inside = inside - special.ndtr(lo)
    return inside


def _all_inside(hi, lo, scale):
    """Per node: P(every comparison stays inside its bounds)."""
    return (np.prod(np.clip(_inside(hi, lo), 0.0, 1.0), axis=1),)


def _coverage_and_slope(hi, lo, scale):
    """Per node: coverage and its derivative in the threshold c.

    The bounds are upper = c and lower = -c or open, so d P_j / dc is
    (phi(hi_j) + phi(lo_j)) / scale_j, times the other comparisons' P_k.
    """
    inside = np.clip(_inside(hi, lo), 0.0, 1.0)
    density = np.exp(-0.5 * hi * hi)
    if lo is not None:
        density = density + np.exp(-0.5 * lo * lo)
    ones = np.ones((len(inside), 1))
    before = np.cumprod(np.hstack([ones, inside[:, :-1]]), axis=1)
    after = np.cumprod(np.hstack([ones, inside[:, :0:-1]]), axis=1)[:, ::-1]
    slope = (density / (_SQRT_2PI * scale) * before * after).sum(axis=1)
    return np.prod(inside, axis=1), slope


def _count_law(hi, lo, scale):
    """Per node: Poisson-binomial law of the number of comparisons outside."""
    outside = np.clip(1.0 - _inside(hi, lo), 0.0, 1.0)
    dist = np.zeros((len(outside), outside.shape[1] + 1))
    dist[:, 0] = 1.0
    for p in outside.T[:, :, None]:
        stay = 1.0 - p
        dist[:, 1:] = dist[:, 1:] * stay + dist[:, :-1] * p
        dist[:, :1] *= stay
    return (dist,)


def _factor_integral(lam: np.ndarray, reduce, lower, upper, mu=None):
    """Integrals over the shared factor of the per-node parts ``reduce(hi, lo, scale)`` returns.

    The Gauss-Hermite node count doubles until two successive estimates of
    the first part agree to within 1e-9 in every entry; any later part (the
    coverage slope) is integrated on the same nodes.
    """
    scale = np.sqrt(1.0 - lam * lam)
    previous = None
    for n in _QUAD_NODE_COUNTS:
        x, w = _hermite_nodes(n)
        estimates = [w @ part for part in reduce(*_bounds(x, lam, scale, mu, lower, upper), scale)]
        if previous is not None and np.all(abs(estimates[0] - previous) < _QUAD_STOP):
            break
        previous = estimates[0]
    return estimates


def factor_rectangle_probability(spec: MvnSpec, lower, upper) -> float:
    """P(lower_j <= Z_j <= upper_j for every j) for Z ~ N(0, spec.correlation).

    Bounds are scalars or length-``dim`` vectors; ``lower`` None leaves the
    lower end open. The absolute error stays well below 1e-8.
    """
    for bound in (lower, upper):
        if np.ndim(bound) and np.shape(bound) != (spec.dim,):
            raise ValueError("bound vectors must match the spec dimension")
    lam = np.asarray(spec.factor_loadings)
    if not lam.any():
        # independent comparisons: the integrand is constant, so one node is exact
        return float(_all_inside(*_bounds(np.zeros(1), lam, 1.0, None, lower, upper), 1.0)[0][0])
    (estimate,) = _factor_integral(lam, _all_inside, lower, upper)
    return min(max(float(estimate), 0.0), 1.0)


def dunnett_critical_value(
    spec: MvnSpec,
    alpha: float,
    sidedness: Sidedness = Sidedness.TWO_SIDED,
) -> float:
    """Smallest threshold whose simultaneous coverage reaches 1 - alpha.

    Newton's method on the coverage, started at the Sidak threshold
    Phi^-1(1 - (1 - (1 - alpha)^(1/m)) / s), with s = 2 two-sided and 1
    one-sided. Sidak's inequality (two-sided) and Slepian's (one-sided, with
    nonnegative loadings) give that threshold coverage at least 1 - alpha,
    and the per-comparison threshold has coverage at most 1 - alpha, so the
    two bracket the root. The slope comes from the same quadrature as the
    coverage. A step that leaves the bracket is replaced by bisection, the
    search stops when a step is below 1e-9, and the residual
    |coverage - (1 - alpha)| must be at most 1e-6. The start depends only on
    (m, alpha, sidedness), so a threshold is a pure function of its matrix,
    whatever was solved before it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    m = spec.dim
    two_sided = sidedness is Sidedness.TWO_SIDED
    sides = 2.0 if two_sided else 1.0
    low = normal_quantile(1.0 - alpha / sides)
    if m == 1:
        return low
    # Sidak: each comparison's tail is 1 - (1 - alpha)^(1/m), split over the sides
    high = -float(special.ndtri(-math.expm1(math.log1p(-alpha) / m) / sides))
    lam = np.asarray(spec.factor_loadings)
    c = high
    for _ in range(100):
        coverage, slope = _factor_integral(lam, _coverage_and_slope, -c if two_sided else None, c)
        shortfall = float(coverage) - (1.0 - alpha)
        if shortfall < 0.0:
            low = c
        else:
            high = c
        step = -shortfall / slope if slope > 0.0 else math.inf
        if not low <= c + step <= high:
            step = 0.5 * (low + high) - c
        c += step
        if abs(step) < 1e-9:
            break
    else:
        raise ConvergenceError("critical-value search did not converge")
    if abs(shortfall) > 1e-6:
        raise ConvergenceError("critical-value residual exceeds tolerance")
    return float(c)


def rejection_count_pmf(
    spec: MvnSpec,
    mean_shifts,
    critical_value: float,
    sidedness: Sidedness = Sidedness.TWO_SIDED,
) -> np.ndarray:
    """Exact distribution of the number of rejections across comparisons.

    Conditional on the shared factor the comparisons reject independently,
    so the rejection count follows a Poisson-binomial law averaged over the
    factor. Entry k of the result is P(exactly k comparisons reject).
    """
    mu = np.asarray(mean_shifts, dtype=float)
    if mu.shape != (spec.dim,):
        raise ValueError("mean shifts must match the spec dimension")
    lower = -critical_value if sidedness is Sidedness.TWO_SIDED else None
    lam = np.asarray(spec.factor_loadings)
    (pmf,) = _factor_integral(lam, _count_law, lower, critical_value, mu)
    pmf = np.clip(pmf, 0.0, 1.0)
    return pmf / pmf.sum()
