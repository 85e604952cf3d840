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
A matrix without one-factor structure is rejected with an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .correlation import CorrelationMatrix

STRUCTURE_TOL = 1e-12
_QUAD_STOP = 1e-9
_QUAD_NODE_COUNTS = (64, 128, 256, 512, 1024, 2048, 4096)


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

    @classmethod
    def equicorrelated(cls, dim: int, rho: float) -> "MvnSpec":
        if dim < 1:
            raise ValueError("dimension must be positive")
        if not 0.0 <= rho < 1.0:
            raise ValueError("common correlation must lie in [0, 1)")
        entries = tuple(
            tuple(1.0 if i == j else rho for j in range(dim)) for i in range(dim)
        )
        return cls.from_correlation(CorrelationMatrix(entries))


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
    return x, w / math.sqrt(2.0 * math.pi)


def _inside(x, lam, scale, mu, lower, upper) -> np.ndarray:
    """P(lower <= Z_j <= upper | factor = x) per node (rows) and comparison (columns).

    Z_j = mu_j + lam_j x + scale_j e_j with e_j independent standard normals.
    ``mu`` None means no mean shift and ``lower`` None an open lower end.
    """
    shifted = x[:, None] * lam
    if mu is not None:
        shifted = mu + shifted
    inside = special.ndtr((upper - shifted) / scale)
    if lower is not None:
        inside = inside - special.ndtr((lower - shifted) / scale)
    return inside


def _all_inside(inside: np.ndarray) -> np.ndarray:
    """Per node: P(every comparison stays inside its bounds)."""
    return np.prod(np.clip(inside, 0.0, 1.0), axis=1)


def _count_law(inside: np.ndarray) -> np.ndarray:
    """Per node: Poisson-binomial law of the number of comparisons outside."""
    outside = np.clip(1.0 - inside, 0.0, 1.0)
    dist = np.zeros((len(outside), outside.shape[1] + 1))
    dist[:, 0] = 1.0
    for p in outside.T[:, :, None]:
        stay = 1.0 - p
        dist[:, 1:] = dist[:, 1:] * stay + dist[:, :-1] * p
        dist[:, :1] *= stay
    return dist


def _factor_integral(lam: np.ndarray, reduce, lower, upper, mu=None):
    """Integral of ``reduce(inside probabilities)`` over the shared factor.

    The Gauss-Hermite node count doubles until two successive estimates
    agree to within 1e-9 in every entry.
    """
    scale = np.sqrt(1.0 - lam * lam)
    previous = None
    for n in _QUAD_NODE_COUNTS:
        x, w = _hermite_nodes(n)
        estimate = w @ reduce(_inside(x, lam, scale, mu, lower, upper))
        if previous is not None and np.all(abs(estimate - previous) < _QUAD_STOP):
            break
        previous = estimate
    return estimate


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
        return float(_all_inside(_inside(np.zeros(1), lam, 1.0, None, lower, upper))[0])
    estimate = _factor_integral(lam, _all_inside, lower, upper)
    return min(max(float(estimate), 0.0), 1.0)


def dunnett_critical_value(
    spec: MvnSpec,
    alpha: float,
    sidedness: Sidedness = Sidedness.TWO_SIDED,
) -> float:
    """Smallest threshold whose simultaneous coverage reaches 1 - alpha.

    The bracketing interval is [per-comparison threshold, Bonferroni
    threshold]; coverage is monotone in the threshold, so a Brent root
    search converges, and the residual |coverage - (1 - alpha)| stays below
    1e-6.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    m = spec.dim
    two_sided = sidedness is Sidedness.TWO_SIDED
    tail = alpha / 2.0 if two_sided else alpha
    low = normal_quantile(1.0 - tail)
    if m == 1:
        return low
    high = normal_quantile(1.0 - tail / m)
    target = 1.0 - alpha

    def objective(c):
        return factor_rectangle_probability(spec, -c if two_sided else None, c) - target

    f_low = objective(low)
    if f_low >= 0.0:
        return low
    f_high = objective(high)
    widened = 0
    while f_high < 0.0:
        # Bonferroni bound should already cover; allow a little numerical slack
        widened += 1
        if widened > 3:
            raise ConvergenceError("failed to bracket the critical value")
        high += 0.25
        f_high = objective(high)
    try:
        root = brentq(objective, low, high, xtol=1e-12, rtol=8.9e-16, maxiter=200)
    except RuntimeError as exc:
        raise ConvergenceError(f"critical-value search did not converge: {exc}") from exc
    if abs(objective(root)) > 1e-6:
        raise ConvergenceError("critical-value residual exceeds tolerance")
    return float(root)


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
    pmf = np.clip(_factor_integral(lam, _count_law, lower, critical_value, mu), 0.0, 1.0)
    return pmf / pmf.sum()
