"""Normal-distribution utilities and factor quadrature for shared-control comparisons.

Comparison statistics that share a control arm are correlated only through
that control, so their correlation matrix has the one-factor form of Dunnett
(1955): corr[i, j] = lambda_i * lambda_j off the diagonal. Fixed designs are
equicorrelated, and the staggered and budget designs have three arms, so
every design this package builds has that form. Given the shared factor the
comparisons are independent, and every joint probability becomes a
one-dimensional integral over the factor. One adaptive Gauss-Hermite kernel
evaluates it with one of two per-node reducers:

- the simultaneous coverage of the band and its slope in the threshold,
  whose root is the Dunnett threshold. The search is a bracketed Newton
  iteration in two runs: from the Sidak bound on the 64-node rule alone,
  then from that rule's root on the adaptive rule sequence, with a
  residual of at most 1e-6, usually in one adaptive evaluation. Matrices
  of one dimension are solved together: each keeps its own bracket, node
  count and stop, and every quadrature pass reduces each one on its own,
  so a threshold depends only on its matrix, not on what was solved
  before or beside it;
- the joint law of (false, true) rejections: per node, the outer product of
  the Poisson-binomial laws of the null and of the effective comparisons.
  FWER, k-FWER, PFER and disjunctive and conjunctive power all follow from
  it, and its zero-count entry is the band coverage.

A matrix without one-factor structure is rejected with an error.

Only numpy and the standard library are needed: Phi is math.erfc, its
inverse statistics.NormalDist.inv_cdf (Wichura's AS241), and the nodes come
from Newton's method on the Hermite recurrence. Each quadrature pass
evaluates one rule at one threshold c per problem and one side; two-sided
without a mean shift, the terms of -c are those of c at the mirrored node.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from .correlation import CorrelationMatrix
from .designs import _choice

STRUCTURE_TOL = 1e-12
_QUAD_STOP = 1e-9
# about 50 ulps of a coverage near 1: two converged rules differ by up to 5e-15
_COVERAGE_ROUNDING = 1e-14
_QUAD_NODE_COUNTS = (64, 128, 256, 512, 1024, 2048, 4096)
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = statistics.NormalDist()
# erfc arguments per Python list: a batched pass holds at most this many float objects
_ERFC_CHUNK = 4096


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
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Standard normal quantile; rejects probabilities outside (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie strictly between 0 and 1")
    return _STANDARD_NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class MvnSpec:
    """The one-factor loadings of a correlation matrix.

    ``factor_loadings`` holds the per-dimension loadings lambda_j, each
    below 1, with corr[i, j] = lambda_i * lambda_j for i != j.
    """

    factor_loadings: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.factor_loadings)

    @classmethod
    def from_correlation(cls, correlation: CorrelationMatrix) -> "MvnSpec":
        """The loadings of one matrix: ``_fit_factor_loadings`` of a batch of one."""
        return cls(tuple(_fit_factor_loadings([correlation.as_array()])[0].tolist()))


def _fit_factor_loadings(matrices) -> np.ndarray:
    """Loadings of a batch of m x m matrices, one row per matrix, in one array pass.

    A comparison with an off-diagonal entry above ``STRUCTURE_TOL`` is linked;
    the others get loading 0, even when their tiny entries would fit a nonzero
    one. A linked comparison j whose only linked partner is i gets
    lambda_j^2 = a[j, i]. With more partners, (i, k) is the pair of its
    partners with the largest a[i, k] (the first in row-major order) and
    lambda_j^2 = a[j, i] a[j, k] / a[i, k]. For a one-factor matrix those are
    its two strongest partners, so a tiny loading elsewhere cannot spoil the
    fit. Raises ``ValueError`` unless every matrix of the batch refits within
    ``STRUCTURE_TOL`` with every loading below 1 - 1e-9.
    """
    a = np.asarray(matrices, dtype=float)
    count, m, _ = a.shape
    off = ~np.eye(m, dtype=bool)
    linked = ((a > STRUCTURE_TOL) & off).any(axis=2)
    partners = linked[:, None, :] & off  # [., j, i]: i is a linked partner of j
    pairs = partners[..., :, None] & partners[..., None, :] & off  # [., j, i, k]
    best = np.where(pairs, a[:, None], -np.inf).reshape(count, m, m * m).argmax(axis=2)
    i, k = np.divmod(best, m)
    b, j = np.arange(count)[:, None], np.arange(m)
    # a negative ratio or a zero a[i, k] gives a nan or inf loading, which fails the check
    with np.errstate(all="ignore"):
        ratio = a[b, j, i] * a[b, j, k] / a[b, i, k]
        square = np.where(pairs.any(axis=(2, 3)), ratio, a[b, j, partners.argmax(axis=2)])
        lam = np.where(linked, np.sqrt(square), 0.0)
        error = np.abs(np.where(off, lam[:, :, None] * lam[:, None, :], 1.0) - a)
    if not ((error <= STRUCTURE_TOL).all() and (lam < 1.0 - 1e-9).all()):
        raise ValueError(
            "correlation matrix is not one-factor (corr[i, j] = lambda_i * lambda_j with "
            "every lambda_j < 1); Dunnett thresholds and exact rejection counts support "
            "only one-factor designs such as the fixed, staggered and budget designs"
        )
    return lam


@lru_cache(maxsize=None)
def _hermite_nodes(n: int):
    """Gauss-Hermite rule for the standard normal density (n even), without weights below 1e-20.

    Newton's method, from Tricomi's asymptotic nodes, finds the positive roots
    of He_n. It runs on the ratios r_k = p_k / p_(k-1) of the orthonormal
    recurrence p_(k+1) = (x p_k - sqrt(k) p_(k-1)) / sqrt(k+1), which cannot
    overflow: the step p_n / p_n' is r_n / sqrt(n) and the weight
    1 / (n p_(n-1)^2) is summed in logs. A node is dropped once its weight is
    below the cut; the poorly started ones near the edge sqrt(4n) all are.
    """
    half = np.arange(1, n // 2 + 1)
    nu = 2.0 * n + 1.0
    target = (2.0 * n - 4.0 * half + 3.0) * math.pi / nu
    tau = np.full(len(half), 0.5 * math.pi)
    for _ in range(5):
        tau -= (tau - np.sin(tau) - target) / (1.0 - np.cos(tau))
    sig = np.cos(0.5 * tau) ** 2
    x = np.sqrt(2.0 * nu * sig - (2.5 / (1.0 - sig) ** 2 - 2.0 / (1.0 - sig) - 0.5) / (3.0 * nu))
    root = np.sqrt(np.arange(n + 1.0))
    for _ in range(10):
        ratio, log_p = x, np.zeros(len(x))
        for k in range(1, n):
            log_p += np.log(np.abs(ratio))
            ratio = (x - root[k] / ratio) / root[k + 1]
        weights = np.exp(-math.log(n) - 2.0 * log_p)
        kept = weights >= 1e-20
        step = (ratio / root[n])[kept]
        x, weights = x[kept] - step, weights[kept]
        if np.abs(step).max() < 1e-14:
            break
    else:
        raise ConvergenceError(f"Gauss-Hermite nodes for n={n} did not converge")
    return np.concatenate([-x[::-1], x]), np.concatenate([weights[::-1], weights])


def _cdf_pair(h):
    """(Phi(h), Phi(-h)) per entry, both from one erfc of |h|."""
    scaled = (np.abs(h) / _SQRT2).ravel()
    tail = np.empty(h.size)
    for start in range(0, h.size, _ERFC_CHUNK):
        part = scaled[start : start + _ERFC_CHUNK].tolist()
        tail[start : start + len(part)] = np.fromiter(map(math.erfc, part), float, len(part))
    tail = 0.5 * tail.reshape(h.shape)
    positive = h > 0.0
    return np.where(positive, 1.0 - tail, tail), np.where(positive, tail, 1.0 - tail)


def _conditional(x, lam, scale, mu, c, two_sided):
    """Per problem (row), node and comparison: P_j = P(Z_j is not rejected | factor) and dP_j/dc.

    Z_j = mu_j + lam_j x + scale_j e_j with e_j independent standard normals,
    and it is not rejected when Z_j <= c, or -c <= Z_j <= c two-sided: when
    e_j <= hi_j, or lo_j <= e_j <= hi_j. The growth dP_j/dc is
    (phi(hi_j) + phi(lo_j)) / scale_j, without the phi(lo_j) one-sided.
    ``lam``, ``scale`` and ``mu`` hold one row per problem and ``c`` one
    threshold per problem; ``mu`` None means no mean shift. Two-sided without
    a shift, lo_j at node x is -hi_j at node -x: the nodes of hi reversed.
    """
    shifted = x[:, None] * lam[:, None, :]
    if mu is not None:
        shifted = mu[:, None, :] + shifted
    hi = (c[:, None, None] - shifted) / scale[:, None, :]
    below_hi, above_hi = _cdf_pair(hi)
    density = np.exp(-0.5 * hi * hi)
    if not two_sided:
        inside = below_hi
    elif mu is None:
        inside = below_hi - above_hi[:, ::-1]
        density = density + density[:, ::-1]
    else:
        lo = (-c[:, None, None] - shifted) / scale[:, None, :]
        inside = below_hi - _cdf_pair(lo)[0]
        density = density + np.exp(-0.5 * lo * lo)
    return np.clip(inside, 0.0, 1.0), density / (_SQRT_2PI * scale[:, None, :])


def _coverage_and_slope(inside, growth):
    """Per node: coverage and its derivative in the threshold c.

    P_j, the chance that comparison j is not rejected, grows with c at
    ``growth``, so the slope sums d P_j / dc times the other comparisons' P_k.
    """
    ones = np.ones(inside.shape[:-1] + (1,))
    before = np.cumprod(np.concatenate([ones, inside[..., :-1]], axis=-1), axis=-1)
    after = np.cumprod(np.concatenate([ones, inside[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    return np.prod(inside, axis=-1), (growth * before * after).sum(axis=-1)


def _poisson_binomial(outside):
    """Per node: law of how many comparisons are outside, from each one's chance of being outside."""
    dist = np.zeros(outside.shape[:-1] + (outside.shape[-1] + 1,))
    dist[..., 0] = 1.0
    for j in range(outside.shape[-1]):
        p = outside[..., j : j + 1]
        stay = 1.0 - p
        dist[..., 1:] = dist[..., 1:] * stay + dist[..., :-1] * p
        dist[..., :1] *= stay
    return dist


def _rejection_law(effective, inside, growth):
    """Per node: joint law of how many null (rows) and effective (columns) comparisons are outside.

    Given the factor the comparisons are independent, so the joint law is the
    outer product of the Poisson-binomial laws of the two groups.
    """
    outside = 1.0 - inside
    false = _poisson_binomial(outside[..., ~effective])
    true = _poisson_binomial(outside[..., effective])
    return (false[..., :, None] * true[..., None, :],)


def _factor_integral(
    lam: np.ndarray, reduce, c, two_sided: bool, mu=None, node_counts=_QUAD_NODE_COUNTS, stop=None
):
    """Integrals over the shared factor of the per-node parts ``reduce(inside, growth)`` returns.

    Each row of ``lam`` (and of ``mu``, and each threshold of ``c``; see
    ``_conditional``) is its own problem, all of one side, and each part comes back with one row per problem.
    Each pass evaluates the next Gauss-Hermite rule of ``node_counts``. A
    row leaves once its estimate of the first part agrees with the previous
    rule's to within 1e-9 in every entry (given ``stop``, within the per-row
    bar it maps the rule's parts to), and keeps the parts of the rule it
    leaves at; any later part (the coverage slope) is integrated on the same
    nodes. A row that never agrees keeps the last rule's parts, so one node
    count gives that one rule's integral. A row's result is the same
    whichever rows share its pass.
    """
    scale = np.sqrt(1.0 - lam * lam)
    index = np.arange(len(lam))  # the problem of each row still integrating
    out, previous = None, np.nan  # no row agrees at the first rule
    for n in node_counts:
        x, weights = _hermite_nodes(n)
        # one matrix product per row, never one across rows: a row gets the integral it gets alone
        parts = [
            (weights @ p.reshape(p.shape[:2] + (-1,))).reshape(p.shape[:1] + p.shape[2:])
            for p in reduce(*_conditional(x, lam, scale, mu, c, two_sided))
        ]
        if out is None:
            out = [np.empty_like(part) for part in parts]
        for total, part in zip(out, parts):
            total[index] = part
        gap = np.abs(parts[0] - previous).reshape(len(index), -1)
        bar = _QUAD_STOP if stop is None else stop(*parts)[:, None]
        keep = ~(gap < bar).all(axis=1)
        if not keep.any():
            break
        index, previous, lam, scale, c = index[keep], parts[0][keep], lam[keep], scale[keep], c[keep]
        mu = None if mu is None else mu[keep]
    return out


def _threshold_stop(coverage, slope):
    """Per row: the coverage gap between rules that moves neither the coverage nor the threshold by 1e-9.

    Near the root a coverage error e moves the threshold by e / slope, and
    the slope is about alpha times the threshold in the far tail, so a bar of
    1e-9 on the coverage alone can leave the threshold 1e-6 off at alpha 1e-6.
    The bar stays above ``_COVERAGE_ROUNDING``: below it a larger rule adds
    rounding, not accuracy.
    """
    return np.maximum(_QUAD_STOP * np.minimum(1.0, slope), _COVERAGE_ROUNDING)


def _newton(lam, alpha: float, two_sided: bool, c, low, high, node_counts, certified: bool):
    """Bracketed Newton iteration on the coverage of each row, from threshold ``c`` in [low, high].

    Coverage and slope come from ``_factor_integral`` over ``node_counts``,
    each row stopping at the ``_threshold_stop`` bar.
    A step that leaves the bracket is replaced by bisection; a row leaves
    once its step is below 1e-9. ``certified`` then requires its residual
    |coverage - (1 - alpha)| to be at most 1e-6 and raises if a row has not
    left within 100 iterations; otherwise the rows still iterating there
    return where they are. Returns one threshold per row.
    """
    solved = np.empty(len(c))
    index = np.arange(len(c))  # the matrix of each row still iterating
    for _ in range(100):
        coverage, slope = _factor_integral(
            lam, _coverage_and_slope, c, two_sided, node_counts=node_counts, stop=_threshold_stop
        )
        shortfall = coverage - (1.0 - alpha)
        short = shortfall < 0.0
        low = np.where(short, c, low)
        high = np.where(short, high, c)
        step = np.full(len(c), np.inf)
        np.divide(-shortfall, slope, out=step, where=slope > 0.0)
        bracketed = (low <= c + step) & (c + step <= high)
        step = np.where(bracketed, step, 0.5 * (low + high) - c)
        c = c + step
        done = np.abs(step) < 1e-9
        if done.any():
            if certified and (np.abs(shortfall[done]) > 1e-6).any():
                raise ConvergenceError("critical-value residual exceeds tolerance")
            solved[index[done]] = c[done]
            keep = ~done
            if not keep.any():
                return solved
            index, lam, low, high, c = index[keep], lam[keep], low[keep], high[keep], c[keep]
    if certified:
        raise ConvergenceError("critical-value search did not converge")
    solved[index] = c
    return solved


def dunnett_critical_values(loadings, alpha: float, sidedness: Sidedness = Sidedness.TWO_SIDED):
    """Dunnett thresholds of several one-factor matrices of one dimension, solved together.

    ``loadings`` holds one row of factor loadings per matrix. Each row's
    threshold is the smallest whose simultaneous coverage reaches 1 - alpha.
    Sidak's inequality (two-sided) and Slepian's (one-sided, with
    nonnegative loadings) give the Sidak threshold
    Phi^-1(1 - (1 - (1 - alpha)^(1/m)) / s), with s = 2 two-sided and 1
    one-sided, coverage at least 1 - alpha, and the per-comparison threshold
    has coverage at most 1 - alpha, so the two bracket the root. The search
    runs ``_newton`` twice. First, from the Sidak threshold, on the first
    rule of ``_QUAD_NODE_COUNTS`` alone, with its own copy of the bracket and
    no residual check; its root, clamped into the bracket, starts the second
    run, on the adaptive rule sequence and the original bracket. There a
    row's quadrature stops once the rule gap in coverage is below 1e-9 times
    min(1, slope), so it moves the threshold by less than 1e-9 too, and the
    rows stop at a step below 1e-9 with a residual |coverage - (1 - alpha)| of at
    most 1e-6. From that start the second run usually stops after one
    adaptive evaluation. The slope comes from the same quadrature as the
    coverage. All rows share one quadrature pass per iteration, and each
    row's path depends only on its loadings, alpha and the sidedness, so its
    threshold is the one it gets when solved alone, bit for bit, whatever
    was solved before or beside it. Returns an array with one threshold per
    row.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    lam = np.asarray(loadings, dtype=float)
    k, m = lam.shape
    two_sided = _choice("sidedness", Sidedness, sidedness) is Sidedness.TWO_SIDED
    sides = 2.0 if two_sided else 1.0
    low = np.full(k, normal_quantile(1.0 - alpha / sides))
    if m == 1:
        return low
    # Sidak: each comparison's tail is 1 - (1 - alpha)^(1/m), split over the sides
    high = np.full(k, -normal_quantile(-math.expm1(math.log1p(-alpha) / m) / sides))
    start = _newton(lam, alpha, two_sided, high, low, high, _QUAD_NODE_COUNTS[:1], certified=False)
    start = np.clip(start, low, high)
    return _newton(lam, alpha, two_sided, start, low, high, _QUAD_NODE_COUNTS, certified=True)


def rejection_law(
    spec: MvnSpec,
    mean_shifts,
    effective,
    critical_value: float,
    sidedness: Sidedness = Sidedness.TWO_SIDED,
) -> np.ndarray:
    """Exact joint law of false and true rejections across comparisons.

    ``effective[j]`` is True when comparison j's null hypothesis is false,
    so its rejection is a true one. Entry [f, t] of the (nulls + 1,
    effectives + 1) result is P(exactly f null and t effective comparisons
    reject); entry [0, 0] is the coverage of the band. Conditional on the
    shared factor the comparisons reject independently, so the law is the
    factor average of the outer product of two Poisson-binomial laws.
    """
    mu = np.asarray(mean_shifts, dtype=float)
    effective = np.asarray(effective, dtype=bool)
    if mu.shape != (spec.dim,):
        raise ValueError("mean shifts must match the spec dimension")
    if effective.shape != (spec.dim,):
        raise ValueError("the effective mask must match the spec dimension")
    c = np.array([float(critical_value)])
    two_sided = _choice("sidedness", Sidedness, sidedness) is Sidedness.TWO_SIDED
    lam = np.asarray([spec.factor_loadings])
    (law,) = _factor_integral(lam, partial(_rejection_law, effective), c, two_sided, mu[None])
    law = np.clip(law[0], 0.0, 1.0)
    return law / law.sum()


def rejection_count_pmf(
    spec: MvnSpec,
    mean_shifts,
    critical_value: float,
    sidedness: Sidedness = Sidedness.TWO_SIDED,
) -> np.ndarray:
    """Exact distribution of the number of rejections across comparisons.

    Entry k of the result is P(exactly k comparisons reject): the law of
    ``rejection_law`` with every comparison counted as null.
    """
    null = np.zeros(spec.dim, dtype=bool)
    return rejection_law(spec, mean_shifts, null, critical_value, sidedness)[:, 0]
