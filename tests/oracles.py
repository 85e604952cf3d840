"""Reference values and fixtures the tests compare the package against."""

import math

import numpy as np

from platformsim.adjust import critical_value
from platformsim.correlation import CorrelationMatrix, analytic_correlation
from platformsim.designs import ControlMode
from platformsim.distributions import MvnSpec, Sidedness, dunnett_critical_values, rejection_law
from platformsim.sample_size import comparison_mean_shifts, marginal_power


def equicorrelated_matrix(dim, rho):
    """Correlation matrix whose off-diagonal entries all equal ``rho``."""
    return CorrelationMatrix(
        tuple(tuple(1.0 if i == j else rho for j in range(dim)) for i in range(dim))
    )


def equicorrelated_spec(dim, rho):
    """One-factor spec whose off-diagonal correlations all equal ``rho``."""
    return MvnSpec.from_correlation(equicorrelated_matrix(dim, rho))


def dunnett_threshold(spec, alpha, sidedness=Sidedness.TWO_SIDED):
    """The Dunnett threshold of one spec: ``dunnett_critical_values`` for a batch of one."""
    return float(dunnett_critical_values([spec.factor_loadings], alpha, sidedness)[0])


def shared_control_count(design, arm_a, arm_b):
    """Control patients concurrent to both arms' recruitment windows."""
    if arm_a == arm_b:
        raise ValueError("shared control count needs two distinct arms")
    both = set(design.active_periods(arm_a)) & set(design.active_periods(arm_b))
    if design.control_mode is ControlMode.INDIVIDUAL:
        return 0
    return sum(design.recruitment[0][t] for t in both)


def rejection_counts(rejected, effective, kfwer_levels=(1,)):
    """Keyword arguments of ``characteristics_from_counts``, counted row by row.

    ``rejected`` is a (replications, comparisons) boolean matrix and
    ``effective[j]`` is True when arm j's null hypothesis is false, so a
    rejection there is a true rejection. The joint table has one row per
    number of false rejections and one column per number of true ones.
    """
    rejected = np.asarray(rejected, dtype=bool)
    effective = np.asarray(effective, dtype=bool)
    false_counts = rejected[:, ~effective].sum(axis=1)
    true_counts = rejected[:, effective].sum(axis=1)
    joint = np.zeros(((~effective).sum() + 1, effective.sum() + 1), dtype=np.int64)
    np.add.at(joint, (false_counts, true_counts), 1)
    return dict(
        reps=len(rejected),
        joint=joint,
        per_arm_rejections=rejected.sum(axis=0),
        effective=effective,
        kfwer_levels=kfwer_levels,
    )


def exact_cells(design, effects, policy, kfwer_levels):
    """Exact (value, variance per replication) of every estimate a scenario reports.

    The keys are the names ``OperatingCharacteristics.estimates()`` reports,
    in its order. Given the shared factor the comparisons are independent, so
    the scenario has an exact joint law of (false, true) rejections,
    ``rejection_law``: FWER, k-FWER (at each level above 1) and PFER come
    from its false marginal, disjunctive and conjunctive power from its true
    marginal, and each effective arm's marginal power has the closed form
    ``marginal_power``. The threshold, the law and the marginal powers all
    take the policy's alpha and sidedness.
    """
    effects = np.asarray(effects, dtype=float)
    effective = effects != 0.0
    correlation = analytic_correlation(design)
    threshold = critical_value(policy, correlation)
    law = rejection_law(
        MvnSpec.from_correlation(correlation),
        comparison_mean_shifts(design, effects),
        effective,
        threshold,
        policy.sidedness,
    )
    false, true = law.sum(axis=1), law.sum(axis=0)

    def proportion(p):  # an indicator's mean and variance
        return p, p * (1.0 - p)

    counts = np.arange(len(false))
    pfer = counts @ false
    cells = {"fwer": proportion(1.0 - false[0])}
    cells.update(
        {f"kfwer_{k}": proportion(false[k:].sum()) for k in sorted(set(kfwer_levels)) if k > 1}
    )
    cells["pfer"] = (pfer, counts**2 @ false - pfer * pfer)
    for arm in map(int, np.flatnonzero(effective)):
        cells[f"marginal_power_{arm + 1}"] = proportion(
            marginal_power(
                *design.comparison_sizes(arm), float(effects[arm]), threshold, policy.sidedness
            )
        )
    if effective.any():
        cells["disjunctive_power"] = proportion(1.0 - true[0])
        cells["conjunctive_power"] = proportion(true[-1])
    return cells


def z_score(estimate, exact, variance, reps):
    """How many standard errors ``estimate`` of ``reps`` replications lies from ``exact``.

    The standard error is the exact one, sqrt(variance / reps), floored at
    1 / reps so that a rare event stays checkable.
    """
    return (estimate - exact) / max(math.sqrt(max(variance, 0.0) / reps), 1.0 / reps)
