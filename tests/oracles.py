"""Reference values and fixtures the tests compare the package against."""

import numpy as np

from platformsim.correlation import CorrelationMatrix
from platformsim.designs import ControlMode
from platformsim.distributions import MvnSpec, Sidedness, dunnett_critical_values


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
    rejection there is a true rejection. Level 1 is always counted.
    """
    rejected = np.asarray(rejected, dtype=bool)
    effective = np.asarray(effective, dtype=bool)
    false_counts = rejected[:, ~effective].sum(axis=1)
    true_counts = rejected[:, effective].sum(axis=1)
    return dict(
        reps=len(rejected),
        num_comparisons=effective.size,
        effective=effective,
        kfwer_counts={k: int((false_counts >= k).sum()) for k in set(kfwer_levels) | {1}},
        false_rejection_sum=int(false_counts.sum()),
        false_rejection_sq_sum=int((false_counts * false_counts).sum()),
        disjunctive_count=int((true_counts >= 1).sum()),
        conjunctive_count=int((true_counts == effective.sum()).sum()),
        per_arm_rejections=rejected.sum(axis=0),
    )
