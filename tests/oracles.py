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
