"""Reference counts the tests compare the engine against."""

import numpy as np


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
