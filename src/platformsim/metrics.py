"""Aggregate operating characteristics from replication-level counts.

Each replication of a multi-arm trial yields a vector of rejection
decisions. The engine counts false and true rejections per replication;
averaging those counts over replications gives the family-wise error
rates, the expected number of false rejections and the power summaries,
each with a Monte Carlo standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Estimate(NamedTuple):
    """A Monte Carlo estimate paired with its standard error."""

    value: float
    se: float


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Aggregated error and power estimates over a batch of replications.

    Power fields are None under the global null (no effective arms), and
    ``marginal_power`` entries are None for arms whose null is true.
    """

    reps: int
    fwer: Estimate
    kfwer: dict[int, Estimate]
    pfer: Estimate
    marginal_power: tuple[Estimate | None, ...] | None
    disjunctive_power: Estimate | None
    conjunctive_power: Estimate | None

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("need at least one replication")
        for k, est in self.kfwer.items():
            if k < 1:
                raise ValueError("k-FWER levels must be at least 1")
            if not 0.0 <= est.value <= 1.0:
                raise ValueError(f"k-FWER estimate for k={k} outside [0, 1]")
        levels = sorted(self.kfwer)
        for a, b in zip(levels, levels[1:]):
            if self.kfwer[a].value < self.kfwer[b].value:
                raise ValueError("k-FWER must be non-increasing in k")
        if 1 in self.kfwer and self.kfwer[1].value != self.fwer.value:
            raise ValueError("FWER must equal the k-FWER at k=1")
        if self.pfer.value < 0.0:
            raise ValueError("PFER cannot be negative")

    def to_dict(self) -> dict:
        def enc(est):
            return None if est is None else {"value": est.value, "se": est.se}

        return {
            "reps": self.reps,
            "fwer": enc(self.fwer),
            "kfwer": {str(k): enc(v) for k, v in sorted(self.kfwer.items())},
            "pfer": enc(self.pfer),
            "marginal_power": None
            if self.marginal_power is None
            else [enc(e) for e in self.marginal_power],
            "disjunctive_power": enc(self.disjunctive_power),
            "conjunctive_power": enc(self.conjunctive_power),
        }


def proportion_estimate(count: int, reps: int) -> Estimate:
    """The share p = count / reps with its Wald standard error sqrt(p (1 - p) / reps).

    This is the ``mc_se`` of every proportion in the reports. It is 0 when
    0 or all ``reps`` replications count, which says only that no
    replication disagreed, not that the estimate is exact.
    """
    p = count / reps
    return Estimate(p, math.sqrt(p * (1.0 - p) / reps))


def _mean_estimate(total: int, total_sq: int, reps: int) -> Estimate:
    mean = total / reps
    if reps > 1:
        var = (total_sq - total * total / reps) / (reps - 1)
        var = max(var, 0.0)
    else:
        var = 0.0
    return Estimate(mean, math.sqrt(var / reps))


def characteristics_from_counts(
    reps: int,
    num_comparisons: int,
    effective,
    kfwer_counts: dict[int, int],
    false_rejection_sum: int,
    false_rejection_sq_sum: int,
    disjunctive_count: int,
    conjunctive_count: int,
    per_arm_rejections=None,
) -> OperatingCharacteristics:
    """Build the aggregate report from replication-level sufficient counts."""
    eff = np.asarray(effective, dtype=bool)
    if eff.shape != (num_comparisons,):
        raise ValueError("truth vector must match the comparison count")
    any_effective = bool(eff.any())
    kfwer = {k: proportion_estimate(c, reps) for k, c in kfwer_counts.items()}
    if 1 not in kfwer:
        raise ValueError("k-FWER counts must include k=1")
    marginal = None
    if any_effective and per_arm_rejections is not None:
        arm_counts = np.asarray(per_arm_rejections)
        if arm_counts.shape != (num_comparisons,):
            raise ValueError("per-arm rejection counts must match the comparison count")
        marginal = tuple(
            proportion_estimate(int(arm_counts[j]), reps) if eff[j] else None
            for j in range(num_comparisons)
        )
    return OperatingCharacteristics(
        reps=reps,
        fwer=kfwer[1],
        kfwer=kfwer,
        pfer=_mean_estimate(false_rejection_sum, false_rejection_sq_sum, reps),
        marginal_power=marginal,
        disjunctive_power=proportion_estimate(disjunctive_count, reps) if any_effective else None,
        conjunctive_power=proportion_estimate(conjunctive_count, reps) if any_effective else None,
    )
