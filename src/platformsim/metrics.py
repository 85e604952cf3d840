"""Operating characteristics read from one table of rejection counts.

Each replication rejects f true nulls (false rejections) and t false ones
(true rejections). The engine counts the replications of each (f, t) in
one (nulls + 1, effectives + 1) array, rows f and columns t, whose exact
twin of the same shape is ``distributions.rejection_law``. k-FWER and PFER
are sums over its row totals, disjunctive and conjunctive power over its
column totals; marginal power reads the per-arm rejection counts. Every
estimate carries a Monte Carlo standard error.
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

    ``kfwer`` holds k = 1, the FWER. Power fields are None under the global
    null (no effective arms), and ``marginal_power`` entries are None for
    arms whose null is true. The fields are not checked here:
    ``characteristics_from_counts`` derives them from a checked table.
    """

    reps: int
    kfwer: dict[int, Estimate]
    pfer: Estimate
    marginal_power: tuple[Estimate | None, ...] | None
    disjunctive_power: Estimate | None
    conjunctive_power: Estimate | None

    @property
    def fwer(self) -> Estimate:
        """The family-wise error rate: the k-FWER at k = 1."""
        return self.kfwer[1]

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

    def estimates(self) -> dict[str, Estimate]:
        """Every estimate by its report name, in report order.

        The names are ``fwer``, ``kfwer_k`` for each level k > 1, ``pfer``,
        ``marginal_power_j`` for each effective arm j (counted from 1),
        ``disjunctive_power`` and ``conjunctive_power``; the power names are
        absent under the global null.
        """
        named = [("fwer", self.fwer)]
        named += [(f"kfwer_{k}", est) for k, est in sorted(self.kfwer.items()) if k > 1]
        named.append(("pfer", self.pfer))
        named += [
            (f"marginal_power_{j + 1}", est) for j, est in enumerate(self.marginal_power or ())
        ]
        named += [
            ("disjunctive_power", self.disjunctive_power),
            ("conjunctive_power", self.conjunctive_power),
        ]
        return {name: est for name, est in named if est is not None}


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
    reps: int, joint, per_arm_rejections, effective, kfwer_levels
) -> OperatingCharacteristics:
    """The report of ``reps`` replications from their table of (false, true) rejections.

    ``joint[f, t]`` counts the replications with f false and t true
    rejections, shape (nulls + 1, effectives + 1). ``per_arm_rejections[j]``
    counts the replications that rejected arm j, and ``effective[j]`` is
    True when arm j's null is false. k-FWER is reported at
    ``sorted(kfwer_levels ∪ {1})``. The table must hold non-negative counts
    that total ``reps``, at least 1, so every proportion lies in [0, 1],
    k-FWER does not grow with k and PFER is not negative.
    """
    eff = np.asarray(effective, dtype=bool)
    n_true = int(eff.sum())
    joint = np.asarray(joint)
    if joint.shape != (eff.size - n_true + 1, n_true + 1):
        raise ValueError("joint table must have shape (nulls + 1, effectives + 1)")
    if reps < 1 or (joint < 0).any() or joint.sum() != reps:
        raise ValueError(f"joint table must hold non-negative counts that total reps={reps}, at least 1")
    arm_counts = np.asarray(per_arm_rejections)
    if arm_counts.shape != eff.shape:
        raise ValueError("per-arm rejection counts must match the comparison count")
    false_hist = joint.sum(axis=1)  # replications by number of false rejections
    true_hist = joint.sum(axis=0)  # replications by number of true rejections
    false_counts = np.arange(len(false_hist))
    kfwer = {
        k: proportion_estimate(int(false_hist[k:].sum()), reps)
        for k in sorted(set(kfwer_levels) | {1})
    }
    pfer = _mean_estimate(
        int(false_counts @ false_hist), int((false_counts * false_counts) @ false_hist), reps
    )
    power = (None, None, None)  # marginal, disjunctive, conjunctive: none under the global null
    if n_true:
        power = (
            tuple(
                proportion_estimate(int(c), reps) if e else None for c, e in zip(arm_counts, eff)
            ),
            proportion_estimate(int(true_hist[1:].sum()), reps),
            proportion_estimate(int(true_hist[-1]), reps),
        )
    return OperatingCharacteristics(reps, kfwer, pfer, *power)
