"""Recruitment schedules for multi-arm platform trials.

A design is a matrix of patient counts with one row per arm and one column
per recruitment period. Every sample-size quantity used downstream
(per-comparison sizes, concurrent control counts, control overlap between
two comparisons) is derived from this matrix. Every design the package
runs is built here: with equal arms, from a fixed total, with a late arm,
or from a joining sponsor's budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property


_BUDGET_EARLY_N = 150
_BUDGET_CONTROL_SHARE = Fraction(1, 3)
_MAX_COUNT = 2**63 - 1  # recruitment counts enter numpy as int64


def _choice(name, enum, value):
    """The member of ``enum`` that is ``value`` or whose value is ``value``; else a
    ValueError that starts with ``name`` and names the accepted values."""
    try:
        return enum(value)
    except ValueError as exc:
        accepted = " or ".join(repr(member.value) for member in enum)
        raise ValueError(f"{name} must be {accepted}, got {value!r}") from exc


class ControlMode(Enum):
    """How control patients are provided for treatment comparisons."""

    COMMON = "common"
    INDIVIDUAL = "individual"


def _support(row):
    return tuple(t for t, count in enumerate(row) if count > 0)


def _is_contiguous(row):
    active = _support(row)
    return not active or active[-1] - active[0] + 1 == len(active)


@dataclass(frozen=True)
class PlatformDesign:
    """Recruitment matrix of a platform trial.

    With a common control, row 0 is the shared control arm and rows 1..m are
    the treatment arms. With individual controls, rows alternate
    (treatment_1, control_1, treatment_2, control_2, ...). ``arm_rows`` is
    the one place that reads this layout. Columns are
    recruitment periods; entry (row, t) is the number of patients that row's
    arm recruits during period t, at most ``_MAX_COUNT``. ``control_mode``
    takes a member or its value string. Instances are immutable and safe to
    share across worker threads.
    """

    control_mode: ControlMode
    recruitment: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "control_mode", _choice("control_mode", ControlMode, self.control_mode))
        rows = self.recruitment
        if not rows:
            raise ValueError("design needs at least one arm row")
        width = len(rows[0])
        if width < 1:
            raise ValueError("design needs at least one recruitment period")
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} periods, expected {width}")
            for t, count in enumerate(row):
                if not isinstance(count, int) or isinstance(count, bool):
                    raise ValueError(f"entry ({i}, {t}) is not an integer count")
                if count < 0:
                    raise ValueError(f"entry ({i}, {t}) is negative")
                if count > _MAX_COUNT:
                    raise ValueError(f"entry ({i}, {t}) must be at most {_MAX_COUNT}, got {count}")
            if sum(row) == 0:
                raise ValueError(f"arm row {i} recruits no patients")
            if not _is_contiguous(row):
                raise ValueError(f"arm row {i} opens and closes recruitment more than once")
        if self.control_mode is ControlMode.COMMON:
            if len(rows) < 2:
                raise ValueError("common-control design needs a control row and at least one treatment row")
        else:
            if len(rows) < 2 or len(rows) % 2 != 0:
                raise ValueError("individual-control design needs one control row per treatment row")
            for arm in range(len(rows) // 2):
                if _support(rows[2 * arm]) != _support(rows[2 * arm + 1]):
                    raise ValueError(
                        f"control row for arm {arm} is not active in exactly its treatment's periods"
                    )

    @property
    def num_arms(self) -> int:
        if self.control_mode is ControlMode.COMMON:
            return len(self.recruitment) - 1
        return len(self.recruitment) // 2

    def arm_rows(self, arm: int) -> tuple[int, int]:
        """Indices of the (treatment row, control row) of arm ``arm``'s comparison.

        Arms with a common control all share row 0; an individual control
        is the row after its treatment's.
        """
        if not 0 <= arm < self.num_arms:
            raise IndexError(f"arm index {arm} out of range for {self.num_arms} arms")
        if self.control_mode is ControlMode.COMMON:
            return arm + 1, 0
        return 2 * arm, 2 * arm + 1

    def treatment_total(self, arm: int) -> int:
        return sum(self.recruitment[self.arm_rows(arm)[0]])

    def active_periods(self, arm: int) -> tuple[int, ...]:
        """Periods in which treatment arm ``arm`` recruits."""
        return _support(self.recruitment[self.arm_rows(arm)[0]])

    def concurrent_control_count(self, arm: int) -> int:
        """Control patients randomized while arm ``arm`` was recruiting.

        Only these controls enter the arm's treatment-control comparison.
        """
        control = self.recruitment[self.arm_rows(arm)[1]]
        return sum(control[t] for t in self.active_periods(arm))

    def comparison_sizes(self, arm: int) -> tuple[int, int]:
        """(treatment patients, concurrent control patients) of arm ``arm``'s comparison.

        Raises if the arm has no concurrent control patients, since its
        comparison then has no statistic.
        """
        self.arm_rows(arm)  # the IndexError of an arm out of range
        n_treat, n_control = self._arm_sizes[arm]
        if n_control == 0:
            raise ValueError(f"arm {arm} has no concurrent control patients")
        return n_treat, n_control

    @cached_property
    def _arm_sizes(self) -> tuple[tuple[int, int], ...]:
        """Every arm's (treatment, concurrent control) patients, counted once per design.

        Cached in the instance ``__dict__``, which equality and hashing do not read.
        """
        return tuple(
            (self.treatment_total(arm), self.concurrent_control_count(arm))
            for arm in range(self.num_arms)
        )

    def total_sample_size(self) -> int:
        """Total patients recruited across all arms and periods."""
        return sum(sum(row) for row in self.recruitment)

    @property
    def arm_labels(self) -> tuple[str, ...]:
        if self.control_mode is ControlMode.COMMON:
            return ("control",) + tuple(f"treatment_{j + 1}" for j in range(self.num_arms))
        labels = []
        for j in range(self.num_arms):
            labels.append(f"treatment_{j + 1}")
            labels.append(f"control_{j + 1}")
        return tuple(labels)

    def to_dict(self) -> dict:
        return {
            "control_mode": self.control_mode.value,
            "arms": list(self.arm_labels),
            "matrix": [list(row) for row in self.recruitment],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PlatformDesign":
        try:
            mode = payload["control_mode"]  # parsed by the constructor
            matrix = tuple(tuple(row) for row in payload["matrix"])
            arms = payload.get("arms")
            arms = None if arms is None else tuple(arms)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed design payload: {exc}") from exc
        design = cls(mode, matrix)
        if arms is not None and arms != design.arm_labels:
            raise ValueError("arm labels do not match the design layout")
        return design


def _late_entry_design(early: int, joint: int, late: int) -> PlatformDesign:
    """Three-arm common-control design in which the third arm joins late.

    Arms 1 and 2 recruit ``early`` patients each before the late arm opens
    and ``joint`` alongside it; the late arm recruits ``joint`` and then
    ``late`` more alone. The control arm recruits as many as one treatment
    arm in each of the three periods. Periods in which nobody recruits are
    dropped.
    """
    control = (early, joint, late)
    rows = (control, (early, joint, 0), (early, joint, 0), (0, joint, late))
    keep = [t for t, count in enumerate(control) if count > 0]
    return PlatformDesign(ControlMode.COMMON, tuple(tuple(row[t] for t in keep) for row in rows))


def build_fixed_design(num_arms: int, n_per_arm: int, control_mode: ControlMode) -> PlatformDesign:
    """Single-period design with equal recruitment in every arm."""
    control_mode = _choice("control_mode", ControlMode, control_mode)
    if num_arms < 1:
        raise ValueError("need at least one treatment arm")
    if n_per_arm < 1:
        raise ValueError("need at least one patient per arm")
    num_rows = num_arms + 1 if control_mode is ControlMode.COMMON else 2 * num_arms
    return PlatformDesign(control_mode, tuple((n_per_arm,) for _ in range(num_rows)))


def build_fixed_total_design(
    total: int, num_arms: int, control_mode: ControlMode, control_ratio: float = 1.0
) -> PlatformDesign:
    """Single-period design that splits a fixed total over the arms.

    Common control: each treatment arm gets floor(total / (m + ratio)). At
    ratio 1 the control arm gets the same (equal allocation, up to m
    patients left unallocated); for larger ratios the control arm absorbs
    the ratio-weighted share plus the rounding remainder. Individual
    controls: floor(total / 2m) per arm, leaving up to 2m - 1 patients
    unallocated.
    """
    control_mode = _choice("control_mode", ControlMode, control_mode)
    if num_arms < 1:
        raise ValueError("need at least one treatment arm")
    if control_ratio < 1.0:
        raise ValueError("control ratio must be at least 1")
    if control_mode is ControlMode.INDIVIDUAL:
        rows = ((total // (2 * num_arms),),) * (2 * num_arms)
    else:
        per_treatment = int(total / (num_arms + control_ratio))
        control = per_treatment if control_ratio == 1.0 else total - num_arms * per_treatment
        rows = ((control,),) + ((per_treatment,),) * num_arms
    if min(row[0] for row in rows) < 1:
        raise ValueError("total too small to give every arm a patient")
    return PlatformDesign(control_mode, rows)


def build_staggered_design(n_per_arm: int, shift: int) -> PlatformDesign:
    """Three-arm common-control design in which the third arm starts late.

    The late-entry design (shift, n_per_arm - shift, shift): ``shift`` is the
    number of patients per early arm already recruited when the late arm
    opens, and every treatment-control comparison ends up with
    ``n_per_arm`` patients per side. Periods of zero width (shift 0 or shift
    equal to ``n_per_arm``) are dropped.
    """
    if n_per_arm < 1:
        raise ValueError("need at least one patient per arm")
    if not 0 <= shift <= n_per_arm:
        raise ValueError(f"shift must lie between 0 and the per-arm sample size n={n_per_arm}, got {shift}")
    return _late_entry_design(shift, n_per_arm - shift, shift)


def build_budget_design(shift: int, budget: int) -> PlatformDesign:
    """Design of an ongoing three-arm platform that a sponsor's budget joins.

    The two early arms have 150 patients per comparison and have already
    recruited ``shift`` patients per arm when the late arm joins. During the
    joint period the sponsor pays for one third of control recruitment; the
    rest of the budget is split equally between the late arm and the
    concurrent control extension so that the late comparison has equal
    patients per side. Arithmetic is exact (rational) with a single half-up
    rounding of the per-side comparison size. The design is the late-entry
    design (shift, 150 - shift, tail), where the late arm's tail brings its
    comparison to that size per side: ``comparison_sizes(2)``.
    """
    if not 0 <= shift <= _BUDGET_EARLY_N:
        raise ValueError("shift must lie between 0 and the early arms' sample size")
    if budget <= 0:
        raise ValueError("budget must be positive")
    joint = _BUDGET_EARLY_N - shift
    obligation = joint * _BUDGET_CONTROL_SHARE
    leftover = Fraction(budget) - joint - obligation
    if leftover < 0:
        raise ValueError(
            "budget does not cover the joining arm's joint-period patients and control share"
        )
    comparison_n = math.floor(joint + leftover / 2 + Fraction(1, 2))
    tail = comparison_n - joint
    period2_controls = budget - joint - 2 * tail
    if period2_controls < 0 or period2_controls > joint:
        raise ValueError("budget split infeasible after rounding")
    return _late_entry_design(shift, joint, tail)
