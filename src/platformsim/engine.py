"""Monte Carlo engine for platform-trial replications.

Replications are generated in fixed-size blocks. Each block draws from its
own counter-derived random stream keyed by (scenario seed, block index) and
is tallied into integer counts, so results are bitwise independent of how
blocks are distributed over worker threads and replications never share
state. Blocks overlap on threads because the normal fill, the z product and
the large reductions run with the GIL released. Code that runs on a worker
thread calls only private helpers of this module: the benchmark's span
tracer wraps the public functions and is not thread-safe.
"""

from __future__ import annotations

import concurrent.futures
import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .adjust import AdjustmentPolicy, critical_value
from .correlation import analytic_correlation
from .designs import ControlMode, PlatformDesign
from .distributions import Sidedness
from .metrics import OperatingCharacteristics, characteristics_from_counts

BLOCK_SIZE = 4096
# Rows per z product. A product this small stays on the calling thread:
# OpenBLAS hands larger ones to its own helper threads, which keep spinning
# after the product and take the core a second worker thread needs.
_Z_SLICE_ROWS = 512


class SimulationMode(Enum):
    """Patient-level outcome draws versus direct draws of arm-period means."""

    PATIENT_LEVEL = "patient"
    SUFFICIENT_STATISTIC = "sufficient"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation run depends on."""

    design: PlatformDesign
    effects: tuple[float, ...]
    policy: AdjustmentPolicy
    reps: int = 50_000
    seed: int = 42
    mode: SimulationMode = SimulationMode.SUFFICIENT_STATISTIC
    kfwer_levels: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(float(e) for e in self.effects))
        if len(self.effects) != self.design.num_arms:
            raise ValueError(
                f"effects vector has length {len(self.effects)}, design has "
                f"{self.design.num_arms} arms"
            )
        if not all(np.isfinite(self.effects)):
            raise ValueError("effects must be finite")
        if self.reps < 1:
            raise ValueError("need at least one replication")
        levels = tuple(int(k) for k in self.kfwer_levels)
        object.__setattr__(self, "kfwer_levels", levels)
        if any(k < 1 or k > self.design.num_arms for k in levels):
            raise ValueError("k-FWER levels must lie in 1..m")


@dataclass(frozen=True)
class _SimPlan:
    """Precomputed cell layout turning arm-period means into z-statistics."""

    cells: tuple[tuple[int, int, int], ...]  # (row, period, count), row-major
    cell_means: np.ndarray  # expected mean outcome per cell
    cell_scales: np.ndarray  # standard error of each cell mean
    weights: np.ndarray  # (num_arms, num_cells), rows map cell means to z


def _build_plan(design: PlatformDesign, effects) -> _SimPlan:
    effects = tuple(float(e) for e in effects)
    m = design.num_arms
    if len(effects) != m:
        raise ValueError("effects vector must match the number of arms")
    common = design.control_mode is ControlMode.COMMON
    # map each matrix row to its expected outcome mean (controls stay at 0)
    means_by_row = [0.0] * len(design.recruitment)
    for arm in range(m):
        means_by_row[arm + 1 if common else 2 * arm] = effects[arm]
    cells = []
    for r, row in enumerate(design.recruitment):
        for t, count in enumerate(row):
            if count > 0:
                cells.append((r, t, count))
    index = {(r, t): i for i, (r, t, _) in enumerate(cells)}
    cell_means = np.array([means_by_row[r] for r, _, _ in cells])
    cell_scales = np.array([1.0 / np.sqrt(count) for _, _, count in cells])
    weights = np.zeros((m, len(cells)))
    for arm in range(m):
        n_treat = design.treatment_total(arm)
        n_control = design.concurrent_control_count(arm)
        if n_control == 0:
            raise ValueError(f"arm {arm} has no concurrent control patients")
        se = np.sqrt(1.0 / n_treat + 1.0 / n_control)
        t_row = arm + 1 if common else 2 * arm
        c_row = 0 if common else 2 * arm + 1
        for t in design.active_periods(arm):
            weights[arm, index[(t_row, t)]] = design.recruitment[t_row][t] / n_treat / se
            weights[arm, index[(c_row, t)]] -= design.recruitment[c_row][t] / n_control / se
    return _SimPlan(tuple(cells), cell_means, cell_scales, weights)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block_index))))


def _draw_cell_means(plan: _SimPlan, rng, count: int, mode: SimulationMode) -> np.ndarray:
    if mode is SimulationMode.SUFFICIENT_STATISTIC:
        means = rng.standard_normal((count, len(plan.cells)))
        means *= plan.cell_scales
        means += plan.cell_means
        return means
    means = np.empty((count, len(plan.cells)))
    for i, (_, _, patients) in enumerate(plan.cells):
        draws = rng.standard_normal((count, patients))
        means[:, i] = draws.mean(axis=1) + plan.cell_means[i]
    return means


def _zstat_block(plan: _SimPlan, seed: int, block_index: int, count: int, mode: SimulationMode):
    rng = _block_rng(seed, block_index)
    means = _draw_cell_means(plan, rng, count, mode)
    z = _sliced_zstats(means, plan.weights)
    if not np.all(np.isfinite(z)):
        raise RuntimeError(f"non-finite z-statistics in block {block_index}")
    return z


def _sliced_zstats(means: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``means @ weights.T`` computed in row slices of ``_Z_SLICE_ROWS``."""
    z = np.empty((len(means), len(weights)))
    for start in range(0, len(means), _Z_SLICE_ROWS):
        rows = slice(start, start + _Z_SLICE_ROWS)
        np.matmul(means[rows], weights.T, out=z[rows])
    return z


def _block_sizes(reps: int):
    full, rest = divmod(reps, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full
    if rest:
        sizes.append(rest)
    return sizes


def iter_zstat_blocks(
    design: PlatformDesign,
    effects,
    reps: int,
    seed: int,
    mode: SimulationMode = SimulationMode.SUFFICIENT_STATISTIC,
):
    """Yield blocks of simulated z-statistic vectors, shape (block, num_arms)."""
    plan = _build_plan(design, effects)
    for block_index, count in enumerate(_block_sizes(reps)):
        yield _zstat_block(plan, seed, block_index, count, mode)


def _rejected(z: np.ndarray, threshold: float, sidedness: Sidedness) -> np.ndarray:
    """Single-step rejections: the statistic (|z| when two-sided) exceeds the threshold.

    A statistic exactly at the threshold is not rejected.
    """
    score = np.abs(z) if sidedness is Sidedness.TWO_SIDED else z
    return score > threshold


def _block_tally(plan, threshold, sidedness, effective, seed, mode, block_index, count):
    """Joint histogram of (false, true) rejections per replication, and per-arm rejections."""
    rejected = _rejected(_zstat_block(plan, seed, block_index, count, mode), threshold, sidedness)
    eff = np.asarray(effective)
    n_true = int(eff.sum())
    false_rej = rejected[:, ~eff].sum(axis=1)
    true_rej = rejected[:, eff].sum(axis=1)
    joint = np.bincount(
        false_rej * (n_true + 1) + true_rej, minlength=(len(eff) - n_true + 1) * (n_true + 1)
    )
    return joint, rejected.sum(axis=0)


def run_scenario(config: ScenarioConfig, workers: int = 1) -> OperatingCharacteristics:
    """Run all replications of a scenario and aggregate the tallies.

    Blocks run on up to ``workers`` threads. The report is bitwise
    deterministic given (config, seed) and does not depend on ``workers``:
    blocks own disjoint random streams and all aggregation happens on
    integer counts merged in block order.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    correlation = analytic_correlation(config.design)
    threshold = critical_value(config.policy, correlation)
    effective = tuple(e != 0.0 for e in config.effects)
    levels = tuple(sorted(set(config.kfwer_levels) | {1}))
    plan = _build_plan(config.design, config.effects)
    tally = functools.partial(
        _block_tally, plan, threshold, config.policy.sidedness, effective, config.seed, config.mode
    )
    sizes = _block_sizes(config.reps)
    if workers > 1 and len(sizes) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=min(workers, len(sizes))) as pool:
            partials = list(pool.map(tally, range(len(sizes)), sizes))
    else:
        partials = list(map(tally, range(len(sizes)), sizes))
    n_true = sum(effective)
    joint = np.sum([p[0] for p in partials], axis=0).reshape(-1, n_true + 1)
    false_hist = joint.sum(axis=1)  # replications by number of false rejections
    true_hist = joint.sum(axis=0)  # replications by number of true rejections
    false_counts = np.arange(len(false_hist))
    return characteristics_from_counts(
        reps=config.reps,
        num_comparisons=config.design.num_arms,
        effective=effective,
        kfwer_counts={k: int(false_hist[k:].sum()) for k in levels},
        false_rejection_sum=int(false_counts @ false_hist),
        false_rejection_sq_sum=int((false_counts * false_counts) @ false_hist),
        disjunctive_count=int(true_hist[1:].sum()),
        conjunctive_count=int(true_hist[n_true]),
        per_arm_rejections=np.sum([p[1] for p in partials], axis=0),
    )
