"""Monte Carlo engine for platform-trial replications.

Replications are generated in fixed-size blocks. Each block draws from its
own counter-derived random stream keyed by (scenario seed, block index) and
is tallied into integer counts, so results are bitwise independent of how
blocks are distributed over worker threads and replications never share
state. Scenarios that use common random numbers (equal seed, replication
count, mode and draw shape) form one draw group, and ``run_scenarios`` draws
each block of a group once: every distinct design and effect vector in the
group turns those draws into z-statistics once, and every policy and
sidedness that shares them is tallied from them, with two matrix products
of its 0/1 rejections. Blocks overlap on threads because the normal fill,
the z product and the tallies' comparisons and products run with the GIL
released; between those calls a block holds it only for numpy's per-call
overhead. Code that runs on a worker thread calls only private
helpers of this module: the benchmark's span tracer wraps the public
functions and is not thread-safe.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .adjust import AdjustmentPolicy, critical_values
from .designs import ControlMode, PlatformDesign
from .distributions import Sidedness
from .metrics import OperatingCharacteristics, characteristics_from_counts

BLOCK_SIZE = 4096
# Rows per z product. A product this small stays on the calling thread:
# OpenBLAS hands larger ones to its own helper threads, which keep spinning
# after the product and take the core a second worker thread needs.
_Z_SLICE_ROWS = 512
# Most normals one patient-mode draw holds (8 MiB), so a block's memory does not grow with n.
_PATIENT_CHUNK = 2**20


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


def _draw_shape(plan: _SimPlan, mode: SimulationMode):
    """What fixes a block's draws besides its stream: the cell count, or each cell's patients."""
    if mode is SimulationMode.SUFFICIENT_STATISTIC:
        return len(plan.cells)
    return tuple(count for _, _, count in plan.cells)


def _draw_units(seed: int, block_index: int, rows: int, shape, mode: SimulationMode) -> np.ndarray:
    """One block's centred cell means: unit normals, or means of unit patient outcomes.

    A cell's patient outcomes are drawn in consecutive chunks of rows, at
    most ``_PATIENT_CHUNK`` normals each (one row if a row alone has more),
    from the block's one stream. The stream fills rows in order and each
    row's mean is its own sum, so the means equal those of one whole draw.
    """
    rng = _block_rng(seed, block_index)
    if mode is SimulationMode.SUFFICIENT_STATISTIC:
        return rng.standard_normal((rows, shape))
    units = np.empty((rows, len(shape)))
    for i, patients in enumerate(shape):
        chunk = max(1, _PATIENT_CHUNK // patients)
        for start in range(0, rows, chunk):
            stop = min(start + chunk, rows)
            units[start:stop, i] = rng.standard_normal((stop - start, patients)).mean(axis=1)
    return units


def _zstats(units: np.ndarray, plan: _SimPlan, mode: SimulationMode, block_index: int):
    """z-statistics of one block, computed in row slices of ``_Z_SLICE_ROWS``.

    Each slice turns its units into cell means (``units * cell_scales +
    cell_means``; patient means are already on their scale) and multiplies
    them by ``weights.T``, so no block-sized array of cell means exists.
    """
    z = np.empty((len(units), len(plan.weights)))
    slice_rows = min(len(units), _Z_SLICE_ROWS)
    buffer = np.empty((slice_rows, units.shape[1]))
    # Full (slice rows, cells) operands, built once per call: against a (cells,)
    # vector broadcast over rows, numpy's inner loop runs over one row's few
    # cells at a time. Elementwise results are the same bits in any loop order.
    offsets = np.tile(plan.cell_means, (slice_rows, 1))
    if mode is SimulationMode.SUFFICIENT_STATISTIC:
        scales = np.tile(plan.cell_scales, (slice_rows, 1))
    for start in range(0, len(units), _Z_SLICE_ROWS):
        rows = slice(start, start + _Z_SLICE_ROWS)
        n = len(z[rows])
        means = buffer[:n]
        if mode is SimulationMode.SUFFICIENT_STATISTIC:
            np.multiply(units[rows], scales[:n], out=means)
            means += offsets[:n]
        else:
            np.add(units[rows], offsets[:n], out=means)
        # weights.T must stay a transposed view: BLAS sums a C-contiguous copy
        # in another order, which changes z in the last bit and so the reports.
        np.matmul(means, plan.weights.T, out=z[rows])
    if not np.all(np.isfinite(z)):
        raise RuntimeError(f"non-finite z-statistics in block {block_index}")
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
    shape = _draw_shape(plan, mode)
    for block_index, rows in enumerate(_block_sizes(reps)):
        yield _zstats(_draw_units(seed, block_index, rows, shape, mode), plan, mode, block_index)


def _rejected(z: np.ndarray, threshold: float, sidedness: Sidedness) -> np.ndarray:
    """Single-step rejections: the statistic (|z| when two-sided) exceeds the threshold.

    A statistic exactly at the threshold is not rejected.
    """
    score = np.abs(z) if sidedness is Sidedness.TWO_SIDED else z
    return score > threshold


@dataclass(frozen=True)
class _DrawGroup:
    """Scenarios that draw the same random numbers, by the plan that turns them into z."""

    seed: int
    reps: int
    mode: SimulationMode
    shape: object  # see _draw_shape
    # (design, effects) -> (plan, tally key, joint bins, [(scenario index, threshold, sidedness)])
    members: dict = field(default_factory=dict)


def _tally_key(effects):
    """Weights that map a replication's 0/1 rejections to its joint (false, true) index.

    The index is false * (n_true + 1) + true, so an effective arm weighs 1 and
    a null arm n_true + 1; it takes (m - n_true + 1) * (n_true + 1) values.
    """
    effective = [e != 0.0 for e in effects]
    n_true = sum(effective)
    key = np.array([1.0 if e else n_true + 1.0 for e in effective])
    return key, (len(effective) - n_true + 1) * (n_true + 1)


def _draw_groups(configs) -> list[_DrawGroup]:
    # one threshold call for the batch: its new Dunnett matrices are solved together
    thresholds = critical_values((config.policy, config.design) for config in configs)
    groups = {}
    plans = {}  # (design, effects) -> plan, built once for every config that shares it
    for index, (config, threshold) in enumerate(zip(configs, thresholds)):
        member_key = (config.design, config.effects)
        if member_key not in plans:
            plans[member_key] = _build_plan(*member_key)
        plan = plans[member_key]
        group_key = (config.seed, config.reps, config.mode, _draw_shape(plan, config.mode))
        if group_key not in groups:
            groups[group_key] = _DrawGroup(*group_key)
        members = groups[group_key].members
        if member_key not in members:
            tally_key, bins = _tally_key(config.effects)
            members[member_key] = (plan, tally_key, bins, [])
        members[member_key][3].append((index, threshold, config.policy.sidedness))
    return list(groups.values())


def _group_block(group: _DrawGroup, block_index: int, rows: int):
    """(scenario index, joint histogram of (false, true) rejections, per-arm rejections)
    of every scenario in ``group`` on one block.

    A rule's rejections are a 0/1 float block, so both tallies are matrix
    products: its rows times the tally key give each replication's joint
    index, and a row of ones times it gives the per-arm counts. These are
    sums of at most ``BLOCK_SIZE`` zeros and ones (times small integer keys),
    exact in float64.
    """
    units = _draw_units(group.seed, block_index, rows, group.shape, group.mode)
    members = list(group.members.values())
    ones = np.ones(rows)
    tallies = []
    for i, (plan, tally_key, bins, rules) in enumerate(members):
        z = _zstats(units, plan, group.mode, block_index)
        if i == len(members) - 1:
            del units  # lower peak memory: the draws are not held through the last tally
        # |z| is taken once per member: the two-sided rule on z is the one-sided rule on |z|
        scores = {Sidedness.ONE_SIDED: z}
        for index, threshold, sidedness in rules:
            if sidedness not in scores:
                scores[sidedness] = np.abs(z)
            rejected = _rejected(scores[sidedness], threshold, Sidedness.ONE_SIDED).astype(float)
            joint = np.bincount((rejected @ tally_key).astype(np.intp), minlength=bins)
            tallies.append((index, joint, (ones @ rejected).astype(np.int64)))
    return tallies


def run_scenarios(configs, workers: int = 1) -> list[OperatingCharacteristics]:
    """Run every scenario's replications and aggregate the tallies, in config order.

    Scenarios with equal seed, reps, mode and draw shape (the number of
    cells, or the patients per cell in patient mode) draw the same random
    numbers, so each of their blocks is drawn once; those that also share
    design and effects share its z-statistics. (group, block) tasks run on
    up to ``workers`` threads. Each report is bitwise equal to running its
    scenario alone and does not depend on ``workers``: blocks own disjoint
    random streams and every tally is an integer count.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    configs = list(configs)
    tasks = [
        (group, block_index, rows)
        for group in _draw_groups(configs)
        for block_index, rows in enumerate(_block_sizes(group.reps))
    ]
    totals = [None] * len(configs)  # running [joint, per-arm] counts of each scenario

    def add(tallies):
        for index, joint, per_arm in tallies:
            if totals[index] is None:
                totals[index] = [joint, per_arm]
            else:
                totals[index][0] += joint
                totals[index][1] += per_arm

    if workers > 1 and len(tasks) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            for tallies in pool.map(_group_block, *zip(*tasks)):
                add(tallies)
    else:
        for task in tasks:
            add(_group_block(*task))
    return [_characteristics(c, *total) for c, total in zip(configs, totals)]


def _characteristics(config: ScenarioConfig, joint, per_arm) -> OperatingCharacteristics:
    effective = tuple(e != 0.0 for e in config.effects)
    n_true = sum(effective)
    levels = tuple(sorted(set(config.kfwer_levels) | {1}))
    joint = joint.reshape(-1, n_true + 1)
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
        per_arm_rejections=per_arm,
    )


def run_scenario(config: ScenarioConfig, workers: int = 1) -> OperatingCharacteristics:
    """Run all replications of one scenario: ``run_scenarios([config], workers)[0]``."""
    return run_scenarios([config], workers)[0]
