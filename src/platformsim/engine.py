"""Monte Carlo engine for platform-trial replications.

Replications are generated in fixed-size blocks. Each block draws from its
own SFC64 stream seeded by ``SeedSequence((seed, block))`` and is tallied
into integer counts, so results are bitwise independent of how blocks are
distributed over worker threads and replications never share state.
Scenarios that use common random numbers (equal seed, replication
count, mode and draw shape) form one draw group, and ``run_scenarios`` draws
each block of a group once. In sufficient mode a replication draws one
standard normal per arm, which the lower Cholesky factor of the plan's z
covariance correlates; in patient mode it draws every patient of every
recruitment cell. Every distinct design and effect vector in the
group maps those draws to z-statistics once, by its plan's affine map, and
every policy and sidedness that shares them is tallied from them, with two
matrix products of its 0/1 rejections. With n_true effective arms, a
replication's rejections times a tally key that weighs an effective arm 1
and a null arm n_true + 1 give its joint index f * (n_true + 1) + t, of f
false and t true rejections; the bincount of these indices is the (false,
true) table row by row. Blocks overlap on threads because the normal fill,
the z product and the tallies' comparisons and products run with the GIL
released; between those calls a block holds it only for numpy's per-call
overhead. Code that runs on a worker thread calls only private helpers of
this module: the benchmark's span tracer wraps the public functions and is
not thread-safe.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .adjust import AdjustmentPolicy, critical_values
from .designs import PlatformDesign, _choice
from .distributions import Sidedness
from .metrics import OperatingCharacteristics, characteristics_from_counts
from .sample_size import comparison_mean_shifts

BLOCK_SIZE = 4096
# Rows per z product. A product this small stays on the calling thread:
# OpenBLAS hands larger ones to its own helper threads, which keep spinning
# after the product and take the core a second worker thread needs.
_Z_SLICE_ROWS = 512
# Most normals a patient-mode block's one draw buffer holds (512 KiB, so it stays in a
# core's L2 cache), unless a single row needs more; a block's memory does not grow with n.
_PATIENT_CHUNK = 2**16


def _checked_int(name, value, minimum=None):
    """``value`` if it is an int (not a bool) of at least ``minimum``; else a
    ValueError that starts with ``name``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


class SimulationMode(Enum):
    """Patient-level outcome draws versus direct draws of arm-period means."""

    PATIENT_LEVEL = "patient"
    SUFFICIENT_STATISTIC = "sufficient"


# Run defaults of a scenario, a preset run, a config file and the CLI.
DEFAULT_REPS = 50_000
DEFAULT_SEED = 42
DEFAULT_MODE = SimulationMode.SUFFICIENT_STATISTIC


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation run depends on."""

    design: PlatformDesign
    effects: tuple[float, ...]
    policy: AdjustmentPolicy
    reps: int = DEFAULT_REPS
    seed: int = DEFAULT_SEED
    mode: SimulationMode = DEFAULT_MODE
    kfwer_levels: tuple[int, ...] | None = None  # None: (1, 2, 3) cut at m

    def __post_init__(self):
        object.__setattr__(self, "mode", _choice("mode", SimulationMode, self.mode))
        comparison_mean_shifts(self.design, self.effects)  # one effect per arm, finite z means
        object.__setattr__(self, "effects", tuple(float(e) for e in self.effects))
        _checked_int("reps", self.reps, 1)
        _checked_int("seed", self.seed, 0)  # the seed keys a SeedSequence, which takes only ints >= 0
        m = self.design.num_arms
        if self.kfwer_levels is None:
            levels = tuple(k for k in (1, 2, 3) if k <= m)
        else:
            levels = tuple(_checked_int("k-FWER level", k, 1) for k in self.kfwer_levels)
        object.__setattr__(self, "kfwer_levels", levels)
        if any(k > m for k in levels):
            raise ValueError(f"k-FWER levels must lie in 1..m={m}, got {levels}")


@dataclass(frozen=True)
class _SimPlan:
    """The affine map from a block's unit draws (see ``_draw_units``) to z: units @ weights.T + shifts."""

    shape: object  # what fixes the draws besides the stream: arm count, or patients per cell
    weights: np.ndarray  # (num_arms, units per row), rows map the units to z minus its mean
    shifts: np.ndarray  # (num_arms,), each comparison's z mean


# A Cholesky pivot at or below this is rounding noise of a (near) singular z covariance:
# its column of the factor stays zero, so that no weight is noise over noise.
_PIVOT_FLOOR = 1e-12


def _covariance_factor(weights: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T the Gram matrix of the rows of ``weights``.

    The Gram matrix and its Cholesky factor are built column by column from
    numpy elementwise products and sums, not BLAS or LAPACK, whose kernels
    sum in an order that depends on the CPU: L has the same bits under every
    BLAS kernel. Only the Gram's lower triangle is formed and read.
    """
    m = len(weights)
    gram = np.zeros((m, m))
    for j in range(m):
        gram[j:, j] = (weights[j:] * weights[j]).sum(axis=1)
    factor = np.zeros((m, m))
    for j in range(m):
        pivot = gram[j, j] - (factor[j, :j] ** 2).sum()
        if pivot > _PIVOT_FLOOR:
            factor[j, j] = np.sqrt(pivot)
            below = gram[j + 1 :, j] - (factor[j + 1 :, :j] * factor[j, :j]).sum(axis=1)
            factor[j + 1 :, j] = below / factor[j, j]
    return factor


def _build_plan(design: PlatformDesign, effects, mode: SimulationMode) -> _SimPlan:
    """The plan of ``design`` and ``effects`` in ``mode``.

    Each weight row maps the cells' centred means, cells row-major over (row,
    period), to a comparison's z minus its mean. Patient mode draws each
    cell's mean of unit patient outcomes. In sufficient mode a cell's centred
    mean is a standard normal over sqrt(count), so z minus its mean is normal
    with the Gram matrix of the weight rows over sqrt(count) as covariance:
    the plan draws one standard normal per arm and weighs them by that
    covariance's lower Cholesky factor. The factor comes from the cell
    weights, not from ``analytic_correlation``, so sufficient-mode z still
    checks recruitment to correlation independently of the exact law. Units
    are finite normals and weights finite, so z is finite exactly when the
    shifts are, which ``comparison_mean_shifts`` checks: no block needs a
    check of its own.
    """
    shifts = comparison_mean_shifts(design, effects)
    cells = [
        (r, t) for r, row in enumerate(design.recruitment) for t, count in enumerate(row) if count > 0
    ]
    index = {cell: i for i, cell in enumerate(cells)}
    counts = tuple(design.recruitment[r][t] for r, t in cells)
    weights = np.zeros((design.num_arms, len(cells)))
    for arm in range(design.num_arms):
        t_row, c_row = design.arm_rows(arm)
        n_treat, n_control = design.comparison_sizes(arm)
        se = np.sqrt(1.0 / n_treat + 1.0 / n_control)
        for t in design.active_periods(arm):
            weights[arm, index[(t_row, t)]] = design.recruitment[t_row][t] / n_treat / se
            weights[arm, index[(c_row, t)]] -= design.recruitment[c_row][t] / n_control / se
    if mode is SimulationMode.SUFFICIENT_STATISTIC:
        return _SimPlan(design.num_arms, _covariance_factor(weights / np.sqrt(counts)), shifts)
    return _SimPlan(counts, weights, shifts)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, block_index))))


def _draw_units(seed: int, block_index: int, rows: int, shape, mode: SimulationMode) -> np.ndarray:
    """One block's unit draws: ``shape`` standard normals per row (sufficient mode), or
    each cell's mean of unit patient outcomes.

    A cell's patient outcomes are drawn from the block's one stream in
    consecutive chunks of rows, at most ``_PATIENT_CHUNK`` normals each (one
    row if a row alone has more), into one buffer that every chunk and cell
    of the call reuses. Each chunk's row sums go straight into the cell's
    column, which is divided by the cell's patients once. The stream fills
    rows in order, a row's pairwise sum does not depend on how many rows
    share a call, and numpy's mean is that sum over n, so the means equal
    those of one whole draw bit for bit. The buffer is the call's own:
    blocks run on threads.
    """
    rng = _block_rng(seed, block_index)
    if mode is SimulationMode.SUFFICIENT_STATISTIC:
        return rng.standard_normal((rows, shape))
    chunks = [min(rows, max(1, _PATIENT_CHUNK // patients)) for patients in shape]
    buffer = np.empty(max(chunk * patients for chunk, patients in zip(chunks, shape)))
    units = np.empty((rows, len(shape)))
    for i, (chunk, patients) in enumerate(zip(chunks, shape)):
        for start in range(0, rows, chunk):
            stop = min(start + chunk, rows)
            draws = buffer[: (stop - start) * patients].reshape(stop - start, patients)
            rng.standard_normal(out=draws)
            np.add.reduce(draws, axis=1, out=units[start:stop, i])
        units[:, i] /= patients
    return units


def _zstats(units: np.ndarray, plan: _SimPlan):
    """z-statistics of one block, ``units @ plan.weights.T + plan.shifts``.

    The product runs in row slices of ``_Z_SLICE_ROWS``; the shifts are
    added once to the whole block, the same bits as adding them per row.
    """
    z = np.empty((len(units), len(plan.weights)))
    for start in range(0, len(units), _Z_SLICE_ROWS):
        rows = slice(start, start + _Z_SLICE_ROWS)
        # weights.T must stay a transposed view: BLAS sums a C-contiguous copy
        # in another order, which changes the last bit of z for some designs.
        np.matmul(units[rows], plan.weights.T, out=z[rows])
    z += plan.shifts
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
    mode: SimulationMode = DEFAULT_MODE,
):
    """An iterator over blocks of simulated z-statistic vectors, shape (block, num_arms).

    The arguments are checked and the plan is built at the call, so a bad
    argument raises here, not at the first block.
    """
    mode = _choice("mode", SimulationMode, mode)
    plan = _build_plan(design, effects, mode)
    return (
        _zstats(_draw_units(seed, block_index, rows, plan.shape, mode), plan)
        for block_index, rows in enumerate(_block_sizes(reps))
    )


def _rejected(z: np.ndarray, threshold: float, sidedness: Sidedness) -> np.ndarray:
    """Single-step rejections: the statistic (|z| when two-sided) exceeds the threshold.

    A statistic exactly at the threshold is not rejected.
    """
    score = np.abs(z) if sidedness is Sidedness.TWO_SIDED else z
    return score > threshold


def _draw_groups(configs) -> dict:
    """Scenarios by what fixes their draws, then by the plan that maps the draws to z:
    ``{(seed, reps, mode, draw shape): {(design, effects, mode): (plan, tally key, rules)}}``.

    The tally key maps 0/1 rejections to the joint index (see the module
    docstring); rules lists each scenario's (config index, threshold, sidedness).
    """
    # one threshold call for the batch: its new Dunnett matrices are solved together
    thresholds = critical_values((config.policy, config.design) for config in configs)
    groups = {}
    plans = {}  # (design, effects, mode) -> plan, built once and off the worker threads
    for index, (config, threshold) in enumerate(zip(configs, thresholds)):
        plan_key = (config.design, config.effects, config.mode)
        if plan_key not in plans:
            plans[plan_key] = _build_plan(*plan_key)
        plan = plans[plan_key]
        members = groups.setdefault((config.seed, config.reps, config.mode, plan.shape), {})
        if plan_key not in members:
            effective = np.array(config.effects) != 0.0
            members[plan_key] = (plan, np.where(effective, 1.0, effective.sum() + 1.0), [])
        members[plan_key][2].append((index, threshold, config.policy.sidedness))
    return groups


def _group_block(group, members: dict, block_index: int, rows: int):
    """Each scenario's (config index, joint-index bincount, per-arm rejections) on one block.

    A rule's rejections are a 0/1 float block, so both tallies are matrix
    products: its rows times the tally key give each replication's joint
    index, whose largest value is the key's sum, and a row of ones times it
    gives the per-arm counts. These are sums of at most ``BLOCK_SIZE`` zeros
    and ones (times small integer keys), exact in float64.
    """
    seed, _, mode, shape = group
    units = _draw_units(seed, block_index, rows, shape, mode)
    members = list(members.values())
    ones = np.ones(rows)
    tallies = []
    for i, (plan, key, rules) in enumerate(members):
        z = _zstats(units, plan)
        if i == len(members) - 1:
            del units  # lower peak memory: the draws are not held through the last tally
        for index, threshold, sidedness in rules:
            rejected = _rejected(z, threshold, sidedness).astype(float)
            joint = np.bincount((rejected @ key).astype(np.intp), minlength=int(key.sum()) + 1)
            tallies.append((index, joint, (ones @ rejected).astype(np.int64)))
    return tallies


def run_scenarios(configs, workers: int = 1) -> list[OperatingCharacteristics]:
    """Run every scenario's replications and aggregate the tallies, in config order.

    Scenarios with equal seed, reps, mode and draw shape (the number of
    arms, or the patients per cell in patient mode) draw the same random
    numbers, so each of their blocks is drawn once; those that also share
    design and effects share its z-statistics. (group, block) tasks run on
    up to ``workers`` threads. Each report is bitwise equal to running its
    scenario alone and does not depend on ``workers``: blocks own disjoint
    random streams and every tally is an integer count.
    """
    _checked_int("workers", workers, 1)
    configs = list(configs)
    tasks = [
        (group, members, block_index, rows)
        for group, members in _draw_groups(configs).items()
        for block_index, rows in enumerate(_block_sizes(group[1]))
    ]
    totals = [[0, 0] for _ in configs]  # running [joint bincount, per-arm] counts of each scenario

    def add(tallies):
        for index, joint, per_arm in tallies:
            totals[index][0] += joint
            totals[index][1] += per_arm

    if workers > 1 and len(tasks) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            for tallies in pool.map(_group_block, *zip(*tasks)):
                add(tallies)
    else:
        for task in tasks:
            add(_group_block(*task))
    reports = []
    for c, (joint, per_arm) in zip(configs, totals):
        eff = [e != 0.0 for e in c.effects]
        table = joint.reshape(-1, sum(eff) + 1)  # rows f = 0..nulls, columns t = 0..n_true
        reports.append(characteristics_from_counts(c.reps, table, per_arm, eff, c.kfwer_levels))
    return reports


def run_scenario(config: ScenarioConfig, workers: int = 1) -> OperatingCharacteristics:
    """Run all replications of one scenario: ``run_scenarios([config], workers)[0]``."""
    return run_scenarios([config], workers)[0]
