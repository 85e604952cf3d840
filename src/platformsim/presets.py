"""Preset scenario catalog, config ingestion and report emission.

Each preset reproduces one table or figure of the case study: the fixed
four-arm error table (table3), its staggered variant (table4), the
fixed-platform sweeps over the number of arms (fig2-fig4) and the
flexible-platform sweeps over the late arm's entry shift (fig5-fig7).

The catalog is data: ``_PRESETS`` maps each name to a ``_Preset`` spec of a
sweep grid (arms, shifts, or none for the tables), an effect pattern of the
number of arms, the metrics, an ordered list of series and the plot pivots.
A series is simulated (``_Simulated``), a required sample size
(``_RequiredN``) or fig6's budget comparison size (``_ComparisonN``); a
reference series runs once, after the sweep, with no sweep value. One
runner, ``_run_spec``, turns every series into result rows and scenario
records and pivots the rows into the plot tables. Reports are a long-format
results.csv, a structured results.json and per-figure plotdata CSVs.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .adjust import AdjustmentMethod, AdjustmentPolicy, critical_values
from .correlation import analytic_correlation
from .designs import (
    ControlMode,
    build_budget_design,
    build_fixed_design,
    build_fixed_total_design,
    build_staggered_design,
)
from .distributions import Sidedness
from .engine import (
    DEFAULT_MODE,
    DEFAULT_REPS,
    DEFAULT_SEED,
    ScenarioConfig,
    SimulationMode,
    _checked_int,
    run_scenario,
    run_scenarios,
)
from .sample_size import PowerTarget, comparison_mean_shifts, required_per_arm_ns

EFFECT_SIZE = 0.38
POWER_GOAL = 0.9
FIXED_TOTAL = 600
SPONSOR_BUDGET = 300
ARM_GRID = tuple(range(2, 11))
SHIFT_GRID = tuple(range(0, 151, 10))

_POLICIES = {
    "unadjusted": AdjustmentPolicy(AdjustmentMethod.UNADJUSTED),
    "bonferroni": AdjustmentPolicy(AdjustmentMethod.BONFERRONI),
    "dunnett": AdjustmentPolicy(AdjustmentMethod.DUNNETT),
}
_ADJUSTMENTS = tuple(_POLICIES)


class _Row(NamedTuple):
    """One line of results.csv, its fields the columns; None is an empty cell.

    A table or reference series has no sweep value, and an exact value no
    standard error, replications or seed.
    """

    preset: str
    sweep_value: int | None
    design: str
    adjustment: str
    metric: str
    estimate: float | int
    mc_se: float | None = None
    reps: int | None = None
    seed: int | None = None


@dataclass
class _RunContext:
    reps: int = DEFAULT_REPS
    seed: int = DEFAULT_SEED
    workers: int = 1
    mode: SimulationMode = DEFAULT_MODE
    sweep: object = None  # the sweep override as given; _sweep_values checks it


@dataclass(frozen=True)
class PresetResult:
    """Paths of the files one preset run wrote."""

    out_dir: Path
    results_csv: Path
    results_json: Path
    plotdata_paths: tuple[Path, ...]


def _scenario_seed(base: int, *parts) -> int:
    digest = hashlib.blake2s(repr((base,) + parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _scenario_record(label, sweep, adjustment, config, oc):
    return {
        "kind": "simulation",
        "design_label": label,
        "sweep_value": sweep,
        "adjustment": adjustment,
        "seed": config.seed,
        "reps": config.reps,
        "mode": config.mode.value,
        "effects": list(config.effects),
        "design": config.design.to_dict(),
        "correlation": [list(r) for r in analytic_correlation(config.design).entries],
        "metrics": oc.to_dict(),
    }


def _emit_simulated(preset, sweep, label, adjustment, metrics, config, oc, rows, scenarios):
    """Append the result rows and the scenario record of one simulated scenario.

    A row is written for each estimate the scenario has among ``metrics``,
    or for every estimate when ``metrics`` is None.
    """
    rows += [
        _Row(preset, sweep, label, adjustment, metric, est.value, est.se, oc.reps, config.seed)
        for metric, est in oc.estimates().items()
        if metrics is None or metric in metrics
    ]
    scenarios.append(_scenario_record(label, sweep, adjustment, config, oc))


ERROR_METRICS = ("fwer", "kfwer_2", "kfwer_3", "pfer")
_KFWER_METRICS = ("fwer", "kfwer_2", "kfwer_3")
_POWER_SUMMARIES = ("disjunctive_power", "conjunctive_power")

_EFFECTS = {
    "null": lambda m: (0.0,) * m,
    "first": lambda m: (EFFECT_SIZE,) + (0.0,) * (m - 1),
    "last": lambda m: (0.0,) * (m - 1) + (EFFECT_SIZE,),
    "all": lambda m: (EFFECT_SIZE,) * m,
}


def _sweep_values(ctx, default):
    """The run's sweep override, or else ``default``, as distinct ints, at least one."""
    values = default if ctx.sweep is None else ctx.sweep
    grid = tuple(values) if hasattr(values, "__iter__") and not isinstance(values, str) else ()
    if not grid or not all(isinstance(v, int) and not isinstance(v, bool) for v in grid):
        raise ValueError(f"sweep must be a non-empty sequence of integers, got {values!r}")
    if len(set(grid)) < len(grid):
        raise ValueError(f"sweep values must be distinct, got {list(grid)}")
    return grid


def _arm_grid(ctx):
    grid = _sweep_values(ctx, ARM_GRID)
    if any(m < 2 for m in grid):
        raise ValueError(f"arm sweep values must be at least 2, got {list(grid)}")
    return grid


def _shift_grid(ctx):
    grid = _sweep_values(ctx, SHIFT_GRID)
    if any(not 0 <= s <= 150 for s in grid):
        raise ValueError(f"shift sweep values must lie in 0..150, got {list(grid)}")
    return grid


@dataclass(frozen=True)
class _Simulated:
    """A simulated series: one design per sweep value, run under each adjustment.

    ``seed_by`` names what enters the seed key besides the preset and label:
    "sweep", "adjustment" or nothing. A series seeded by neither uses common
    random numbers across the whole sweep.
    """

    label: str
    adjustments: tuple[str, ...]
    design: Callable  # sweep value -> PlatformDesign
    seed_by: tuple[str, ...] = ()
    reference: bool = False

    def steps(self, preset, spec, sweep, ctx):
        design = self.design(sweep)
        effects = _EFFECTS[spec.effects](design.num_arms)
        steps = []
        for adjustment in self.adjustments:
            key = (preset, self.label)
            key += (sweep,) if "sweep" in self.seed_by else ()
            key += (adjustment,) if "adjustment" in self.seed_by else ()
            config = ScenarioConfig(
                design=design,
                effects=effects,
                policy=_POLICIES[adjustment],
                reps=ctx.reps,
                seed=_scenario_seed(ctx.seed, *key),
                mode=ctx.mode,
            )
            emit = functools.partial(
                _emit_simulated, preset, sweep, self.label, adjustment, spec.metrics, config
            )
            steps.append((config, emit))
        return steps


@dataclass(frozen=True)
class _RequiredN:
    """Smallest per-arm n that gives ``arm`` the power goal, per adjustment."""

    label: str
    adjustments: tuple[str, ...]
    design: Callable  # (sweep value, n) -> PlatformDesign
    arm: int = 0
    reference: bool = False

    def steps(self, preset, spec, sweep, ctx):
        template = functools.partial(self.design, sweep)
        target = PowerTarget(POWER_GOAL, EFFECT_SIZE)
        return [
            (
                (target, _POLICIES[adjustment], template, self.arm),
                functools.partial(self._emit, preset, sweep, adjustment, template),
            )
            for adjustment in self.adjustments
        ]

    def _emit(self, preset, sweep, adjustment, template, n, rows, scenarios):
        total = template(n).total_sample_size()
        for metric, value in (("required_n_per_arm", n), ("required_total_n", total)):
            rows.append(_Row(preset, sweep, self.label, adjustment, metric, value))
        scenarios.append(
            dict(kind="exact", design_label=self.label, sweep_value=sweep,
                 adjustment=adjustment, required_n_per_arm=n, required_total_n=total)
        )


@dataclass(frozen=True)
class _ComparisonN:
    """Per-side size of the late arm's comparison under the sponsor budget."""

    reference = False  # not a field: the comparison size is read at each sweep value

    def steps(self, preset, spec, sweep, ctx):
        n = build_budget_design(sweep, SPONSOR_BUDGET).comparison_sizes(2)[0]
        row = _Row(preset, sweep, "common", "", "comparison_n", n)
        return [(None, lambda _oc, rows, scenarios: rows.append(row))]


@dataclass(frozen=True)
class _Preset:
    """One table or figure: a grid, its series and plots, effects and metrics.

    Each plot is (file stem, index header, columns) and each column is
    (header, design label, adjustment, metric). A preset without a grid is a
    table indexed by metric, and its columns give no metric. Design builders
    are callables that look module functions up when they run, so nothing is
    built at import and a wrapper rebound on a module sees every call.
    """

    grid: Callable | None  # run context -> sweep values
    series: tuple
    plots: tuple
    effects: str = "null"  # key of _EFFECTS
    metrics: tuple[str, ...] = ()  # of the simulated series


def _series_columns(pairs, metric, suffix=""):
    """Columns named design_adjustment<suffix>, one per (design, adjustment)."""
    return tuple((f"{d}_{a}{suffix}", d, a, metric) for d, a in pairs)


def _metric_columns(designs, metrics):
    """Unadjusted columns named design_metric, without a "_power" suffix."""
    return tuple(
        (f"{d}_{m.removesuffix('_power')}", d, "unadjusted", m) for d in designs for m in metrics
    )


def _pivot(rows, index, grid, columns, metrics):
    """One plot table, read from the result rows.

    A cell at a sweep value falls back to the reference row (no sweep value)
    of the same design, adjustment and metric, and then to an empty cell.
    """
    cells = {(r.sweep_value, r.design, r.adjustment, r.metric): r for r in rows}

    def cell(sweep, design, adjustment, metric):
        key = (design, adjustment, metric)
        row = cells.get((sweep,) + key) or cells.get((None,) + key)
        return None if row is None else row.estimate

    header = [index] + [c[0] for c in columns]
    if grid is None:
        return header, [
            [metric] + [cell(None, d, a, metric) for _, d, a, _ in columns] for metric in metrics
        ]
    return header, [[v] + [cell(v, d, a, mt) for _, d, a, mt in columns] for v in grid]


def _run_spec(preset, spec, ctx):
    """Rows, scenario records and plot tables of one preset spec.

    Every series lists its steps in report order: a step is a request (a
    scenario to simulate, the argument tuple of a required-n search, or
    None) and a function that appends its rows and records given the
    answer. All searches then run in one ``required_per_arm_ns`` call, whose
    lockstep rounds solve their Dunnett thresholds in batches, and all
    simulated scenarios in one ``run_scenarios`` call, so those that share a
    seed draw their random numbers once.
    """
    grid = None if spec.grid is None else spec.grid(ctx)
    steps = []
    for sweep in (None,) if grid is None else grid:
        for series in spec.series:
            if not series.reference:
                steps += series.steps(preset, spec, sweep, ctx)
    for series in spec.series:
        if series.reference:
            steps += series.steps(preset, spec, None, ctx)
    sized = iter(required_per_arm_ns([r for r, _ in steps if isinstance(r, tuple)]))
    configs = [r for r, _ in steps if isinstance(r, ScenarioConfig)]
    simulated = iter(run_scenarios(configs, workers=ctx.workers))
    rows, scenarios = [], []
    for request, emit in steps:
        if request is None:
            answer = None
        elif isinstance(request, ScenarioConfig):
            answer = next(simulated)
        else:
            answer = next(sized)
        emit(answer, rows, scenarios)
    plotdata = {
        stem: _pivot(rows, index, grid, columns, spec.metrics)
        for stem, index, columns in spec.plots
    }
    return rows, scenarios, plotdata


def _individual_three_arm(_sweep):
    return build_fixed_design(3, 150, ControlMode.INDIVIDUAL)


_CC_IC = tuple(("common", a) for a in _ADJUSTMENTS) + (("individual", "unadjusted"),)
_BOTH = ("common", "individual")
_UNADJUSTED = ("unadjusted",)


def _error_table(name, cc_design):
    return _Preset(
        grid=None,
        series=(
            _Simulated("common", _ADJUSTMENTS, cc_design),
            _Simulated("individual", _UNADJUSTED, _individual_three_arm),
        ),
        plots=((name, "metric", _series_columns(_CC_IC, None)),),
        metrics=ERROR_METRICS,
    )


_PRESETS = {
    "table3": _error_table("table3", lambda _: build_fixed_design(3, 150, ControlMode.COMMON)),
    "table4": _error_table("table4", lambda _: build_staggered_design(150, 80)),
    "fig2_kfwer_sweep": _Preset(
        grid=_arm_grid,
        metrics=_KFWER_METRICS,
        series=(
            _Simulated("common", _UNADJUSTED,
                       lambda m: build_fixed_design(m, 150, ControlMode.COMMON),
                       seed_by=("sweep",)),
            _Simulated("individual", _UNADJUSTED,
                       lambda m: build_fixed_design(m, 150, ControlMode.INDIVIDUAL),
                       seed_by=("sweep",)),
        ),
        plots=(("fig2_kfwer_sweep", "num_arms", _metric_columns(_BOTH, _KFWER_METRICS)),),
    ),
    "fig3_required_n": _Preset(
        grid=_arm_grid,
        series=(
            _RequiredN("common", _ADJUSTMENTS,
                       lambda m, n: build_fixed_design(m, n, ControlMode.COMMON)),
            _RequiredN("individual", _UNADJUSTED,
                       lambda m, n: build_fixed_design(m, n, ControlMode.INDIVIDUAL)),
        ),
        plots=(
            ("fig3_required_n", "num_arms", _series_columns(_CC_IC, "required_total_n", "_total")),
        ),
    ),
    "fig3_power_fixed_total": _Preset(
        grid=_arm_grid,
        effects="first",
        metrics=("marginal_power_1",),
        series=(
            _Simulated("common", _ADJUSTMENTS,
                       lambda m: build_fixed_total_design(FIXED_TOTAL, m, ControlMode.COMMON),
                       seed_by=("sweep",)),
            _Simulated("common_sqrt_m", ("dunnett",),
                       lambda m: build_fixed_total_design(FIXED_TOTAL, m, ControlMode.COMMON,
                                                          math.sqrt(m)),
                       seed_by=("sweep",)),
            _Simulated("individual", _UNADJUSTED,
                       lambda m: build_fixed_total_design(FIXED_TOTAL, m, ControlMode.INDIVIDUAL),
                       seed_by=("sweep",)),
        ),
        plots=(
            (
                "fig3_power_fixed_total",
                "num_arms",
                _series_columns(_CC_IC[:3] + (("common_sqrt_m", "dunnett"),) + _CC_IC[3:],
                                "marginal_power_1"),
            ),
        ),
    ),
    "fig4_disj_conj": _Preset(
        grid=_arm_grid,
        effects="all",
        metrics=_POWER_SUMMARIES,
        series=(
            _Simulated("common", _UNADJUSTED,
                       lambda m: build_fixed_total_design(FIXED_TOTAL, m, ControlMode.COMMON),
                       seed_by=("sweep",)),
            _Simulated("individual", _UNADJUSTED,
                       lambda m: build_fixed_total_design(FIXED_TOTAL, m, ControlMode.INDIVIDUAL),
                       seed_by=("sweep",)),
        ),
        plots=(("fig4_disj_conj", "num_arms", _metric_columns(_BOTH, _POWER_SUMMARIES)),),
    ),
    "fig5_flex_fwer": _Preset(
        grid=_shift_grid,
        metrics=_KFWER_METRICS,
        series=(
            # one seed for the whole series: common random numbers across shifts
            _Simulated("common", _UNADJUSTED, lambda s: build_staggered_design(150, s)),
            _Simulated("individual", _UNADJUSTED, _individual_three_arm, reference=True),
        ),
        plots=(("fig5_flex_fwer", "shift", _metric_columns(_BOTH, _KFWER_METRICS)),),
    ),
    "fig6_flex_n_and_power": _Preset(
        grid=_shift_grid,
        effects="last",
        metrics=("marginal_power_3",),
        series=(
            _RequiredN("common", _ADJUSTMENTS, lambda s, n: build_staggered_design(n, s), arm=2),
            _ComparisonN(),
            _Simulated("common", _ADJUSTMENTS, lambda s: build_budget_design(s, SPONSOR_BUDGET),
                       seed_by=("adjustment",)),
            _RequiredN("individual", _UNADJUSTED,
                       lambda _, n: build_fixed_design(3, n, ControlMode.INDIVIDUAL), arm=2,
                       reference=True),
            _Simulated("individual", _UNADJUSTED, _individual_three_arm, reference=True),
        ),
        plots=(
            ("fig6_flex_required_n", "shift",
             _series_columns(_CC_IC, "required_total_n", "_total")),
            ("fig6_flex_budget_power", "shift",
             (("comparison_n", "common", "", "comparison_n"),)
             + _series_columns(_CC_IC, "marginal_power_3")),
        ),
    ),
    "fig7_flex_disj_conj": _Preset(
        grid=_shift_grid,
        effects="all",
        metrics=_POWER_SUMMARIES,
        series=(
            _Simulated("common", _UNADJUSTED, lambda s: build_budget_design(s, SPONSOR_BUDGET)),
            _Simulated("individual", _UNADJUSTED, _individual_three_arm, reference=True),
        ),
        plots=(("fig7_flex_disj_conj", "shift", _metric_columns(_BOTH, _POWER_SUMMARIES)),),
    ),
}


def available_presets() -> tuple[str, ...]:
    return tuple(_PRESETS)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sort_key(row: _Row):
    sweep_key = (0, 0) if row.sweep_value is None else (1, row.sweep_value)
    return (row.preset, sweep_key, row.design, row.adjustment, row.metric)


@contextlib.contextmanager
def _replacing(path: Path):
    """Open a temporary sibling of ``path`` for writing and rename it onto ``path``
    once written, so a failed run leaves the previous file or none, never part of one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path, header, table):
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for line in table:
            writer.writerow([_format_cell(c) for c in line])


def _write_reports(name, rows, scenarios, plotdata, ctx, out_dir) -> PresetResult:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results_csv = out / "results.csv"
    _write_csv(results_csv, _Row._fields, sorted(rows, key=_sort_key))
    results_json = out / "results.json"
    payload = {
        "preset": name,
        "reps": ctx.reps,
        "seed": ctx.seed,
        "mode": ctx.mode.value,
        "scenarios": scenarios,
    }
    with _replacing(results_json) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    plot_paths = []
    if plotdata:
        plot_dir = out / "plotdata"
        plot_dir.mkdir(exist_ok=True)
        for stem, (header, table) in plotdata.items():
            path = plot_dir / f"{stem}.csv"
            _write_csv(path, header, table)
            plot_paths.append(path)
    return PresetResult(out, results_csv, results_json, tuple(plot_paths))


def _choice(name, enum, value):
    """The member of ``enum`` whose value is ``value``; else a ValueError that
    starts with ``name`` and names the accepted values."""
    try:
        return enum(value)
    except ValueError as exc:
        accepted = " or ".join(repr(member.value) for member in enum)
        raise ValueError(f"{name} must be {accepted}, got {value!r}") from exc


def _context_from_overrides(overrides, ctx=None) -> _RunContext:
    """Apply run overrides to ``ctx`` (default: a fresh preset context)."""
    overrides = dict(overrides or {})
    ctx = _RunContext() if ctx is None else ctx
    for key, minimum in (("reps", 1), ("seed", None), ("workers", 1)):
        if key in overrides:
            setattr(ctx, key, _checked_int(key, overrides.pop(key), minimum))
    if "mode" in overrides:
        ctx.mode = _choice("mode", SimulationMode, overrides.pop("mode"))
    if "sweep" in overrides:
        ctx.sweep = overrides.pop("sweep")
    if overrides:
        raise ValueError(f"unknown overrides: {sorted(overrides)}")
    return ctx


def run_preset(name: str, overrides=None, out_dir="results") -> PresetResult:
    """Run a preset and write results.csv, results.json and plotdata CSVs.

    Reruns with the same seed produce byte-identical files regardless of the
    worker count.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")
    ctx = _context_from_overrides(overrides)
    if _PRESETS[name].grid is None and ctx.sweep is not None:
        raise ValueError(f"preset {name!r} has no sweep grid, so it takes no sweep override")
    rows, scenarios, plotdata = _run_spec(name, _PRESETS[name], ctx)
    return _write_reports(name, rows, scenarios, plotdata, ctx, out_dir)


_MAX_N = 2**63 - 1  # patient counts enter numpy as int64

_CONFIG_KEYS = {
    "m",
    "n",
    "control",
    "effects",
    "shift",
    "alpha",
    "adjustment",
    "sidedness",
    "reps",
    "seed",
    "mode",
    "kfwer_levels",
}


def load_config(path) -> ScenarioConfig:
    """Load and validate a single-scenario JSON configuration.

    Unknown keys are rejected; defaults are alpha 0.05 two-sided, no
    adjustment, and the engine's default replications, seed and mode.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    def field(key, default=None, required=False):
        if key in data:
            return data[key]
        if required:
            raise ValueError(f"config field '{key}' is required")
        return default

    def int_field(key, default=None, required=False, minimum=None):
        value = field(key, default, required)
        return None if value is None else _checked_int(f"config field '{key}'", value, minimum)

    m = int_field("m", required=True, minimum=1)
    n = int_field("n", required=True, minimum=1)
    if n > _MAX_N:
        raise ValueError(f"config field 'n' must be at most {_MAX_N}, got {n}")
    control = _choice("config field 'control'", ControlMode, field("control", required=True))
    effects = field("effects", required=True)
    if not isinstance(effects, list) or not all(isinstance(e, (int, float)) and not isinstance(e, bool) for e in effects):
        raise ValueError("config field 'effects' must be a list of numbers")
    if len(effects) != m:
        raise ValueError(f"config field 'effects' must have length m={m}, got {len(effects)}")
    shift = int_field("shift", minimum=0)
    if shift is not None:
        if control is not ControlMode.COMMON or m != 3:
            raise ValueError("config field 'shift' needs control='common' and m=3")
        if shift > n:
            raise ValueError(f"config field 'shift' must be at most n={n}, got {shift}")
        design = build_staggered_design(n, shift)
    else:
        design = build_fixed_design(m, n, control)
    try:
        comparison_mean_shifts(design, effects)
    except ValueError as exc:
        raise ValueError(
            "config field 'effects' must be finite numbers whose z-statistic means are finite, "
            f"got {effects}"
        ) from exc
    alpha = field("alpha", 0.05)
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool) or not 0 < alpha < 1:
        raise ValueError("config field 'alpha' must lie strictly between 0 and 1")
    adjustment = _choice("config field 'adjustment'", AdjustmentMethod, field("adjustment", "unadjusted"))
    sidedness = _choice("config field 'sidedness'", Sidedness, field("sidedness", "two_sided"))
    policy = AdjustmentPolicy(adjustment, float(alpha), sidedness)
    try:
        critical_values([(policy, design)])  # a Dunnett threshold is memoized for the process
    except ValueError as exc:
        msg = f"config field 'alpha' is too small for a finite threshold, got {alpha}"
        raise ValueError(msg) from exc
    reps = int_field("reps", DEFAULT_REPS, minimum=1)
    seed = int_field("seed", DEFAULT_SEED, minimum=0)
    mode = _choice("config field 'mode'", SimulationMode, field("mode", DEFAULT_MODE.value))
    levels = field("kfwer_levels")  # absent: the engine's default levels
    if "kfwer_levels" in data:
        if not isinstance(levels, list) or not all(isinstance(k, int) and not isinstance(k, bool) for k in levels):
            raise ValueError("config field 'kfwer_levels' must be a list of integers")
        if not all(1 <= k <= m for k in levels):
            raise ValueError(f"config field 'kfwer_levels' must lie in 1..m={m}, got {levels}")
    return ScenarioConfig(
        design=design,
        effects=tuple(float(e) for e in effects),
        policy=policy,
        reps=reps,
        seed=seed,
        mode=mode,
        kfwer_levels=levels,
    )


def run_config(path, overrides=None, out_dir="results") -> PresetResult:
    """Run a single config-file scenario with the preset report formats."""
    config = load_config(path)
    if "sweep" in (overrides or {}):
        raise ValueError("sweep overrides only apply to presets")
    ctx = _context_from_overrides(
        overrides, _RunContext(reps=config.reps, seed=config.seed, mode=config.mode)
    )
    config = replace(config, reps=ctx.reps, seed=ctx.seed, mode=ctx.mode)
    oc = run_scenario(config, workers=ctx.workers)
    label = config.design.control_mode.value
    adjustment = config.policy.method.value
    rows, scenarios = [], []
    _emit_simulated("custom", None, label, adjustment, None, config, oc, rows, scenarios)
    return _write_reports("custom", rows, scenarios, {}, ctx, out_dir)
