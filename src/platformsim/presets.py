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

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from .adjust import AdjustmentMethod, AdjustmentPolicy, critical_value
from .correlation import analytic_correlation
from .designs import (
    ControlMode,
    PlatformDesign,
    build_budget_design,
    build_fixed_design,
    build_staggered_design,
)
from .distributions import Sidedness
from .engine import ScenarioConfig, SimulationMode, run_scenario
from .sample_size import (
    PowerTarget,
    fixed_template,
    required_per_arm_n,
    split_fixed_total,
    staggered_template,
)

DEFAULT_REPS = 50_000
DEFAULT_SEED = 42
DEFAULT_KFWER_LEVELS = (1, 2, 3)
EFFECT_SIZE = 0.38
POWER_GOAL = 0.9
SPONSOR_BUDGET = 300
ARM_GRID = tuple(range(2, 11))
SHIFT_GRID = tuple(range(0, 151, 10))

RESULT_COLUMNS = (
    "preset",
    "sweep_value",
    "design",
    "adjustment",
    "metric",
    "estimate",
    "mc_se",
    "reps",
    "seed",
)

_POLICIES = {
    "unadjusted": AdjustmentPolicy(AdjustmentMethod.UNADJUSTED),
    "bonferroni": AdjustmentPolicy(AdjustmentMethod.BONFERRONI),
    "dunnett": AdjustmentPolicy(AdjustmentMethod.DUNNETT),
}
_ADJUSTMENTS = ("unadjusted", "bonferroni", "dunnett")


@dataclass
class _RunContext:
    reps: int = DEFAULT_REPS
    seed: int = DEFAULT_SEED
    workers: int = 1
    mode: SimulationMode = SimulationMode.SUFFICIENT_STATISTIC
    sweep: tuple | None = None


@dataclass(frozen=True)
class PresetResult:
    """Paths and rows produced by one preset run."""

    name: str
    out_dir: Path
    results_csv: Path
    results_json: Path
    plotdata_paths: tuple[Path, ...]
    rows: tuple[dict, ...]


def _scenario_seed(base: int, *parts) -> int:
    digest = hashlib.blake2s(repr((base,) + parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _levels(num_arms: int) -> tuple[int, ...]:
    return tuple(k for k in DEFAULT_KFWER_LEVELS if k <= num_arms)


def _row(preset, sweep, design_label, adjustment, metric, estimate, mc_se, reps, seed):
    return {
        "preset": preset,
        "sweep_value": "" if sweep is None else str(sweep),
        "design": design_label,
        "adjustment": adjustment,
        "metric": metric,
        "estimate": estimate,
        "mc_se": mc_se,
        "reps": reps,
        "seed": seed,
    }


def _estimate(oc, metric):
    """The estimate of one named metric, or None where the scenario has none."""
    if metric in ("fwer", "pfer", "disjunctive_power", "conjunctive_power"):
        return getattr(oc, metric)
    if metric.startswith("kfwer_"):
        return oc.kfwer.get(int(metric.split("_")[1]))
    if metric.startswith("marginal_power_"):
        arm = int(metric.split("_")[-1]) - 1
        return None if oc.marginal_power is None else oc.marginal_power[arm]
    raise ValueError(f"unknown metric {metric!r}")


def _estimate_rows(preset, sweep, design_label, adjustment, oc, seed, metrics):
    """Rows for the named metrics of one simulated scenario."""
    estimates = [(metric, _estimate(oc, metric)) for metric in metrics]
    return [
        _row(preset, sweep, design_label, adjustment, metric, est.value, est.se, oc.reps, seed)
        for metric, est in estimates
        if est is not None
    ]


def _exact_row(preset, sweep, design_label, adjustment, metric, value):
    return _row(preset, sweep, design_label, adjustment, metric, value, "", "", "")


def _scenario_record(label, sweep, adjustment, design, effects, oc, seed, ctx):
    return {
        "kind": "simulation",
        "design_label": label,
        "sweep_value": sweep,
        "adjustment": adjustment,
        "seed": seed,
        "reps": ctx.reps,
        "mode": ctx.mode.value,
        "effects": list(effects),
        "design": design.to_dict(),
        "correlation": [list(r) for r in analytic_correlation(design).entries],
        "metrics": oc.to_dict(),
    }


ERROR_METRICS = ("fwer", "kfwer_2", "kfwer_3", "pfer")
_KFWER_METRICS = ("fwer", "kfwer_2", "kfwer_3")
_POWER_SUMMARIES = ("disjunctive_power", "conjunctive_power")

_EFFECTS = {
    "null": lambda m: (0.0,) * m,
    "first": lambda m: (EFFECT_SIZE,) + (0.0,) * (m - 1),
    "last": lambda m: (0.0,) * (m - 1) + (EFFECT_SIZE,),
    "all": lambda m: (EFFECT_SIZE,) * m,
}


def _arm_grid(ctx):
    grid = ctx.sweep if ctx.sweep is not None else ARM_GRID
    grid = tuple(int(m) for m in grid)
    if any(m < 2 for m in grid):
        raise ValueError("arm sweep values must be at least 2")
    return grid


def _shift_grid(ctx):
    grid = ctx.sweep if ctx.sweep is not None else SHIFT_GRID
    grid = tuple(int(s) for s in grid)
    if any(not 0 <= s <= 150 for s in grid):
        raise ValueError("shift sweep values must lie in 0..150")
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

    def run(self, preset, spec, sweep, ctx, rows, scenarios):
        design = self.design(sweep)
        effects = _EFFECTS[spec.effects](design.num_arms)
        for adjustment in self.adjustments:
            key = (preset, self.label)
            key += (sweep,) if "sweep" in self.seed_by else ()
            key += (adjustment,) if "adjustment" in self.seed_by else ()
            seed = _scenario_seed(ctx.seed, *key)
            config = ScenarioConfig(
                design=design,
                effects=effects,
                policy=_POLICIES[adjustment],
                reps=ctx.reps,
                seed=seed,
                mode=ctx.mode,
                kfwer_levels=_levels(design.num_arms),
            )
            oc = run_scenario(config, workers=ctx.workers)
            rows += _estimate_rows(preset, sweep, self.label, adjustment, oc, seed, spec.metrics)
            scenarios.append(
                _scenario_record(self.label, sweep, adjustment, design, effects, oc, seed, ctx)
            )


@dataclass(frozen=True)
class _RequiredN:
    """Smallest per-arm n that gives ``arm`` the power goal, per adjustment."""

    label: str
    adjustments: tuple[str, ...]
    template: Callable  # sweep value -> (n -> PlatformDesign)
    arm: int = 0
    reference: bool = False

    def run(self, preset, spec, sweep, ctx, rows, scenarios):
        template = self.template(sweep)
        target = PowerTarget(POWER_GOAL, EFFECT_SIZE)
        for adjustment in self.adjustments:
            n = required_per_arm_n(target, _POLICIES[adjustment], template, arm=self.arm)
            total = template(n).total_sample_size()
            for metric, value in (("required_n_per_arm", n), ("required_total_n", total)):
                rows.append(_exact_row(preset, sweep, self.label, adjustment, metric, value))
            scenarios.append(
                dict(kind="exact", design_label=self.label, sweep_value=sweep,
                     adjustment=adjustment, required_n_per_arm=n, required_total_n=total)
            )


@dataclass(frozen=True)
class _ComparisonN:
    """Per-side size of the late arm's comparison under the sponsor budget."""

    reference = False  # not a field: the comparison size is read at each sweep value

    def run(self, preset, spec, sweep, ctx, rows, scenarios):
        n = build_budget_design(sweep, SPONSOR_BUDGET).comparison_n
        rows.append(_exact_row(preset, sweep, "common", "", "comparison_n", n))


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
    cells = {(r["sweep_value"], r["design"], r["adjustment"], r["metric"]): r for r in rows}

    def cell(sweep, design, adjustment, metric):
        key = (design, adjustment, metric)
        row = cells.get((sweep,) + key) or cells.get(("",) + key)
        return "" if row is None else row["estimate"]

    header = [index] + [c[0] for c in columns]
    if grid is None:
        return header, [
            [metric] + [cell("", d, a, metric) for _, d, a, _ in columns] for metric in metrics
        ]
    return header, [[v] + [cell(str(v), d, a, mt) for _, d, a, mt in columns] for v in grid]


def _run_spec(preset, spec, ctx):
    """Rows, scenario records and plot tables of one preset spec."""
    rows, scenarios = [], []
    grid = None if spec.grid is None else spec.grid(ctx)
    for sweep in (None,) if grid is None else grid:
        for series in spec.series:
            if not series.reference:
                series.run(preset, spec, sweep, ctx, rows, scenarios)
    for series in spec.series:
        if series.reference:
            series.run(preset, spec, None, ctx, rows, scenarios)
    plotdata = {
        stem: _pivot(rows, index, grid, columns, spec.metrics)
        for stem, index, columns in spec.plots
    }
    return rows, scenarios, plotdata


def _fixed_total_design(m: int, ratio: float):
    split = split_fixed_total(600, m, ControlMode.COMMON, ratio)
    recruitment = ((split.control,),) + ((split.per_treatment,),) * m
    return PlatformDesign(ControlMode.COMMON, recruitment)


def _individual_fixed_total(m: int):
    split = split_fixed_total(600, m, ControlMode.INDIVIDUAL)
    return build_fixed_design(m, split.per_treatment, ControlMode.INDIVIDUAL)


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
            _RequiredN("common", _ADJUSTMENTS, lambda m: fixed_template(m, ControlMode.COMMON)),
            _RequiredN("individual", _UNADJUSTED,
                       lambda m: fixed_template(m, ControlMode.INDIVIDUAL)),
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
            _Simulated("common", _ADJUSTMENTS, lambda m: _fixed_total_design(m, 1.0),
                       seed_by=("sweep",)),
            _Simulated("common_sqrt_m", ("dunnett",),
                       lambda m: _fixed_total_design(m, math.sqrt(m)), seed_by=("sweep",)),
            _Simulated("individual", _UNADJUSTED, _individual_fixed_total, seed_by=("sweep",)),
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
            _Simulated("common", _UNADJUSTED, lambda m: _fixed_total_design(m, 1.0),
                       seed_by=("sweep",)),
            _Simulated("individual", _UNADJUSTED, _individual_fixed_total, seed_by=("sweep",)),
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
            _RequiredN("common", _ADJUSTMENTS, lambda s: staggered_template(s), arm=2),
            _ComparisonN(),
            _Simulated("common", _ADJUSTMENTS,
                       lambda s: build_budget_design(s, SPONSOR_BUDGET).design,
                       seed_by=("adjustment",)),
            _RequiredN("individual", _UNADJUSTED,
                       lambda _: fixed_template(3, ControlMode.INDIVIDUAL), arm=2,
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
            _Simulated("common", _UNADJUSTED,
                       lambda s: build_budget_design(s, SPONSOR_BUDGET).design),
            _Simulated("individual", _UNADJUSTED, _individual_three_arm, reference=True),
        ),
        plots=(("fig7_flex_disj_conj", "shift", _metric_columns(_BOTH, _POWER_SUMMARIES)),),
    ),
}


def available_presets() -> tuple[str, ...]:
    return tuple(_PRESETS)


def _format_cell(value) -> str:
    if value == "" or value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sort_key(row):
    sweep = row["sweep_value"]
    sweep_key = (0, 0.0) if sweep == "" else (1, float(sweep))
    return (row["preset"], sweep_key, row["design"], row["adjustment"], row["metric"])


def _write_csv(path: Path, header, table):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for line in table:
            writer.writerow([_format_cell(c) for c in line])


def _write_reports(name, rows, scenarios, plotdata, ctx, out_dir) -> PresetResult:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = sorted(rows, key=_sort_key)
    results_csv = out / "results.csv"
    _write_csv(
        results_csv,
        RESULT_COLUMNS,
        [[row[col] for col in RESULT_COLUMNS] for row in rows],
    )
    results_json = out / "results.json"
    payload = {
        "preset": name,
        "reps": ctx.reps,
        "seed": ctx.seed,
        "mode": ctx.mode.value,
        "scenarios": scenarios,
    }
    with open(results_json, "w", encoding="utf-8", newline="") as fh:
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
    return PresetResult(
        name=name,
        out_dir=out,
        results_csv=results_csv,
        results_json=results_json,
        plotdata_paths=tuple(plot_paths),
        rows=tuple(rows),
    )


def _context_from_overrides(overrides, ctx=None) -> _RunContext:
    """Apply run overrides to ``ctx`` (default: a fresh preset context)."""
    overrides = dict(overrides or {})
    ctx = _RunContext() if ctx is None else ctx
    if "reps" in overrides:
        ctx.reps = int(overrides.pop("reps"))
        if ctx.reps < 1:
            raise ValueError(f"reps must be at least 1, got {ctx.reps}")
    if "seed" in overrides:
        ctx.seed = int(overrides.pop("seed"))
    if "workers" in overrides:
        ctx.workers = int(overrides.pop("workers"))
        if ctx.workers < 1:
            raise ValueError(f"workers must be at least 1, got {ctx.workers}")
    if "mode" in overrides:
        mode = overrides.pop("mode")
        try:
            ctx.mode = SimulationMode(mode)
        except ValueError as exc:
            raise ValueError(f"mode must be 'patient' or 'sufficient', got {mode!r}") from exc
    if "sweep" in overrides:
        sweep = overrides.pop("sweep")
        ctx.sweep = None if sweep is None else tuple(sweep)
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
    rows, scenarios, plotdata = _run_spec(name, _PRESETS[name], ctx)
    return _write_reports(name, rows, scenarios, plotdata, ctx, out_dir)


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
    adjustment, 50,000 replications, sufficient-statistic mode.
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
        if value is None:
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"config field '{key}' must be an integer")
        if minimum is not None and value < minimum:
            raise ValueError(f"config field '{key}' must be at least {minimum}")
        return value

    m = int_field("m", required=True, minimum=1)
    n = int_field("n", required=True, minimum=1)
    control = field("control", required=True)
    if control not in ("common", "individual"):
        raise ValueError("config field 'control' must be 'common' or 'individual'")
    effects = field("effects", required=True)
    if not isinstance(effects, list) or not all(isinstance(e, (int, float)) and not isinstance(e, bool) for e in effects):
        raise ValueError("config field 'effects' must be a list of numbers")
    if len(effects) != m:
        raise ValueError(f"config field 'effects' must have length m={m}, got {len(effects)}")
    shift = int_field("shift", minimum=0)
    if shift is not None:
        if control != "common" or m != 3:
            raise ValueError("config field 'shift' needs control='common' and m=3")
        design = build_staggered_design(n, shift)
    else:
        design = build_fixed_design(m, n, ControlMode(control))
    alpha = field("alpha", 0.05)
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool) or not 0 < alpha < 1:
        raise ValueError("config field 'alpha' must lie strictly between 0 and 1")
    adjustment = field("adjustment", "unadjusted")
    if adjustment not in _POLICIES:
        raise ValueError(f"config field 'adjustment' must be one of {sorted(_POLICIES)}")
    sidedness = field("sidedness", "two_sided")
    try:
        sidedness = Sidedness(sidedness)
    except ValueError as exc:
        raise ValueError("config field 'sidedness' must be 'one_sided' or 'two_sided'") from exc
    policy = AdjustmentPolicy(AdjustmentMethod(adjustment), float(alpha), sidedness)
    try:
        critical_value(policy, analytic_correlation(design))  # cached for the run
    except ValueError as exc:
        msg = f"config field 'alpha' is too small for a finite threshold, got {alpha}"
        raise ValueError(msg) from exc
    reps = int_field("reps", DEFAULT_REPS, minimum=1)
    seed = int_field("seed", DEFAULT_SEED, minimum=0)
    mode = field("mode", "sufficient")
    try:
        mode = SimulationMode(mode)
    except ValueError as exc:
        raise ValueError("config field 'mode' must be 'patient' or 'sufficient'") from exc
    levels = field("kfwer_levels", list(_levels(m)))
    if not isinstance(levels, list) or not all(isinstance(k, int) and not isinstance(k, bool) for k in levels):
        raise ValueError("config field 'kfwer_levels' must be a list of integers")
    return ScenarioConfig(
        design=design,
        effects=tuple(float(e) for e in effects),
        policy=policy,
        reps=reps,
        seed=seed,
        mode=mode,
        kfwer_levels=tuple(levels),
    )


def run_config(path, overrides=None, out_dir="results") -> PresetResult:
    """Run a single config-file scenario with the preset report formats."""
    config = load_config(path)
    if "sweep" in (overrides or {}):
        raise ValueError("sweep overrides only apply to presets")
    ctx = _context_from_overrides(
        overrides, _RunContext(reps=config.reps, seed=config.seed, mode=config.mode)
    )
    if ctx.seed < 0:
        raise ValueError(f"seed must be at least 0 for a config run, got {ctx.seed}")
    config = replace(config, reps=ctx.reps, seed=ctx.seed, mode=ctx.mode)
    oc = run_scenario(config, workers=ctx.workers)
    label = config.design.control_mode.value
    adjustment = config.policy.method.value
    metrics = ["fwer"] + [f"kfwer_{k}" for k in sorted(config.kfwer_levels) if k > 1] + ["pfer"]
    metrics += [f"marginal_power_{j + 1}" for j in range(config.design.num_arms)]
    metrics += ["disjunctive_power", "conjunctive_power"]
    rows = _estimate_rows("custom", None, label, adjustment, oc, config.seed, metrics)
    scenarios = [
        _scenario_record(label, None, adjustment, config.design, config.effects, oc, config.seed, ctx)
    ]
    return _write_reports("custom", rows, scenarios, {}, ctx, out_dir)
