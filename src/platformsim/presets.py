"""Preset scenario catalog, config ingestion and report emission.

Each preset fixes designs, effect vectors, adjustment policies and sweep
grids for one table or figure of the case study: the fixed four-arm error
table (table3), its staggered variant (table4), the fixed-platform sweeps
over the number of arms (fig2-fig4) and the flexible-platform sweeps over
the late arm's entry shift (fig5-fig7). Reports are a long-format
results.csv, a structured results.json and per-figure plotdata CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .adjust import AdjustmentMethod, AdjustmentPolicy
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


def _simulate(ctx: _RunContext, design, effects, adjustment: str, series_key: tuple):
    seed = _scenario_seed(ctx.seed, *series_key)
    config = ScenarioConfig(
        design=design,
        effects=tuple(effects),
        policy=_POLICIES[adjustment],
        reps=ctx.reps,
        seed=seed,
        mode=ctx.mode,
        kfwer_levels=_levels(design.num_arms),
    )
    return run_scenario(config, workers=ctx.workers), seed


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


def _estimate_rows(preset, sweep, design_label, adjustment, oc, seed, metrics):
    """Rows for the named metrics of one simulated scenario."""
    rows = []

    def add(metric, est):
        if est is None:
            return
        rows.append(
            _row(preset, sweep, design_label, adjustment, metric, est.value, est.se, oc.reps, seed)
        )

    for metric in metrics:
        if metric == "fwer":
            add("fwer", oc.fwer)
        elif metric.startswith("kfwer_"):
            k = int(metric.split("_")[1])
            if k in oc.kfwer:
                add(metric, oc.kfwer[k])
        elif metric == "pfer":
            add("pfer", oc.pfer)
        elif metric.startswith("marginal_power_"):
            arm = int(metric.split("_")[-1]) - 1
            if oc.marginal_power is not None and oc.marginal_power[arm] is not None:
                add(metric, oc.marginal_power[arm])
        elif metric == "disjunctive_power":
            add(metric, oc.disjunctive_power)
        elif metric == "conjunctive_power":
            add(metric, oc.conjunctive_power)
        else:
            raise ValueError(f"unknown metric {metric!r}")
    return rows


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


def _error_table_preset(preset, ctx, cc_design):
    """Shared body of the table3/table4 error-rate grids."""
    rows, scenarios = [], []
    null = (0.0, 0.0, 0.0)
    ic_design = build_fixed_design(3, 150, ControlMode.INDIVIDUAL)
    columns = {}
    for adjustment in _ADJUSTMENTS:
        oc, seed = _simulate(ctx, cc_design, null, adjustment, (preset, "common"))
        rows += _estimate_rows(preset, None, "common", adjustment, oc, seed, ERROR_METRICS)
        scenarios.append(_scenario_record("common", None, adjustment, cc_design, null, oc, seed, ctx))
        columns[("common", adjustment)] = oc
    oc, seed = _simulate(ctx, ic_design, null, "unadjusted", (preset, "individual"))
    rows += _estimate_rows(preset, None, "individual", "unadjusted", oc, seed, ERROR_METRICS)
    scenarios.append(_scenario_record("individual", None, "unadjusted", ic_design, null, oc, seed, ctx))
    columns[("individual", "unadjusted")] = oc

    order = [("common", a) for a in _ADJUSTMENTS] + [("individual", "unadjusted")]
    header = ["metric"] + [f"{d}_{a}" for d, a in order]
    table = []
    for metric in ERROR_METRICS:
        line = [metric]
        for key in order:
            oc = columns[key]
            if metric == "fwer":
                line.append(oc.fwer.value)
            elif metric == "pfer":
                line.append(oc.pfer.value)
            else:
                line.append(oc.kfwer[int(metric.split("_")[1])].value)
        table.append(line)
    plotdata = {preset: (header, table)}
    return rows, scenarios, plotdata


def _run_table3(ctx):
    return _error_table_preset("table3", ctx, build_fixed_design(3, 150, ControlMode.COMMON))


def _run_table4(ctx):
    return _error_table_preset("table4", ctx, build_staggered_design(150, 80))


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


def _run_fig2(ctx):
    preset = "fig2_kfwer_sweep"
    rows, scenarios = [], []
    series = {}
    grid = _arm_grid(ctx)
    metrics = ("fwer", "kfwer_2", "kfwer_3")
    for m in grid:
        null = (0.0,) * m
        for label, mode in (("common", ControlMode.COMMON), ("individual", ControlMode.INDIVIDUAL)):
            design = build_fixed_design(m, 150, mode)
            oc, seed = _simulate(ctx, design, null, "unadjusted", (preset, label, m))
            rows += _estimate_rows(preset, m, label, "unadjusted", oc, seed, metrics)
            scenarios.append(_scenario_record(label, m, "unadjusted", design, null, oc, seed, ctx))
            series[(label, m)] = oc
    header = ["num_arms"]
    for label in ("common", "individual"):
        header += [f"{label}_fwer", f"{label}_kfwer_2", f"{label}_kfwer_3"]
    table = []
    for m in grid:
        line = [m]
        for label in ("common", "individual"):
            oc = series[(label, m)]
            line.append(oc.fwer.value)
            line.append(oc.kfwer[2].value if 2 in oc.kfwer else "")
            line.append(oc.kfwer[3].value if 3 in oc.kfwer else "")
        table.append(line)
    return rows, scenarios, {preset: (header, table)}


def _run_fig3_required_n(ctx):
    preset = "fig3_required_n"
    rows, scenarios = [], []
    target = PowerTarget(POWER_GOAL, EFFECT_SIZE)
    grid = _arm_grid(ctx)
    totals = {}
    for m in grid:
        for adjustment in _ADJUSTMENTS:
            n = required_per_arm_n(target, _POLICIES[adjustment], fixed_template(m, ControlMode.COMMON))
            total = n * (m + 1)
            rows.append(_exact_row(preset, m, "common", adjustment, "required_n_per_arm", n))
            rows.append(_exact_row(preset, m, "common", adjustment, "required_total_n", total))
            totals[("common", adjustment, m)] = total
            scenarios.append(
                {
                    "kind": "exact",
                    "design_label": "common",
                    "sweep_value": m,
                    "adjustment": adjustment,
                    "required_n_per_arm": n,
                    "required_total_n": total,
                }
            )
        n_ic = required_per_arm_n(target, _POLICIES["unadjusted"], fixed_template(m, ControlMode.INDIVIDUAL))
        total_ic = 2 * m * n_ic
        rows.append(_exact_row(preset, m, "individual", "unadjusted", "required_n_per_arm", n_ic))
        rows.append(_exact_row(preset, m, "individual", "unadjusted", "required_total_n", total_ic))
        totals[("individual", "unadjusted", m)] = total_ic
        scenarios.append(
            {
                "kind": "exact",
                "design_label": "individual",
                "sweep_value": m,
                "adjustment": "unadjusted",
                "required_n_per_arm": n_ic,
                "required_total_n": total_ic,
            }
        )
    header = ["num_arms"] + [f"common_{a}_total" for a in _ADJUSTMENTS] + ["individual_unadjusted_total"]
    table = [
        [m]
        + [totals[("common", a, m)] for a in _ADJUSTMENTS]
        + [totals[("individual", "unadjusted", m)]]
        for m in grid
    ]
    return rows, scenarios, {preset: (header, table)}


def _fixed_total_design(m: int, ratio: float):
    split = split_fixed_total(600, m, ControlMode.COMMON, ratio)
    recruitment = ((split.control,),) + ((split.per_treatment,),) * m
    return PlatformDesign(ControlMode.COMMON, recruitment)


def _run_fig3_power(ctx):
    preset = "fig3_power_fixed_total"
    rows, scenarios = [], []
    grid = _arm_grid(ctx)
    series = {}
    for m in grid:
        effects = (EFFECT_SIZE,) + (0.0,) * (m - 1)
        design_cc = _fixed_total_design(m, 1.0)
        for adjustment in _ADJUSTMENTS:
            oc, seed = _simulate(ctx, design_cc, effects, adjustment, (preset, "common", m))
            rows += _estimate_rows(preset, m, "common", adjustment, oc, seed, ("marginal_power_1",))
            scenarios.append(_scenario_record("common", m, adjustment, design_cc, effects, oc, seed, ctx))
            series[("common", adjustment, m)] = oc
        design_sqrt = _fixed_total_design(m, math.sqrt(m))
        oc, seed = _simulate(ctx, design_sqrt, effects, "dunnett", (preset, "common_sqrt_m", m))
        rows += _estimate_rows(preset, m, "common_sqrt_m", "dunnett", oc, seed, ("marginal_power_1",))
        scenarios.append(_scenario_record("common_sqrt_m", m, "dunnett", design_sqrt, effects, oc, seed, ctx))
        series[("common_sqrt_m", "dunnett", m)] = oc
        split = split_fixed_total(600, m, ControlMode.INDIVIDUAL)
        design_ic = build_fixed_design(m, split.per_treatment, ControlMode.INDIVIDUAL)
        oc, seed = _simulate(ctx, design_ic, effects, "unadjusted", (preset, "individual", m))
        rows += _estimate_rows(preset, m, "individual", "unadjusted", oc, seed, ("marginal_power_1",))
        scenarios.append(_scenario_record("individual", m, "unadjusted", design_ic, effects, oc, seed, ctx))
        series[("individual", "unadjusted", m)] = oc
    header = ["num_arms"] + [f"common_{a}" for a in _ADJUSTMENTS] + ["common_sqrt_m_dunnett", "individual_unadjusted"]
    table = []
    for m in grid:
        line = [m]
        for a in _ADJUSTMENTS:
            line.append(series[("common", a, m)].marginal_power[0].value)
        line.append(series[("common_sqrt_m", "dunnett", m)].marginal_power[0].value)
        line.append(series[("individual", "unadjusted", m)].marginal_power[0].value)
        table.append(line)
    return rows, scenarios, {preset: (header, table)}


def _run_fig4(ctx):
    preset = "fig4_disj_conj"
    rows, scenarios = [], []
    grid = _arm_grid(ctx)
    series = {}
    metrics = ("disjunctive_power", "conjunctive_power")
    for m in grid:
        effects = (EFFECT_SIZE,) * m
        design_cc = _fixed_total_design(m, 1.0)
        oc, seed = _simulate(ctx, design_cc, effects, "unadjusted", (preset, "common", m))
        rows += _estimate_rows(preset, m, "common", "unadjusted", oc, seed, metrics)
        scenarios.append(_scenario_record("common", m, "unadjusted", design_cc, effects, oc, seed, ctx))
        series[("common", m)] = oc
        split = split_fixed_total(600, m, ControlMode.INDIVIDUAL)
        design_ic = build_fixed_design(m, split.per_treatment, ControlMode.INDIVIDUAL)
        oc, seed = _simulate(ctx, design_ic, effects, "unadjusted", (preset, "individual", m))
        rows += _estimate_rows(preset, m, "individual", "unadjusted", oc, seed, metrics)
        scenarios.append(_scenario_record("individual", m, "unadjusted", design_ic, effects, oc, seed, ctx))
        series[("individual", m)] = oc
    header = [
        "num_arms",
        "common_disjunctive",
        "common_conjunctive",
        "individual_disjunctive",
        "individual_conjunctive",
    ]
    table = [
        [
            m,
            series[("common", m)].disjunctive_power.value,
            series[("common", m)].conjunctive_power.value,
            series[("individual", m)].disjunctive_power.value,
            series[("individual", m)].conjunctive_power.value,
        ]
        for m in grid
    ]
    return rows, scenarios, {preset: (header, table)}


def _run_fig5(ctx):
    preset = "fig5_flex_fwer"
    rows, scenarios = [], []
    grid = _shift_grid(ctx)
    metrics = ("fwer", "kfwer_2", "kfwer_3")
    null = (0.0, 0.0, 0.0)
    cc = {}
    for shift in grid:
        design = build_staggered_design(150, shift)
        # one seed for the whole series: common random numbers across shifts
        oc, seed = _simulate(ctx, design, null, "unadjusted", (preset, "common"))
        rows += _estimate_rows(preset, shift, "common", "unadjusted", oc, seed, metrics)
        scenarios.append(_scenario_record("common", shift, "unadjusted", design, null, oc, seed, ctx))
        cc[shift] = oc
    design_ic = build_fixed_design(3, 150, ControlMode.INDIVIDUAL)
    oc_ic, seed = _simulate(ctx, design_ic, null, "unadjusted", (preset, "individual"))
    rows += _estimate_rows(preset, None, "individual", "unadjusted", oc_ic, seed, metrics)
    scenarios.append(_scenario_record("individual", None, "unadjusted", design_ic, null, oc_ic, seed, ctx))
    header = [
        "shift",
        "common_fwer",
        "common_kfwer_2",
        "common_kfwer_3",
        "individual_fwer",
        "individual_kfwer_2",
        "individual_kfwer_3",
    ]
    table = [
        [
            shift,
            cc[shift].fwer.value,
            cc[shift].kfwer[2].value,
            cc[shift].kfwer[3].value,
            oc_ic.fwer.value,
            oc_ic.kfwer[2].value,
            oc_ic.kfwer[3].value,
        ]
        for shift in grid
    ]
    return rows, scenarios, {preset: (header, table)}


def _run_fig6(ctx):
    preset = "fig6_flex_n_and_power"
    rows, scenarios = [], []
    grid = _shift_grid(ctx)
    target = PowerTarget(POWER_GOAL, EFFECT_SIZE)
    effects = (0.0, 0.0, EFFECT_SIZE)
    required = {}
    power = {}
    comparison = {}
    for shift in grid:
        for adjustment in _ADJUSTMENTS:
            n = required_per_arm_n(
                target, _POLICIES[adjustment], staggered_template(shift), arm=2
            )
            total = build_staggered_design(n, shift).total_sample_size()
            rows.append(_exact_row(preset, shift, "common", adjustment, "required_n_per_arm", n))
            rows.append(_exact_row(preset, shift, "common", adjustment, "required_total_n", total))
            required[(adjustment, shift)] = total
            scenarios.append(
                {
                    "kind": "exact",
                    "design_label": "common",
                    "sweep_value": shift,
                    "adjustment": adjustment,
                    "required_n_per_arm": n,
                    "required_total_n": total,
                }
            )
        allocation = build_budget_design(shift, SPONSOR_BUDGET)
        comparison[shift] = allocation.comparison_n
        rows.append(_exact_row(preset, shift, "common", "", "comparison_n", allocation.comparison_n))
        for adjustment in _ADJUSTMENTS:
            oc, seed = _simulate(ctx, allocation.design, effects, adjustment, (preset, "common", adjustment))
            rows += _estimate_rows(preset, shift, "common", adjustment, oc, seed, ("marginal_power_3",))
            scenarios.append(
                _scenario_record("common", shift, adjustment, allocation.design, effects, oc, seed, ctx)
            )
            power[(adjustment, shift)] = oc
    n_ic = required_per_arm_n(target, _POLICIES["unadjusted"], fixed_template(3, ControlMode.INDIVIDUAL), arm=2)
    rows.append(_exact_row(preset, None, "individual", "unadjusted", "required_n_per_arm", n_ic))
    rows.append(_exact_row(preset, None, "individual", "unadjusted", "required_total_n", 6 * n_ic))
    design_ic = build_fixed_design(3, 150, ControlMode.INDIVIDUAL)
    oc_ic, seed = _simulate(ctx, design_ic, effects, "unadjusted", (preset, "individual"))
    rows += _estimate_rows(preset, None, "individual", "unadjusted", oc_ic, seed, ("marginal_power_3",))
    scenarios.append(_scenario_record("individual", None, "unadjusted", design_ic, effects, oc_ic, seed, ctx))
    header_n = ["shift"] + [f"common_{a}_total" for a in _ADJUSTMENTS] + ["individual_unadjusted_total"]
    table_n = [
        [shift] + [required[(a, shift)] for a in _ADJUSTMENTS] + [6 * n_ic] for shift in grid
    ]
    header_p = (
        ["shift", "comparison_n"]
        + [f"common_{a}" for a in _ADJUSTMENTS]
        + ["individual_unadjusted"]
    )
    table_p = [
        [shift, comparison[shift]]
        + [power[(a, shift)].marginal_power[2].value for a in _ADJUSTMENTS]
        + [oc_ic.marginal_power[2].value]
        for shift in grid
    ]
    plotdata = {
        "fig6_flex_required_n": (header_n, table_n),
        "fig6_flex_budget_power": (header_p, table_p),
    }
    return rows, scenarios, plotdata


def _run_fig7(ctx):
    preset = "fig7_flex_disj_conj"
    rows, scenarios = [], []
    grid = _shift_grid(ctx)
    effects = (EFFECT_SIZE,) * 3
    metrics = ("disjunctive_power", "conjunctive_power")
    cc = {}
    for shift in grid:
        allocation = build_budget_design(shift, SPONSOR_BUDGET)
        oc, seed = _simulate(ctx, allocation.design, effects, "unadjusted", (preset, "common"))
        rows += _estimate_rows(preset, shift, "common", "unadjusted", oc, seed, metrics)
        scenarios.append(
            _scenario_record("common", shift, "unadjusted", allocation.design, effects, oc, seed, ctx)
        )
        cc[shift] = oc
    design_ic = build_fixed_design(3, 150, ControlMode.INDIVIDUAL)
    oc_ic, seed = _simulate(ctx, design_ic, effects, "unadjusted", (preset, "individual"))
    rows += _estimate_rows(preset, None, "individual", "unadjusted", oc_ic, seed, metrics)
    scenarios.append(_scenario_record("individual", None, "unadjusted", design_ic, effects, oc_ic, seed, ctx))
    header = [
        "shift",
        "common_disjunctive",
        "common_conjunctive",
        "individual_disjunctive",
        "individual_conjunctive",
    ]
    table = [
        [
            shift,
            cc[shift].disjunctive_power.value,
            cc[shift].conjunctive_power.value,
            oc_ic.disjunctive_power.value,
            oc_ic.conjunctive_power.value,
        ]
        for shift in grid
    ]
    return rows, scenarios, {preset: (header, table)}


_PRESETS = {
    "table3": _run_table3,
    "table4": _run_table4,
    "fig2_kfwer_sweep": _run_fig2,
    "fig3_required_n": _run_fig3_required_n,
    "fig3_power_fixed_total": _run_fig3_power,
    "fig4_disj_conj": _run_fig4,
    "fig5_flex_fwer": _run_fig5,
    "fig6_flex_n_and_power": _run_fig6,
    "fig7_flex_disj_conj": _run_fig7,
}


def available_presets() -> tuple[str, ...]:
    return tuple(_PRESETS)


def _format_cell(value) -> str:
    if value == "" or value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
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


def _workers_override(value) -> int:
    workers = int(value)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


def _context_from_overrides(overrides) -> _RunContext:
    overrides = dict(overrides or {})
    ctx = _RunContext()
    if "reps" in overrides:
        ctx.reps = int(overrides.pop("reps"))
    if "seed" in overrides:
        ctx.seed = int(overrides.pop("seed"))
    if "workers" in overrides:
        ctx.workers = _workers_override(overrides.pop("workers"))
    if "mode" in overrides:
        mode = overrides.pop("mode")
        ctx.mode = mode if isinstance(mode, SimulationMode) else SimulationMode(mode)
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
    rows, scenarios, plotdata = _PRESETS[name](ctx)
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
    reps = int_field("reps", DEFAULT_REPS, minimum=1)
    seed = int_field("seed", DEFAULT_SEED)
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
    overrides = dict(overrides or {})
    if "sweep" in overrides:
        raise ValueError("sweep overrides only apply to presets")
    if "reps" in overrides:
        config = replace(config, reps=int(overrides.pop("reps")))
    if "seed" in overrides:
        config = replace(config, seed=int(overrides.pop("seed")))
    if "mode" in overrides:
        mode = overrides.pop("mode")
        config = replace(
            config, mode=mode if isinstance(mode, SimulationMode) else SimulationMode(mode)
        )
    workers = _workers_override(overrides.pop("workers", 1))
    if overrides:
        raise ValueError(f"unknown overrides: {sorted(overrides)}")
    ctx = _RunContext(reps=config.reps, seed=config.seed, workers=workers, mode=config.mode)
    oc = run_scenario(config, workers=workers)
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
