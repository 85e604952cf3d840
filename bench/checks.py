"""Output checks against exact oracles.

Given the shared factor the comparison statistics are independent, so for
every preset scenario the rejection count has an exact law
(``distributions.rejection_count_pmf``) and each comparison's marginal power
a closed form (``sample_size.marginal_power``). A Monte Carlo estimate
passes when it lies within ``Z_LIMIT`` standard errors of the exact value,
the standard error being the exact one for ``reps`` replications, floored at
one replication's worth (1 / reps) so that rare events stay checkable.

Each required-n row must meet its definition: power at n reaches the target
and power at n - 1 does not (or n - 1 is not a feasible design).

Every check returns ``(name, ok, detail)``; one check is one operation.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from platformsim.adjust import AdjustmentMethod, AdjustmentPolicy, critical_value
from platformsim.correlation import analytic_correlation
from platformsim.designs import ControlMode, PlatformDesign, build_fixed_design, build_staggered_design
from platformsim.distributions import MvnSpec, rejection_count_pmf
from platformsim.sample_size import comparison_mean_shifts, marginal_power

Z_LIMIT = 5.0
CORRELATION_TOL = 1e-12
POWER_TARGET = 0.9
EFFECT_SIZE = 0.38


def _policy(adjustment: str) -> AdjustmentPolicy:
    return AdjustmentPolicy(AdjustmentMethod(adjustment))


def _within(name, estimate, exact, reps, variance):
    exact = float(exact)
    se = max(math.sqrt(max(variance, 0.0) / reps), 1.0 / reps)
    z = abs(estimate - exact) / se
    return (name, z <= Z_LIMIT, f"estimate {estimate!r} exact {exact!r} z {z:.2f}")


def _proportion(name, estimate, exact, reps):
    return _within(name, estimate, exact, reps, exact * (1.0 - exact))


def check_scenario(scenario: dict) -> list:
    label = (
        f"{scenario['design_label']}/{scenario['adjustment']}/"
        f"sweep={scenario['sweep_value']}"
    )
    design = PlatformDesign.from_dict(scenario["design"])
    effects = np.asarray(scenario["effects"], dtype=float)
    metrics = scenario["metrics"]
    reps = metrics["reps"]
    correlation = analytic_correlation(design)
    recorded = np.asarray(scenario["correlation"], dtype=float)
    gap = float(np.max(np.abs(recorded - correlation.as_array())))
    out = [(f"{label}:correlation", gap <= CORRELATION_TOL, f"max gap {gap!r}")]
    threshold = critical_value(_policy(scenario["adjustment"]), correlation)
    m = design.num_arms
    effective = effects != 0.0
    if not effective.any() or effective.all():
        spec = MvnSpec.from_correlation(correlation)
        pmf = rejection_count_pmf(spec, comparison_mean_shifts(design, effects), threshold)
        counts = np.arange(m + 1)
        if not effective.any():
            out.append(_proportion(f"{label}:fwer", metrics["fwer"]["value"], 1.0 - pmf[0], reps))
            for k, est in metrics["kfwer"].items():
                exact = float(pmf[int(k):].sum())
                out.append(_proportion(f"{label}:kfwer_{k}", est["value"], exact, reps))
            mean = float(counts @ pmf)
            variance = float(counts**2 @ pmf) - mean * mean
            out.append(_within(f"{label}:pfer", metrics["pfer"]["value"], mean, reps, variance))
        else:
            out.append(_proportion(
                f"{label}:disjunctive_power", metrics["disjunctive_power"]["value"],
                1.0 - float(pmf[0]), reps,
            ))
            out.append(_proportion(
                f"{label}:conjunctive_power", metrics["conjunctive_power"]["value"],
                float(pmf[m]), reps,
            ))
    for arm in (int(j) for j in np.flatnonzero(effective)):
        exact = marginal_power(
            design.treatment_total(arm), design.concurrent_control_count(arm),
            float(effects[arm]), threshold,
        )
        est = metrics["marginal_power"][arm]["value"]
        out.append(_proportion(f"{label}:marginal_power_{arm + 1}", est, exact, reps))
    return out


def _search_design(preset, design_label, sweep, n):
    """Design that the required-n search of this row evaluates at n."""
    if preset == "fig3_required_n":
        return build_fixed_design(int(sweep), n, ControlMode(design_label))
    if design_label == "individual":
        return build_fixed_design(3, n, ControlMode.INDIVIDUAL)
    return build_staggered_design(n, int(sweep))


def _search_power(preset, row, n):
    arm = 0 if preset == "fig3_required_n" else 2
    try:
        design = _search_design(preset, row["design"], row["sweep_value"], n)
    except ValueError:
        return None  # infeasible candidate
    threshold = critical_value(_policy(row["adjustment"]), analytic_correlation(design))
    return marginal_power(
        design.treatment_total(arm), design.concurrent_control_count(arm), EFFECT_SIZE, threshold
    )


def check_required_n(preset: str, rows: list) -> list:
    out = []
    totals = {
        (r["sweep_value"], r["design"], r["adjustment"]): int(r["estimate"])
        for r in rows if r["metric"] == "required_total_n"
    }
    for row in rows:
        if row["metric"] != "required_n_per_arm":
            continue
        n = int(row["estimate"])
        label = f"{preset}:{row['design']}/{row['adjustment']}/sweep={row['sweep_value']}:required_n"
        at_n = _search_power(preset, row, n)
        below = _search_power(preset, row, n - 1) if n > 1 else None
        ok = at_n is not None and at_n >= POWER_TARGET and (below is None or below < POWER_TARGET)
        out.append((label, ok, f"n {n} power {at_n!r} power(n-1) {below!r}"))
        total = _search_design(preset, row["design"], row["sweep_value"], n).total_sample_size()
        key = (row["sweep_value"], row["design"], row["adjustment"])
        out.append((f"{label}:total", totals.get(key) == total, f"total {totals.get(key)} vs {total}"))
    return out


def check_run_dir(run_dir) -> list:
    """Every oracle check for one preset or config output directory."""
    payload = json.loads((run_dir / "results.json").read_text(encoding="utf-8"))
    out = []
    for scenario in payload["scenarios"]:
        if scenario["kind"] == "simulation":
            out += check_scenario(scenario)
    with open(run_dir / "results.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if any(r["metric"] == "required_n_per_arm" for r in rows):
        out += check_required_n(payload["preset"], rows)
    return out


def check_outputs(out_dir) -> dict:
    """Run every check on a repetition's outputs; report counts and failures."""
    results = []
    for run_dir in sorted(p.parent for p in out_dir.rglob("results.json")):
        try:
            results += check_run_dir(run_dir)
        except Exception as exc:  # a check that cannot run is a failed check
            results.append((f"{run_dir.name}:unreadable", False, repr(exc)))
    failures = [[name, detail] for name, ok, detail in results if not ok]
    return {"attempted": len(results), "failed": len(failures), "failures": failures}
