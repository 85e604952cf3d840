"""The exact gate: every Monte Carlo cell of every simulating preset against the exact law.

Given the shared factor the comparisons are independent, so each simulated
scenario has an exact joint law of (false, true) rejections,
``distributions.rejection_law``. FWER, k-FWER and PFER come from its false
marginal, disjunctive and conjunctive power from its true marginal, and each
marginal power has a closed form, ``sample_size.marginal_power``. Each preset
that simulates runs at its default seed and replications, and every cell its
``results.json`` reports must lie within ``Z_LIMIT`` standard errors of its
exact value. The standard error is the exact one at the run's replications,
floored at 1 / reps so that a rare event stays checkable.
"""

import json
import math

import numpy as np

from platformsim.adjust import AdjustmentMethod, AdjustmentPolicy, critical_value
from platformsim.correlation import analytic_correlation
from platformsim.designs import PlatformDesign
from platformsim.distributions import MvnSpec, rejection_law
from platformsim.presets import available_presets, run_preset
from platformsim.sample_size import comparison_mean_shifts, marginal_power

Z_LIMIT = 5.0
# every preset but the required-n one simulates
SIMULATING = tuple(name for name in available_presets() if name != "fig3_required_n")


def exact_cells(scenario):
    """(metric, estimate, exact value, exact variance) of every cell the scenario reports."""
    design = PlatformDesign.from_dict(scenario["design"])
    effects = np.asarray(scenario["effects"], dtype=float)
    effective = effects != 0.0
    metrics = scenario["metrics"]
    correlation = analytic_correlation(design)
    policy = AdjustmentPolicy(AdjustmentMethod(scenario["adjustment"]))
    threshold = critical_value(policy, correlation)
    law = rejection_law(
        MvnSpec.from_correlation(correlation),
        comparison_mean_shifts(design, effects),
        effective,
        threshold,
    )
    false, true = law.sum(axis=1), law.sum(axis=0)
    # k-FWER at k = 1 is the FWER
    exact = {"fwer": 1.0 - false[0]}
    exact.update({f"kfwer_{k}": false[int(k):].sum() for k in metrics["kfwer"] if k != "1"})
    if effective.any():
        exact["disjunctive_power"] = 1.0 - true[0]
        exact["conjunctive_power"] = true[-1]
        for arm in map(int, np.flatnonzero(effective)):
            exact[f"marginal_power_{arm + 1}"] = marginal_power(
                design.treatment_total(arm), design.concurrent_control_count(arm),
                float(effects[arm]), threshold,
            )
    reported = {"fwer": metrics["fwer"]}
    reported.update({f"kfwer_{k}": est for k, est in metrics["kfwer"].items() if k != "1"})
    for name in ("disjunctive_power", "conjunctive_power"):
        if metrics[name] is not None:
            reported[name] = metrics[name]
    for arm, est in enumerate(metrics["marginal_power"] or ()):
        if est is not None:
            reported[f"marginal_power_{arm + 1}"] = est
    assert reported.keys() == exact.keys()
    cells = [(name, reported[name]["value"], p, p * (1.0 - p)) for name, p in exact.items()]
    counts = np.arange(len(false))
    mean = counts @ false
    cells.append(("pfer", metrics["pfer"]["value"], mean, counts**2 @ false - mean * mean))
    return cells


def test_every_preset_cell_lies_within_5_se_of_the_exact_law(tmp_path):
    outliers, checked = [], 0
    for preset in SIMULATING:
        result = run_preset(preset, out_dir=tmp_path / preset)
        payload = json.loads(result.results_json.read_text(encoding="utf-8"))
        scenarios = [s for s in payload["scenarios"] if s["kind"] == "simulation"]
        assert scenarios, preset
        for scenario in scenarios:
            reps = scenario["metrics"]["reps"]
            for metric, estimate, exact, variance in exact_cells(scenario):
                se = max(math.sqrt(max(variance, 0.0) / reps), 1.0 / reps)
                z = (estimate - exact) / se
                checked += 1
                if abs(z) > Z_LIMIT:
                    outliers.append(
                        f"{preset}/{scenario['design_label']}/{scenario['adjustment']}/"
                        f"sweep={scenario['sweep_value']}:{metric} estimate {estimate!r} "
                        f"exact {float(exact)!r} z {z:.2f}"
                    )
    assert checked > 0
    assert not outliers, outliers
