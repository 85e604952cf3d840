"""The exact gate: every Monte Carlo cell of every simulating preset, and of
random valid configs, against the exact law.

``oracles.exact_cells`` gives each reported estimate's exact value: FWER,
k-FWER, PFER and disjunctive and conjunctive power from the exact joint law
of (false, true) rejections, ``distributions.rejection_law``, and marginal
power from its closed form. Every cell must lie within ``Z_LIMIT`` standard
errors of its exact value; ``oracles.z_score`` takes the exact standard
error at the run's replications, floored at 1 / reps so that a rare event
stays checkable.
"""

import json

import pytest
from hypothesis import given, settings

from platformsim.adjust import AdjustmentMethod, AdjustmentPolicy
from platformsim.designs import PlatformDesign
from platformsim.engine import run_scenario
from platformsim.metrics import Estimate, OperatingCharacteristics
from platformsim.presets import available_presets, load_config, run_preset
from oracles import exact_cells, z_score
from strategies import scenario_configs

Z_LIMIT = 5.0
# every preset but the required-n one simulates
SIMULATING = tuple(name for name in available_presets() if name != "fig3_required_n")


def _report(metrics) -> OperatingCharacteristics:
    """The report that a results.json scenario's ``metrics`` encode, as ``to_dict`` wrote it."""

    def est(cell):
        return None if cell is None else Estimate(cell["value"], cell["se"])

    marginal = metrics["marginal_power"]
    return OperatingCharacteristics(
        metrics["reps"],
        {int(k): est(cell) for k, cell in metrics["kfwer"].items()},
        est(metrics["pfer"]),
        None if marginal is None else tuple(map(est, marginal)),
        est(metrics["disjunctive_power"]),
        est(metrics["conjunctive_power"]),
    )


def _outliers(report, exact, label):
    """Every reported cell more than ``Z_LIMIT`` standard errors from its exact value."""
    estimates = report.estimates()
    assert estimates.keys() == exact.keys(), label
    outliers = []
    for name, (value, variance) in exact.items():
        z = z_score(estimates[name].value, value, variance, report.reps)
        if abs(z) > Z_LIMIT:
            outliers.append(
                f"{label}:{name} estimate {estimates[name].value!r} exact {float(value)!r} z {z:.2f}"
            )
    return outliers


def _preset_outliers(out_dir, preset, overrides):
    """(outliers, cells checked) of every simulated scenario of one preset run."""
    outliers, checked = [], 0
    result = run_preset(preset, overrides, out_dir=out_dir)
    payload = json.loads(result.results_json.read_text(encoding="utf-8"))
    scenarios = [s for s in payload["scenarios"] if s["kind"] == "simulation"]
    assert scenarios, preset
    for scenario in scenarios:
        report = _report(scenario["metrics"])
        # the presets' policies have the default alpha and sidedness
        exact = exact_cells(
            PlatformDesign.from_dict(scenario["design"]),
            scenario["effects"],
            AdjustmentPolicy(AdjustmentMethod(scenario["adjustment"])),
            report.kfwer,
        )
        label = (
            f"{preset}/{scenario['design_label']}/{scenario['adjustment']}/"
            f"sweep={scenario['sweep_value']}"
        )
        outliers += _outliers(report, exact, label)
        checked += len(exact)
    return outliers, checked


# 42 is the presets' default seed; 7 and 8297 are two more runs of the same cells
@pytest.mark.parametrize("seed", [42, 7, 8297])
def test_every_preset_cell_lies_within_5_se_of_the_exact_law(tmp_path, seed):
    outliers, checked = [], 0
    for preset in SIMULATING:
        found, cells = _preset_outliers(tmp_path / preset, preset, {"seed": seed})
        outliers += found
        checked += cells
    assert checked == 1_190
    assert not outliers, outliers


def test_patient_mode_tables_lie_within_5_se_of_the_exact_law(tmp_path):
    # Sufficient mode draws z from its covariance factor; patient mode is the one
    # simulation of every patient of every recruitment cell, so it checks the path
    # from recruitment to correlation against the exact law. 20,000 reps keep both
    # tables near 0.7 s; the largest |z| at the default seed is 2.21.
    outliers, checked = [], 0
    for preset in ("table3", "table4"):
        overrides = {"mode": "patient", "reps": 20_000}
        found, cells = _preset_outliers(tmp_path / preset, preset, overrides)
        outliers += found
        checked += cells
    assert checked == 32
    assert not outliers, outliers


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


# Derandomized, as the preset gate runs at three fixed seeds: the cells are Monte Carlo
# estimates. At random examples, 1 of 40 seeds of 60 examples met a rare cell
# 5 SE out by chance (6 of 3,000 replications where 0.93 are expected).
@given(config=scenario_configs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_random_valid_configs_lie_within_5_se_of_the_exact_law(config_path, config):
    # alpha stays at 0.01 or above: Dunnett thresholds at far smaller alpha are less exact
    config_path.write_text(json.dumps(config), encoding="utf-8")
    scenario = load_config(config_path)
    report = run_scenario(scenario)
    exact = exact_cells(scenario.design, scenario.effects, scenario.policy, scenario.kfwer_levels)
    assert not _outliers(report, exact, json.dumps(config))
