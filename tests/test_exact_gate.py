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


def test_every_preset_cell_lies_within_5_se_of_the_exact_law(tmp_path):
    outliers, checked = [], 0
    for preset in SIMULATING:
        result = run_preset(preset, out_dir=tmp_path / preset)
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
    assert checked == 1_190
    assert not outliers, outliers


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


# Derandomized, as the preset gate runs at one seed: the cells are Monte Carlo
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
