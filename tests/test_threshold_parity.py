"""Dunnett thresholds pinned against stored values.

``data/dunnett_thresholds.json`` holds the threshold of every design of
``_designs`` at alpha 0.05, 0.025 and 0.01, one- and two-sided, as the
solver that started Newton's method at the Sidak bound on the adaptive rule
sequence computed them: the fig3 fixed-total designs (m 2..10, control
ratio 1 and sqrt(m)), the staggered designs the required-n search meets
(n 150..189, shifts 37, 75 and 120) and the fig6 budget designs (shifts
0..150 in steps of 10). Each threshold must stay within 1e-13 of its stored
value, so a change to the solver cannot move thresholds silently. Running
this file as a script prints the thresholds of the current code.
"""

import json
import math
import sys
from pathlib import Path

from platformsim.correlation import analytic_correlation
from platformsim.designs import (
    ControlMode,
    build_budget_design,
    build_fixed_total_design,
    build_staggered_design,
)
from platformsim.distributions import Sidedness, _fit_factor_loadings, dunnett_critical_values
from platformsim.presets import FIXED_TOTAL, SPONSOR_BUDGET

THRESHOLDS = Path(__file__).parent / "data" / "dunnett_thresholds.json"
ALPHAS = (0.05, 0.025, 0.01)


def _designs() -> dict:
    """Label -> design of every pinned design."""
    designs = {}
    for m in range(2, 11):
        for ratio in (1.0, math.sqrt(m)):
            designs[f"fixed_total m={m} ratio={ratio!r}"] = build_fixed_total_design(
                FIXED_TOTAL, m, ControlMode.COMMON, ratio
            )
    for n in range(150, 190):
        for shift in (37, 75, 120):
            designs[f"staggered n={n} shift={shift}"] = build_staggered_design(n, shift)
    for shift in range(0, 151, 10):
        designs[f"budget shift={shift}"] = build_budget_design(shift, SPONSOR_BUDGET)
    return designs


def _thresholds() -> dict:
    """Label -> sidedness -> the thresholds at ``ALPHAS``; one solve per (m, alpha, sidedness)."""
    by_dim = {}
    for label, design in _designs().items():
        by_dim.setdefault(design.num_arms, []).append((label, analytic_correlation(design)))
    out = {}
    for cases in by_dim.values():
        loadings = _fit_factor_loadings([correlation.as_array() for _, correlation in cases])
        for sidedness in Sidedness:
            for alpha in ALPHAS:
                values = dunnett_critical_values(loadings, alpha, sidedness).tolist()
                for (label, _), value in zip(cases, values):
                    out.setdefault(label, {}).setdefault(sidedness.value, []).append(value)
    return out


def test_thresholds_match_stored_values():
    stored = json.loads(THRESHOLDS.read_text(encoding="utf-8"))
    assert stored["alphas"] == list(ALPHAS)
    current = _thresholds()
    assert current.keys() == stored["thresholds"].keys()
    for label, by_side in stored["thresholds"].items():
        for side, values in by_side.items():
            for alpha, new, old in zip(ALPHAS, current[label][side], values, strict=True):
                assert abs(new - old) <= 1e-13, (label, side, alpha, new, old)


if __name__ == "__main__":
    rows = [f"  {json.dumps(label)}: {json.dumps(v)}" for label, v in _thresholds().items()]
    sys.stdout.write(f'{{"alphas": {json.dumps(ALPHAS)}, "thresholds": {{\n')
    sys.stdout.write(",\n".join(rows) + "\n}}\n")
