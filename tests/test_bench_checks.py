"""The benchmark's oracle checks, run on the output of every preset.

``bench/checks.py`` checks every Monte Carlo cell a run writes against its
exact value and every required-n row against its definition, through the
package API it imports. Running those checks here makes a change that breaks
that API, or the outputs, fail the test suite and not only the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

from platformsim.presets import available_presets, run_preset

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
REPS = 2000
# fig6 solves a required-n search per shift; four shifts cover both ends of its grid
SWEEPS = {"fig6_flex_n_and_power": (0, 40, 90, 150)}


def load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", available_presets())
def test_preset_output_passes_the_oracle_checks(tmp_path, name):
    overrides = {"reps": REPS}
    if name in SWEEPS:
        overrides["sweep"] = SWEEPS[name]
    result = run_preset(name, overrides, out_dir=tmp_path)
    checks = load_checks().check_run_dir(result.out_dir)
    failures = [(check, detail) for check, ok, detail in checks if not ok]
    assert checks
    assert not failures
