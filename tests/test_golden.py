"""Golden outputs of the presets.

The first test pins the exact (non-simulated) rows of the sample-size
presets; the second pins the sha256 of every file that a fixed set of
preset runs writes.

``data/required_n_rows.csv`` holds every ``required_n_per_arm``,
``required_total_n`` and ``comparison_n`` row of ``fig3_required_n`` and of
``fig6_flex_n_and_power`` over the full shift grid 0..150, as written to
``results.csv`` by the doubling-plus-bisection search that preceded the
galloping one. These rows are integers computed without Monte Carlo, so a
small ``reps`` keeps the test fast without changing them.

``data/preset_digests.json`` holds the sha256 of every file written by the
runs of ``_digest_runs``: all nine presets at seeds 7 and 7301, fig6 over
every shift 0..150, fig2 over arms (2, 5), and table3 in patient mode with
two workers and a negative seed. The digests were taken from the hand-written preset loops that
preceded the preset table; only fig6's ``results.json`` digests were taken
again, after its IC required-n record was added. Running this file as a
script prints the digests of the current code. The third test checks the
digests again in a child process whose OpenBLAS runs its SandyBridge
kernels, which sum some z products in another order than the kernels it
picks on a newer CPU.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from platformsim.presets import available_presets, run_preset

GOLDEN = Path(__file__).parent / "data" / "required_n_rows.csv"
DIGESTS = Path(__file__).parent / "data" / "preset_digests.json"
EXACT_METRICS = {"required_n_per_arm", "required_total_n", "comparison_n"}
COLUMNS = ("preset", "sweep_value", "design", "adjustment", "metric", "estimate")


def _exact_rows(result):
    with open(result.results_csv, encoding="utf-8", newline="") as fh:
        return [
            [row[c] for c in COLUMNS]
            for row in csv.DictReader(fh)
            if row["metric"] in EXACT_METRICS
        ]


def test_required_n_rows_match_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == COLUMNS
        expected = list(reader)
    fig3 = run_preset("fig3_required_n", {"reps": 20}, out_dir=tmp_path / "fig3")
    fig6 = run_preset(
        "fig6_flex_n_and_power", {"reps": 20, "sweep": range(0, 151)}, out_dir=tmp_path / "fig6"
    )
    actual = _exact_rows(fig3) + _exact_rows(fig6)
    assert len(actual) == len(expected) == 1131
    assert actual == expected


def _digest_runs():
    """Run id -> (preset, overrides) of every run whose files are pinned."""
    runs = {
        f"{name}@{seed}": (name, {"reps": 2000, "seed": seed})
        for seed in (7, 7301)
        for name in available_presets()
    }
    runs["fig6_flex_n_and_power@7:shifts0..150"] = (
        "fig6_flex_n_and_power", {"reps": 2000, "seed": 7, "sweep": range(0, 151)}
    )
    runs["fig2_kfwer_sweep@7:arms2,5"] = (
        "fig2_kfwer_sweep", {"reps": 2000, "seed": 7, "sweep": (2, 5)}
    )
    runs["table3@-5:patient,workers2"] = (
        "table3", {"reps": 2000, "seed": -5, "mode": "patient", "workers": 2}
    )
    return runs


def _output_digests(out_root):
    """Run id -> {file below the run's directory: sha256 of its bytes}."""
    digests = {}
    for run_id, (name, overrides) in _digest_runs().items():
        out = Path(out_root) / run_id.replace(":", "_")
        run_preset(name, overrides, out_dir=out)
        digests[run_id] = {
            path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
    return digests


def test_preset_outputs_match_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = _output_digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    for run_id, files in expected.items():
        assert actual[run_id] == files, run_id


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.26 only prints its build config
        return "unknown"


def test_golden_digests_under_a_second_blas_kernel():
    blas = _blas_name()
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS")
    test = f"{Path(__file__).resolve()}::test_preset_outputs_match_golden_digests"
    # -s: with capture on, pytest drops the "Core: ..." line OpenBLAS prints as numpy loads
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", test],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, OPENBLAS_CORETYPE="SandyBridge", OPENBLAS_VERBOSE="2"),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Core: Sandybridge" in proc.stdout + proc.stderr  # OpenBLAS took the core it was given


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_golden.py > tests/data/preset_digests.json
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(_output_digests(tmp), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
