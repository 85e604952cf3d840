"""Golden rows: the exact (non-simulated) rows of the sample-size presets.

``data/required_n_rows.csv`` holds every ``required_n_per_arm``,
``required_total_n`` and ``comparison_n`` row of ``fig3_required_n`` and of
``fig6_flex_n_and_power`` over the full shift grid 0..150, as written to
``results.csv`` by the doubling-plus-bisection search that preceded the
galloping one. These rows are integers computed without Monte Carlo, so a
small ``reps`` keeps the test fast without changing them.
"""

import csv
from pathlib import Path

from platformsim.presets import run_preset

GOLDEN = Path(__file__).parent / "data" / "required_n_rows.csv"
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
