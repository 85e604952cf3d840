import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

import platformsim
from platformsim import adjust, engine, presets, sample_size
from platformsim.adjust import AdjustmentMethod, critical_value
from platformsim.cli import main
from platformsim.correlation import analytic_correlation
from platformsim.designs import ControlMode, build_fixed_design, build_staggered_design
from platformsim.distributions import ConvergenceError, Sidedness
from platformsim.engine import SimulationMode, run_scenario
from platformsim.presets import (
    _CONFIG_KEYS,
    available_presets,
    load_config,
    run_config,
    run_preset,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


MINIMAL = {"m": 3, "n": 150, "control": "common", "effects": [0, 0, 0]}
ALPHA_1E_8_DUNNETT = dict(MINIMAL, reps=100, alpha=1e-8, adjustment="dunnett")


def output_files(result):
    """Every file a run wrote, keyed by its path below the output directory."""
    return {
        path.relative_to(result.out_dir).as_posix(): path.read_bytes()
        for path in result.out_dir.rglob("*")
        if path.is_file()
    }


@st.composite
def random_configs(draw):
    """A config payload with every field drawn, valid or not; the optional ones may be absent."""
    m = draw(st.integers(1, 6), label="m")
    n = draw(st.one_of(st.integers(1, 400), st.integers(1, 2**64)), label="n")
    effect = st.one_of(st.floats(), st.integers())
    # alpha at any scale down to below the smallest accepted value, and the edges 0 and 1
    alpha = st.floats(0.0, 1.0) | st.floats(-16.0, 0.0).map(lambda e: 10.0**e)
    payload = {
        "m": m,
        "n": n,
        "control": draw(st.sampled_from(["common", "individual"])),
        "effects": draw(st.lists(effect, min_size=m, max_size=m), label="effects"),
        "alpha": draw(alpha, label="alpha"),
        "adjustment": draw(st.sampled_from(["unadjusted", "bonferroni", "dunnett"])),
        "sidedness": draw(st.sampled_from(["one_sided", "two_sided"])),
        "reps": draw(st.integers(1, 200), label="reps"),
    }
    optional = {
        "shift": st.integers(0, 450),
        "kfwer_levels": st.lists(st.integers(-1, 8), max_size=4),
        "seed": st.integers(-5, 2**70),
    }
    for key, strategy in optional.items():
        value = draw(st.none() | strategy, label=key)
        if value is not None:
            payload[key] = value
    return payload


class TestLoadConfig:
    def test_minimal_config_is_base_scenario(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        assert config.design == build_fixed_design(3, 150, ControlMode.COMMON)
        assert config.effects == (0.0, 0.0, 0.0)
        assert config.policy.method is AdjustmentMethod.UNADJUSTED
        assert config.policy.alpha == 0.05
        assert config.policy.sidedness is Sidedness.TWO_SIDED
        assert config.reps == 50_000
        assert config.mode is SimulationMode.SUFFICIENT_STATISTIC
        assert config.kfwer_levels == (1, 2, 3)

    def test_unknown_keys_rejected(self, tmp_path):
        payload = dict(MINIMAL, banana=1)
        with pytest.raises(ValueError, match="banana"):
            load_config(write_config(tmp_path, payload))

    def test_effects_length_mismatch(self, tmp_path):
        payload = dict(MINIMAL, effects=[0, 0])
        message = "config field 'effects': effects vector has length 2, design has 3 arms"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(write_config(tmp_path, payload))

    def test_reps_override(self, tmp_path):
        payload = dict(MINIMAL, reps=1_000)
        assert load_config(write_config(tmp_path, payload)).reps == 1_000

    def test_staggered_config(self, tmp_path):
        payload = dict(MINIMAL, shift=80)
        config = load_config(write_config(tmp_path, payload))
        assert config.design == build_staggered_design(150, 80)

    def test_shift_requires_three_arm_common(self, tmp_path):
        payload = {"m": 2, "n": 150, "control": "common", "effects": [0, 0], "shift": 10}
        with pytest.raises(ValueError, match="shift"):
            load_config(write_config(tmp_path, payload))

    def test_null_kfwer_levels_names_field(self, tmp_path):
        payload = dict(MINIMAL, kfwer_levels=None)
        with pytest.raises(ValueError, match="config field 'kfwer_levels'"):
            load_config(write_config(tmp_path, payload))

    def test_invalid_adjustment(self, tmp_path):
        payload = dict(MINIMAL, adjustment="holm")
        with pytest.raises(ValueError, match="adjustment"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize(
        "field, value, accepted",
        [
            ("control", "shared", "'common' or 'individual'"),
            ("adjustment", ["dunnett"], "'unadjusted' or 'bonferroni' or 'dunnett'"),
            ("sidedness", None, "'one_sided' or 'two_sided'"),
            ("mode", "Patient", "'patient' or 'sufficient'"),
        ],
    )
    def test_bad_choice_names_accepted_values(self, tmp_path, field, value, accepted):
        message = f"config field '{field}' must be {accepted}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(write_config(tmp_path, dict(MINIMAL, **{field: value})))

    @pytest.mark.parametrize(
        "alpha, adjustment",
        [(0, "unadjusted"), (1, "unadjusted"), (1e-20, "unadjusted"), (1e-300, "dunnett"),
         (2e-16, "bonferroni")],
    )
    def test_alpha_without_a_finite_threshold_names_field(self, tmp_path, alpha, adjustment):
        payload = dict(MINIMAL, alpha=alpha, adjustment=adjustment)
        with pytest.raises(ValueError, match="config field 'alpha'"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("alpha", ["0.05", True, None, 1.5])
    def test_alpha_out_of_range_or_not_a_number_names_field(self, tmp_path, alpha):
        # AdjustmentPolicy's own rule, prefixed with the field name
        message = "config field 'alpha': alpha must lie strictly between 0 and 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(write_config(tmp_path, dict(MINIMAL, alpha=alpha)))

    def test_smallest_alpha_depends_on_the_adjustment(self, tmp_path):
        # 1 - 1e-16 stays below 1 in floating point, 1 - 1e-16 / 3 does not
        config = load_config(write_config(tmp_path, dict(MINIMAL, alpha=2e-16)))
        assert config.policy.alpha == 2e-16

    @pytest.mark.parametrize("extra", [{}, {"shift": 75}, {"sidedness": "one_sided"}])
    def test_dunnett_solves_at_the_smallest_accepted_alpha(self, tmp_path, extra):
        # 1e-15 passes the check, so the Dunnett root search must succeed there
        payload = dict(MINIMAL, alpha=1e-15, adjustment="dunnett", **extra)
        config = load_config(write_config(tmp_path, payload))
        threshold = critical_value(config.policy, analytic_correlation(config.design))
        assert 7.5 < threshold < 9.0

    @given(random_configs())
    @example(ALPHA_1E_8_DUNNETT)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_configs_run_or_name_a_field(self, tmp_path, payload):
        path = write_config(tmp_path, payload)
        try:
            run_config(path, out_dir=tmp_path / "out")
        except ValueError as exc:
            named = re.search(r"config field '(\w+)'", str(exc))
            assert named and named.group(1) in _CONFIG_KEYS, str(exc)
            # a solver that gives up is not a bad field
            assert not isinstance(exc.__cause__, ConvergenceError), str(exc)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_config(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([MINIMAL], "config must be a JSON object"),
            ({k: v for k, v in MINIMAL.items() if k != "effects"}, "config field 'effects' is required"),
            ({k: v for k, v in MINIMAL.items() if k != "m"}, "config field 'm' is required"),
        ],
    )
    def test_malformed_config_names_the_problem(self, tmp_path, payload, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(write_config(tmp_path, payload))

    def test_every_count_must_fit_int64(self, tmp_path):
        # the staggered design's counts are (200, n - 200, 200), each within int64
        n = 2**63 + 100
        config = load_config(write_config(tmp_path, dict(MINIMAL, n=n, shift=200, reps=50)))
        assert config.design.comparison_sizes(0) == (n, n)
        assert run_scenario(config).reps == 50
        message = f"config field 'n': entry (0, 0) must be at most {2**63 - 1}, got {n}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(write_config(tmp_path, dict(MINIMAL, n=n)))


class TestRunPreset:
    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ValueError, match="unknown preset"):
            run_preset("table9", out_dir=tmp_path)

    def test_catalog_is_complete(self):
        assert available_presets() == (
            "table3",
            "table4",
            "fig2_kfwer_sweep",
            "fig3_required_n",
            "fig3_power_fixed_total",
            "fig4_disj_conj",
            "fig5_flex_fwer",
            "fig6_flex_n_and_power",
            "fig7_flex_disj_conj",
        )

    def test_table3_outputs(self, tmp_path):
        result = run_preset("table3", overrides={"reps": 2_000}, out_dir=tmp_path)
        assert result.results_csv.exists()
        assert result.results_json.exists()
        assert [p.name for p in result.plotdata_paths] == ["table3.csv"]
        with open(result.results_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert {r["design"] for r in rows} == {"common", "individual"}
        assert {r["adjustment"] for r in rows} == {
            "unadjusted",
            "bonferroni",
            "dunnett",
        }
        payload = json.loads(result.results_json.read_text())
        assert payload["preset"] == "table3"
        assert len(payload["scenarios"]) == 4
        assert payload["scenarios"][0]["correlation"][0][1] == 0.5

    @pytest.mark.parametrize("name", available_presets())
    def test_every_named_metric_is_reported(self, name, tmp_path):
        # a metric a preset or one of its plot columns names, but that no row
        # reports, would leave that column empty
        spec = presets._PRESETS[name]
        named = set(spec.metrics) | {
            column[3] for _, _, columns in spec.plots for column in columns if column[3]
        }
        result = run_preset(name, overrides={"reps": 100}, out_dir=tmp_path)
        with open(result.results_csv) as fh:
            reported = {row["metric"] for row in csv.DictReader(fh)}
        assert named and named <= reported

    def test_rows_are_canonically_sorted(self, tmp_path):
        result = run_preset(
            "fig5_flex_fwer",
            overrides={"reps": 1_000, "sweep": (0, 50, 150)},
            out_dir=tmp_path,
        )
        with open(result.results_csv) as fh:
            rows = list(csv.DictReader(fh))
        keys = [
            (
                r["preset"],
                (0, 0.0) if r["sweep_value"] == "" else (1, float(r["sweep_value"])),
                r["design"],
                r["adjustment"],
                r["metric"],
            )
            for r in rows
        ]
        assert keys == sorted(keys)

    def test_rerun_is_byte_identical(self, tmp_path):
        a = run_preset("table4", overrides={"reps": 2_000}, out_dir=tmp_path / "a")
        b = run_preset("table4", overrides={"reps": 2_000}, out_dir=tmp_path / "b")
        assert a.results_csv.read_bytes() == b.results_csv.read_bytes()
        assert a.results_json.read_bytes() == b.results_json.read_bytes()

    def test_failed_write_leaves_no_partial_results(self, tmp_path, monkeypatch):
        earlier = run_preset("table3", overrides={"reps": 200}, out_dir=tmp_path / "earlier")
        files = output_files(earlier)
        lines = []
        writer = csv.writer

        class Failing:
            def __init__(self, fh):
                self.fh = fh

            def write(self, line):
                lines.append(line)
                if len(lines) == 10:  # part-way through results.csv
                    raise OSError("no space left")
                return self.fh.write(line)

        monkeypatch.setattr(presets.csv, "writer", lambda fh, **kw: writer(Failing(fh), **kw))
        for out in (tmp_path / "earlier", tmp_path / "fresh"):
            lines.clear()
            with pytest.raises(OSError, match="no space"):
                run_preset("table3", overrides={"reps": 200, "seed": 9}, out_dir=out)
        assert output_files(earlier) == files
        assert not any(path.is_file() for path in (tmp_path / "fresh").rglob("*"))

    def test_worker_count_invariance(self, tmp_path):
        a = run_preset(
            "fig4_disj_conj",
            overrides={"reps": 3_000, "workers": 1, "sweep": (2, 3)},
            out_dir=tmp_path / "w1",
        )
        b = run_preset(
            "fig4_disj_conj",
            overrides={"reps": 3_000, "workers": 3, "sweep": (2, 3)},
            out_dir=tmp_path / "w3",
        )
        assert a.plotdata_paths
        assert output_files(a) == output_files(b)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        with pytest.raises(ValueError, match="workers"):
            run_preset("table3", overrides={"reps": 200, "workers": workers}, out_dir=tmp_path)
        with pytest.raises(ValueError, match="workers"):
            run_config(write_config(tmp_path, MINIMAL), overrides={"workers": workers},
                       out_dir=tmp_path / "custom")
        assert not (tmp_path / "results.csv").exists()

    def test_seed_changes_results(self, tmp_path):
        a = run_preset("table3", overrides={"reps": 2_000, "seed": 1}, out_dir=tmp_path / "s1")
        b = run_preset("table3", overrides={"reps": 2_000, "seed": 2}, out_dir=tmp_path / "s2")
        assert a.results_csv.read_bytes() != b.results_csv.read_bytes()

    def test_unknown_override_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="overrides"):
            run_preset("table3", overrides={"repz": 10}, out_dir=tmp_path)

    @pytest.mark.parametrize("name", ["table3", "table4"])
    def test_sweep_on_a_table_rejected(self, tmp_path, name):
        with pytest.raises(ValueError, match="sweep"):
            run_preset(name, overrides={"reps": 100, "sweep": [999, "x"]}, out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "name, sweep", [("fig5_flex_fwer", [10, 10]), ("fig2_kfwer_sweep", [3, 2, 3])]
    )
    def test_repeated_sweep_value_rejected(self, tmp_path, name, sweep):
        with pytest.raises(ValueError, match="sweep values must be distinct"):
            run_preset(name, overrides={"reps": 100, "sweep": sweep}, out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "name, sweep, message",
        [
            ("fig2_kfwer_sweep", (1, 3), "arm sweep values must be at least 2, got [1, 3]"),
            ("fig3_required_n", (1,), "arm sweep values must be at least 2, got [1]"),
            ("fig5_flex_fwer", (0, 151), "shift sweep values must lie in 0..150, got [0, 151]"),
            ("fig5_flex_fwer", (-10,), "shift sweep values must lie in 0..150, got [-10]"),
        ],
    )
    def test_sweep_value_out_of_bounds_rejected(self, tmp_path, name, sweep, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_preset(name, overrides={"reps": 100, "sweep": sweep}, out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "name, sweep",
        [
            ("fig5_flex_fwer", []),
            ("fig5_flex_fwer", [10.7]),
            ("fig5_flex_fwer", [0, True]),
            ("fig2_kfwer_sweep", "23"),
            ("fig2_kfwer_sweep", 5),
        ],
    )
    def test_malformed_sweep_rejected(self, tmp_path, name, sweep):
        message = f"sweep must be a non-empty sequence of integers, got {sweep!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_preset(name, overrides={"reps": 100, "sweep": sweep}, out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "field, value", [("reps", 2.7), ("seed", 1.9), ("workers", True), ("reps", "200")]
    )
    def test_non_integer_override_names_field(self, tmp_path, field, value):
        message = f"^{field} must be an integer, got {re.escape(repr(value))}$"
        config = write_config(tmp_path, MINIMAL)
        for run, source in ((run_preset, "table3"), (run_config, config)):
            with pytest.raises(ValueError, match=message):
                run(source, overrides={"reps": 100, field: value}, out_dir=tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_budget_sweep_records_comparison_n(self, tmp_path):
        result = run_preset(
            "fig6_flex_n_and_power",
            overrides={"reps": 1_000, "sweep": (40,)},
            out_dir=tmp_path,
        )
        with open(result.results_csv) as fh:
            rows = [r for r in csv.DictReader(fh) if r["metric"] == "comparison_n"]
        assert len(rows) == 1
        assert rows[0]["estimate"] == "187"
        assert rows[0]["mc_se"] == ""


class TestDerivedOnce:
    """fig6 over every shift derives each design's correlation once, and only where needed."""

    def test_fig6_correlations(self, monkeypatch, tmp_path):
        asked = {method: set() for method in AdjustmentMethod}  # designs each method asked about
        simulated = set()
        thresholds, scenarios = adjust.critical_values, presets.run_scenarios

        def asking(requests):
            requests = list(requests)
            for policy, design in requests:
                asked[policy.method].add(design)
            return thresholds(requests)

        def simulating(configs, workers=1):
            simulated.update(config.design for config in configs)
            return scenarios(configs, workers)

        monkeypatch.setattr(sample_size, "critical_values", asking)
        monkeypatch.setattr(engine, "critical_values", asking)
        monkeypatch.setattr(presets, "run_scenarios", simulating)
        analytic_correlation.cache_clear()
        run_preset("fig6_flex_n_and_power", {"reps": 100, "sweep": range(151)}, out_dir=tmp_path)
        computed = analytic_correlation.cache_info()
        needed = asked[AdjustmentMethod.DUNNETT] | simulated
        # every needed matrix is computed, so as many computations as needed
        # designs means each once and none for any other design
        assert computed.misses == computed.currsize == len(needed)
        others = asked[AdjustmentMethod.UNADJUSTED] | asked[AdjustmentMethod.BONFERRONI]
        assert len(others - needed) > 100  # candidates only non-Dunnett searches asked about


class TestRunConfig:
    def test_custom_run_produces_reports(self, tmp_path):
        path = write_config(tmp_path, dict(MINIMAL, reps=1_500, effects=[0.38, 0, 0]))
        result = run_config(path, out_dir=tmp_path / "out")
        with open(result.results_csv) as fh:
            rows = list(csv.DictReader(fh))
        metrics = {r["metric"] for r in rows}
        assert "fwer" in metrics
        assert "marginal_power_1" in metrics
        assert all(r["preset"] == "custom" for r in rows)

    def test_every_estimate_is_reported_once(self, tmp_path):
        config = dict(MINIMAL, reps=500, effects=[0.38, 0, 0.2], kfwer_levels=[3, 3, 1])
        result = run_config(write_config(tmp_path, config), out_dir=tmp_path / "out")
        with open(result.results_csv) as fh:
            metrics = [r["metric"] for r in csv.DictReader(fh)]
        assert metrics == [
            "conjunctive_power", "disjunctive_power", "fwer", "kfwer_3",
            "marginal_power_1", "marginal_power_3", "pfer",
        ]

    def test_overrides_apply(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        result = run_config(path, overrides={"reps": 500, "seed": 9}, out_dir=tmp_path / "o")
        payload = json.loads(result.results_json.read_text())
        assert payload["reps"] == 500
        assert payload["seed"] == 9

    def test_sweep_override_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^sweep overrides only apply to presets$"):
            run_config(write_config(tmp_path, MINIMAL), overrides={"sweep": (2, 3)},
                       out_dir=tmp_path / "o")
        assert not (tmp_path / "o").exists()


class TestCli:
    def test_preset_run(self, tmp_path, capsys):
        code = main(["--preset", "table3", "--reps", "500", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "results.csv" in out
        assert (tmp_path / "results.csv").exists()

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_preset_fails_cleanly(self, tmp_path, capsys):
        code = main(["--preset", "nope", "--out", str(tmp_path)])
        assert code == 1
        assert "unknown preset" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_fail_cleanly(self, tmp_path, capsys, workers):
        for source in (["--preset", "table3"], ["--config", str(write_config(tmp_path, MINIMAL))]):
            code = main(source + ["--reps", "200", "--workers", workers, "--out", str(tmp_path / "o")])
            assert code == 1
            assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_reps_names_field(self, tmp_path, capsys):
        for source in (["--preset", "table3"], ["--config", str(write_config(tmp_path, MINIMAL))]):
            code = main(source + ["--reps", "0", "--out", str(tmp_path / "o")])
            assert code == 1
            assert "reps must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_mode_names_field(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SIMULATE_MODE", "bogus")
        for source in (["--preset", "table3"], ["--config", str(write_config(tmp_path, MINIMAL))]):
            code = main(source + ["--reps", "200", "--out", str(tmp_path / "o")])
            assert code == 1
            err = capsys.readouterr().err
            assert "mode must be 'patient' or 'sufficient', got 'bogus'" in err
        assert not (tmp_path / "o").exists()

    def test_runs_without_scipy(self, tmp_path):
        # sys.modules["scipy"] = None makes every scipy import fail in the probe
        src = Path(platformsim.__file__).resolve().parents[1]
        config = write_config(tmp_path, dict(MINIMAL, adjustment="dunnett", shift=75, reps=200))
        runs = [
            ["--config", str(config), "--out", str(tmp_path / "config")],
            ["--preset", "table3", "--reps", "200", "--out", str(tmp_path / "table3")],
        ]
        probe = (
            f"import sys; sys.modules['scipy'] = None; sys.path.insert(0, {str(src)!r}); "
            f"from platformsim.cli import main; codes = [main(argv) for argv in {runs!r}]; "
            "print(codes, [name for name, module in sys.modules.items() "
            "if name.split('.')[0] == 'scipy' and module is not None])"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0] []"
        assert (tmp_path / "config" / "results.csv").exists()
        assert (tmp_path / "table3" / "results.csv").exists()

    def test_config_run(self, tmp_path):
        path = write_config(tmp_path, dict(MINIMAL, reps=400))
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_env_variable_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIMULATE_PRESET", "table3")
        monkeypatch.setenv("SIMULATE_REPS", "300")
        monkeypatch.setenv("SIMULATE_OUT", str(tmp_path / "envout"))
        assert main([]) == 0
        payload = json.loads((tmp_path / "envout" / "results.json").read_text())
        assert payload["reps"] == 300

    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIMULATE_REPS", "300")
        code = main(["--preset", "table3", "--reps", "200", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["reps"] == 200

    @pytest.mark.parametrize("flag, variable", [("--preset", "CONFIG"), ("--config", "PRESET")])
    def test_source_flag_hides_both_source_variables(self, tmp_path, monkeypatch, capsys, flag, variable):
        config = write_config(tmp_path, MINIMAL)
        sources = {"--preset": "table3", "--config": str(config)}
        monkeypatch.setenv(f"SIMULATE_{variable}", sources[f"--{variable.lower()}"])
        code = main([flag, sources[flag], "--reps", "200", "--out", str(tmp_path / "o")])
        assert code == 0
        payload = json.loads((tmp_path / "o" / "results.json").read_text())
        assert payload["preset"] == ("table3" if flag == "--preset" else "custom")
        # with no flag, both variables set are two sources
        monkeypatch.setenv("SIMULATE_PRESET", "table3")
        monkeypatch.setenv("SIMULATE_CONFIG", str(config))
        assert main(["--out", str(tmp_path / "both")]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert not (tmp_path / "both").exists()

    @pytest.mark.parametrize("name", ["SIMULATE_SEED", "SIMULATE_REPS", "SIMULATE_WORKERS"])
    def test_non_integer_environment_value_fails_cleanly(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.setenv(name, "two")
        code = main(["--preset", "table3", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and name in err and "'two'" in err
        assert not (tmp_path / "o").exists()

    def test_negative_config_seed_names_field(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL, reps=200, seed=-4))
        code = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config field 'seed' must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_override_on_config_names_field(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL, reps=200))
        code = main(["--config", str(path), "--seed", "-4", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "seed must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kfwer_levels", [5]),
            ("effects", [float("nan"), 0, 0]),
            ("shift", 151),
            ("adjustment", ["dunnett"]),
            ("adjustment", {"method": "dunnett"}),
            ("effects", [1e308, 0, 0]),
            ("effects", [10**400, 0, 0]),
            ("effects", "0, 0, 0"),
            ("effects", [0, True, 0]),
        ],
    )
    def test_out_of_range_field_names_field(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path, dict(MINIMAL, reps=200, **{field: value}))
        code = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("alpha", [1e-20, 1e-300])
    def test_tiny_alpha_names_field(self, tmp_path, capsys, alpha):
        path = write_config(tmp_path, dict(MINIMAL, reps=200, alpha=alpha))
        code = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config field 'alpha' is too small" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dunnett_config_in_the_convergence_band_runs(self, tmp_path):
        # alpha = 1e-8 is where Newton steps stay above the step stop (ROADMAP direction 2)
        path = write_config(tmp_path, ALPHA_1E_8_DUNNETT)
        code = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "results.csv").is_file()

    def test_unconverged_dunnett_search_names_field(self, tmp_path, capsys, monkeypatch):
        def unconverged(*args, **kwargs):
            raise ConvergenceError("critical-value residual exceeds tolerance")

        monkeypatch.setattr(adjust, "dunnett_critical_values", unconverged)
        monkeypatch.setattr(adjust, "_dunnett_cache", {})
        path = write_config(tmp_path, dict(MINIMAL, reps=100, adjustment="dunnett"))
        code = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config field 'alpha':" in err and "did not converge at alpha=0.05" in err
        assert not (tmp_path / "o").exists()

    def test_console_script_help(self):
        # the child does not read pytest's pythonpath setting, so it is given the checkout's src
        src = str(Path(platformsim.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "platformsim.cli", "--help"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "--preset" in proc.stdout


class TestPublicApi:
    def test_readme_quick_start_runs(self):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert blocks
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})

    def test_every_export_is_used_by_readme_cli_or_presets(self):
        package = Path(platformsim.__file__).parent
        texts = [README.read_text(encoding="utf-8")] + [
            (package / name).read_text(encoding="utf-8") for name in ("cli.py", "presets.py")
        ]
        assert len(platformsim.__all__) <= 30
        for name in platformsim.__all__:
            assert getattr(platformsim, name) is not None
            assert any(re.search(rf"\b{name}\b", text) for text in texts), name

    def test_every_public_definition_is_used_outside_the_tests(self):
        # a public function, class or method that no package module and no
        # benchmark script names, other than where it is defined, is test-only
        # API; names come from the syntax tree, so strings and docstrings do
        # not count
        package = Path(platformsim.__file__).parent
        paths = sorted(package.glob("*.py")) + sorted((README.parent / "bench").glob("*.py"))
        defined, used = {}, set()
        for path in paths:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rsplit(".", 1)[-1])
            if path.parent != package:
                continue
            for top in tree.body:
                for node in [top] + (top.body if isinstance(top, ast.ClassDef) else []):
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                        defined[node.name] = f"{path.name}:{node.lineno}"
        unused = sorted(f"{where} {name}" for name, where in defined.items() if name not in used)
        assert not unused

    def test_package_makes_no_linalg_call(self):
        # numpy.linalg runs LAPACK, whose OpenBLAS kernels give other bits on
        # other hosts and can stall under their helper threads
        package = Path(platformsim.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                # np.linalg.f, import numpy.linalg, from numpy.linalg import f, from numpy import linalg
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.module if isinstance(node, ast.ImportFrom)
                        else node.name if isinstance(node, ast.alias) else None)
                if name and "linalg" in name.split("."):
                    found.append(f"{path.name}:{node.lineno}")
        assert not found
