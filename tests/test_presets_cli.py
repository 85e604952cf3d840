import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

import platformsim
from platformsim.adjust import AdjustmentMethod, critical_value
from platformsim.cli import main
from platformsim.correlation import analytic_correlation
from platformsim.designs import ControlMode, build_fixed_design, build_staggered_design
from platformsim.distributions import Sidedness
from platformsim.engine import SimulationMode
from platformsim.presets import (
    available_presets,
    load_config,
    run_config,
    run_preset,
)


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


MINIMAL = {"m": 3, "n": 150, "control": "common", "effects": [0, 0, 0]}


def output_files(result):
    """Every file a run wrote, keyed by its path below the output directory."""
    return {
        path.relative_to(result.out_dir).as_posix(): path.read_bytes()
        for path in result.out_dir.rglob("*")
        if path.is_file()
    }


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

    def test_unknown_keys_rejected(self, tmp_path):
        payload = dict(MINIMAL, banana=1)
        with pytest.raises(ValueError, match="banana"):
            load_config(write_config(tmp_path, payload))

    def test_effects_length_mismatch(self, tmp_path):
        payload = dict(MINIMAL, effects=[0, 0])
        with pytest.raises(ValueError, match="effects"):
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

    def test_invalid_adjustment(self, tmp_path):
        payload = dict(MINIMAL, adjustment="holm")
        with pytest.raises(ValueError, match="adjustment"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize(
        "alpha, adjustment",
        [(0, "unadjusted"), (1, "unadjusted"), (1e-20, "unadjusted"), (1e-300, "dunnett"),
         (2e-16, "bonferroni")],
    )
    def test_alpha_without_a_finite_threshold_names_field(self, tmp_path, alpha, adjustment):
        payload = dict(MINIMAL, alpha=alpha, adjustment=adjustment)
        with pytest.raises(ValueError, match="config field 'alpha'"):
            load_config(write_config(tmp_path, payload))

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

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_config(path)


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

    def test_import_leaves_scipy_stats_unloaded(self):
        src = Path(platformsim.__file__).resolve().parents[1]
        probe = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import platformsim.cli; "
            "print('scipy.stats' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

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

    @pytest.mark.parametrize("alpha", [1e-20, 1e-300])
    def test_tiny_alpha_names_field(self, tmp_path, capsys, alpha):
        path = write_config(tmp_path, dict(MINIMAL, reps=200, alpha=alpha))
        code = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config field 'alpha' is too small" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "platformsim.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "--preset" in proc.stdout
