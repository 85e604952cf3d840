import contextlib
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from platformsim.adjust import AdjustmentMethod, AdjustmentPolicy, critical_value
from platformsim.correlation import analytic_correlation
from platformsim.designs import (
    ControlMode,
    PlatformDesign,
    build_budget_design,
    build_fixed_design,
    build_fixed_total_design,
    build_staggered_design,
)
from platformsim import engine
from platformsim.distributions import Sidedness
from platformsim.engine import (
    ScenarioConfig,
    SimulationMode,
    iter_zstat_blocks,
    run_scenario,
    run_scenarios,
)
from platformsim.engine import _build_plan, _zstats
from platformsim.metrics import characteristics_from_counts
from platformsim.presets import FIXED_TOTAL, SPONSOR_BUDGET, run_preset
from oracles import rejection_counts

UNADJ = AdjustmentPolicy(AdjustmentMethod.UNADJUSTED)
POLICIES = [
    AdjustmentPolicy(method, 0.05, sidedness)
    for method in AdjustmentMethod
    for sidedness in Sidedness
]


def collect_zstats(design, effects, reps, seed, mode=SimulationMode.SUFFICIENT_STATISTIC):
    return np.vstack(list(iter_zstat_blocks(design, effects, reps, seed, mode)))


@contextlib.contextmanager
def rejected_quietly(match):
    """Expect a ValueError matching ``match``, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            yield


class TestZStatistics:
    @pytest.mark.parametrize(
        "design, mode, expected",
        [
            # E[z_1] = delta / sqrt(1/n_t + 1/n_c): 0.38 * sqrt(150 / 2) = 3.291
            pytest.param(build_fixed_design(3, 150, ControlMode.COMMON),
                         SimulationMode.SUFFICIENT_STATISTIC, 0.38 * math.sqrt(75), id="cc-150"),
            # 100 treatment against 200 control patients: 0.38 * sqrt(200 / 3) = 3.103
            *(
                pytest.param(build_fixed_total_design(600, 4, ControlMode.COMMON, 2.0), mode,
                             0.38 * math.sqrt(200 / 3), id=f"cc-100-vs-200-{mode.value}")
                for mode in SimulationMode
            ),
        ],
    )
    def test_effective_arm_mean_shift(self, design, mode, expected):
        effects = (0.38,) + (0.0,) * (design.num_arms - 1)
        z = collect_zstats(design, effects, 50_000, seed=1, mode=mode)
        assert z[:, 0].mean() == pytest.approx(expected, abs=0.02)

    def test_null_margins_standard_normal(self):
        design = build_staggered_design(150, 80)
        reps = 50_000
        z = collect_zstats(design, (0.0, 0.0, 0.0), reps, seed=2)
        # 5 SE of the sample variance of a standard normal; over seeds 0-39 the largest
        # |variance - 1| is 3.6 SE (seed 2, arm 2). TestCovarianceFactor checks the unit
        # variance of the plan itself exactly.
        var_bar = 5 * math.sqrt(2 / reps)
        for j in range(3):
            assert z[:, j].mean() == pytest.approx(0.0, abs=0.015)
            assert z[:, j].var() == pytest.approx(1.0, abs=var_bar)

    def test_disjoint_windows_uncorrelated(self):
        design = build_staggered_design(150, 150)
        z = collect_zstats(design, (0.0, 0.0, 0.0), 50_000, seed=3)
        corr = np.corrcoef(z[:, 0], z[:, 2])[0, 1]
        assert corr == pytest.approx(0.0, abs=0.015)

    def test_modes_distributionally_identical(self):
        design = build_staggered_design(150, 80)
        sufficient = collect_zstats(design, (0.38, 0.0, 0.0), 30_000, 4)
        patient = collect_zstats(
            design, (0.38, 0.0, 0.0), 30_000, 4, SimulationMode.PATIENT_LEVEL
        )
        for j in range(3):
            se_mean = math.sqrt(2 / 30_000)
            assert sufficient[:, j].mean() == pytest.approx(
                patient[:, j].mean(), abs=4 * se_mean
            )
            assert sufficient[:, j].std() == pytest.approx(patient[:, j].std(), abs=0.03)

    @pytest.mark.parametrize(
        "design, mode",
        [
            pytest.param(design, mode, id=name + ("-patient" if mode is SimulationMode.PATIENT_LEVEL else ""))
            for name, design in [
                ("cc-k3", build_fixed_design(2, 150, ControlMode.COMMON)),
                ("cc-m10", build_fixed_design(10, 150, ControlMode.COMMON)),
                ("ic-m10", build_fixed_design(10, 150, ControlMode.INDIVIDUAL)),
                ("staggered", build_staggered_design(150, 80)),
            ]
            for mode in (SimulationMode.SUFFICIENT_STATISTIC, SimulationMode.PATIENT_LEVEL)
        ],
    )
    def test_sliced_product_equals_full_product(self, design, mode):
        plan = _build_plan(design, (0.38,) + (0.0,) * (design.num_arms - 1), mode)
        rng = np.random.default_rng(14)
        for rows in (4096, 848, 1):
            units = rng.standard_normal((rows, plan.weights.shape[1]))
            sliced = _zstats(units, plan)
            full = units @ plan.weights.T + plan.shifts
            assert sliced.tobytes() == full.tobytes()


class TestRunScenario:
    def test_individual_null_fwer_matches_closed_form(self):
        design = build_fixed_design(3, 150, ControlMode.INDIVIDUAL)
        oc = run_scenario(ScenarioConfig(design, (0.0,) * 3, UNADJ, reps=50_000, seed=5))
        expected = 1 - 0.95**3
        assert abs(oc.fwer.value - expected) <= 4 * oc.fwer.se

    def test_single_arm_alpha_level(self):
        for mode in (ControlMode.COMMON, ControlMode.INDIVIDUAL):
            design = build_fixed_design(1, 150, mode)
            oc = run_scenario(ScenarioConfig(design, (0.0,), UNADJ, reps=50_000, seed=6,
                                             kfwer_levels=(1,)))
            assert abs(oc.fwer.value - 0.05) <= 0.004

    def test_pfer_is_sum_of_null_arm_rates(self):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        config = ScenarioConfig(design, (0.0,) * 3, UNADJ, reps=20_000, seed=7)
        oc = run_scenario(config)
        z = collect_zstats(design, (0.0,) * 3, 20_000, config.seed)
        per_arm = (np.abs(z) > 1.959963984540054).mean(axis=0)
        assert oc.pfer.value == pytest.approx(per_arm.sum(), abs=1e-12)

    @pytest.mark.parametrize(
        "design",
        [
            build_fixed_design(3, 150, ControlMode.COMMON),
            build_fixed_design(3, 150, ControlMode.INDIVIDUAL),
            build_staggered_design(150, 80),
            build_budget_design(90, 300),
        ],
        ids=["fixed-cc", "fixed-ic", "staggered", "budget"],
    )
    def test_mode_equivalence_on_error_rates(self, design):
        fast = run_scenario(ScenarioConfig(design, (0.0,) * 3, UNADJ, reps=30_000, seed=8))
        slow = run_scenario(
            ScenarioConfig(design, (0.0,) * 3, UNADJ, reps=30_000, seed=88,
                           mode=SimulationMode.PATIENT_LEVEL)
        )
        tol = 4 * math.hypot(fast.fwer.se, slow.fwer.se)
        assert abs(fast.fwer.value - slow.fwer.value) <= tol

    def test_identical_runs_identical_reports(self):
        design = build_staggered_design(150, 80)
        config = ScenarioConfig(design, (0.0, 0.38, 0.0), UNADJ, reps=10_000, seed=11)
        assert run_scenario(config) == run_scenario(config)

    def test_worker_count_does_not_change_report(self):
        # more threads than the two cores, switching often, in both modes
        design = build_staggered_design(150, 80)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for mode in SimulationMode:
                config = ScenarioConfig(design, (0.38, 0.0, 0.0), UNADJ, reps=12_000, seed=12, mode=mode)
                assert run_scenario(config, workers=1) == run_scenario(config, workers=3), mode
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("effects", [(0.0,) * 4, (0.38, 0.2, 0.0, 0.0)], ids=["null", "mixed"])
    def test_block_counts_match_per_replication_tallies(self, effects):
        design = build_fixed_design(4, 60, ControlMode.COMMON)
        config = ScenarioConfig(design, effects, UNADJ, reps=5_000, seed=15, kfwer_levels=(1, 2))
        z = collect_zstats(design, effects, config.reps, config.seed)
        rejected = np.abs(z) > critical_value(UNADJ, analytic_correlation(design))
        effective = [e != 0.0 for e in effects]
        reference = characteristics_from_counts(**rejection_counts(rejected, effective, (1, 2)))
        assert run_scenario(config, workers=2) == reference

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        config = ScenarioConfig(build_fixed_design(3, 150, ControlMode.COMMON), (0.0,) * 3, UNADJ)
        with pytest.raises(ValueError, match="workers"):
            run_scenario(config, workers=workers)

    def test_marginal_power_reported_for_effective_arms_only(self):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        oc = run_scenario(
            ScenarioConfig(design, (0.38, 0.0, 0.0), UNADJ, reps=20_000, seed=13)
        )
        assert oc.marginal_power[0] is not None
        assert oc.marginal_power[1] is None
        assert oc.marginal_power[0].value == pytest.approx(0.908, abs=0.01)

    def test_global_null_reports_no_power(self):
        design = build_fixed_design(2, 100, ControlMode.COMMON)
        oc = run_scenario(
            ScenarioConfig(design, (0.0, 0.0), UNADJ, reps=5_000, seed=14, kfwer_levels=(1, 2))
        )
        assert oc.marginal_power is None
        assert oc.disjunctive_power is None
        assert oc.conjunctive_power is None


class TestConfigValidation:
    def test_effects_length(self):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        with pytest.raises(ValueError, match="effects"):
            ScenarioConfig(design, (0.0, 0.0), UNADJ)

    def test_reps_positive(self):
        design = build_fixed_design(2, 150, ControlMode.COMMON)
        with pytest.raises(ValueError, match="reps must be at least 1, got 0"):
            ScenarioConfig(design, (0.0, 0.0), UNADJ, reps=0)

    @pytest.mark.parametrize("reps", [True, 2.0, "200"])
    def test_reps_must_be_an_int(self, reps):
        design = build_fixed_design(2, 150, ControlMode.COMMON)
        with pytest.raises(ValueError, match="reps must be an integer"):
            ScenarioConfig(design, (0.0, 0.0), UNADJ, reps=reps)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be at least 0, got -1"), (True, "seed must be an integer, got True"),
         (1.5, "seed must be an integer, got 1.5")],
        ids=["-1", "True", "1.5"],
    )
    def test_seed_must_be_a_non_negative_int(self, seed, message):
        # a SeedSequence takes only non-negative ints: the config names the seed before numpy fails
        design = build_fixed_design(2, 150, ControlMode.COMMON)
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(design, (0.0, 0.0), UNADJ, reps=200, seed=seed)

    def test_kfwer_levels_bounded(self):
        design = build_fixed_design(2, 150, ControlMode.COMMON)
        with pytest.raises(ValueError, match="k-FWER"):
            ScenarioConfig(design, (0.0, 0.0), UNADJ, kfwer_levels=(1, 3))

    @pytest.mark.parametrize("levels", [5, "12", {1: 1}])
    def test_kfwer_levels_must_be_a_list_or_tuple(self, levels):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        with pytest.raises(ValueError, match="^k-FWER levels must be a list or tuple, got "):
            ScenarioConfig(design, (0.0,) * 3, UNADJ, kfwer_levels=levels)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_default_kfwer_levels_are_cut_at_m(self, m):
        design = build_fixed_design(m, 150, ControlMode.COMMON)
        config = ScenarioConfig(design, (0.0,) * m, UNADJ, reps=200, seed=16)
        levels = tuple(range(2, min(3, m) + 1))
        assert config.kfwer_levels == (1,) + levels
        names = [n for n in run_scenario(config).estimates() if "fwer" in n]
        assert names == ["fwer"] + [f"kfwer_{k}" for k in levels]

    def test_non_finite_effects(self):
        design = build_fixed_design(2, 150, ControlMode.COMMON)
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig(design, (0.0, float("inf")), UNADJ)

    @pytest.mark.parametrize("level", [2.7, True, 0])
    def test_kfwer_levels_must_be_positive_ints(self, level):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        with rejected_quietly("k-FWER level must be"):
            ScenarioConfig(design, (0.0,) * 3, UNADJ, kfwer_levels=(1, level))

    @pytest.mark.parametrize("effect", [1e308, 10**400], ids=["1e308", "10**400"])
    def test_effects_with_infinite_z_means_fail_before_any_draw(self, effect, monkeypatch):
        # 1e308 is finite, but its z mean 1e308 * sqrt(75) is not; 10**400 is no float at all
        def no_draws(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(engine, "_draw_units", no_draws)
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        with rejected_quietly("effects must give finite z-statistic means"):
            run_scenario(ScenarioConfig(design, (effect, 0.0, 0.0), UNADJ, reps=200))
        with rejected_quietly("effects must give finite z-statistic means"):
            next(iter_zstat_blocks(design, (effect, 0.0, 0.0), 200, 1))


def _oracle(config):
    """Report of ``config`` counted replication by replication from its z-statistics."""
    z = collect_zstats(config.design, config.effects, config.reps, config.seed, config.mode)
    score = np.abs(z) if config.policy.sidedness is Sidedness.TWO_SIDED else z
    rejected = score > critical_value(config.policy, analytic_correlation(config.design))
    effective = [e != 0.0 for e in config.effects]
    counts = rejection_counts(rejected, effective, config.kfwer_levels)
    return characteristics_from_counts(**counts)


def _mixed_batch():
    fixed = build_fixed_design(3, 150, ControlMode.COMMON)
    base = ScenarioConfig(fixed, (0.38, 0.0, 0.0), UNADJ, reps=5_000, seed=21)
    # one seed, one design, every policy and sidedness: one draw, one z
    batch = [replace(base, policy=policy) for policy in POLICIES]
    # one seed, different designs with four cells each: one draw, three z
    batch += [
        replace(base, seed=22, policy=POLICIES[0]),
        replace(base, design=build_fixed_design(3, 60, ControlMode.COMMON), seed=22),
        ScenarioConfig(build_fixed_design(2, 100, ControlMode.INDIVIDUAL), (0.0, 0.2),
                       POLICIES[4], reps=5_000, seed=22, kfwer_levels=(1, 2)),
    ]
    # the first seed again at other reps, in patient mode, and distinct seeds
    batch += [
        replace(base, reps=9_000),
        replace(base, design=build_fixed_design(3, 20, ControlMode.COMMON),
                mode=SimulationMode.PATIENT_LEVEL),
        replace(base, design=build_staggered_design(150, 80), seed=23),
        replace(base, effects=(0.0,) * 3, seed=24, policy=POLICIES[2]),
    ]
    return batch


@st.composite
def _one_draw_group(draw):
    """Scenarios that share one fixed design, seed and reps: every effect vector
    drawn (all-null, all-effective or mixed) under every policy drawn."""
    m = draw(st.integers(min_value=1, max_value=12))
    mode = draw(st.sampled_from(list(SimulationMode)))
    n = draw(st.integers(min_value=1, max_value=8 if mode is SimulationMode.PATIENT_LEVEL else 200))
    design = build_fixed_design(m, n, draw(st.sampled_from(list(ControlMode))))
    # all-null, all-effective and (for m > 1) mixed: the number of effective arms
    kinds = [st.just(0), st.just(m)] + ([st.integers(1, m - 1)] if m > 1 else [])
    effect = st.sampled_from([-0.6, 0.3, 0.9])
    effect_vectors = []
    for effective in draw(st.lists(st.one_of(kinds), min_size=1, max_size=2, unique=True)):
        arms = draw(st.permutations(range(m)))[:effective]
        effect_vectors.append(tuple(draw(effect) if j in arms else 0.0 for j in range(m)))
    reps = draw(st.integers(1, 2 * engine.BLOCK_SIZE + 300).filter(lambda r: r % engine.BLOCK_SIZE))
    seed = draw(st.integers(0, 2**32))
    levels = tuple(draw(st.sets(st.integers(1, min(m, 4)), min_size=1)))
    policies = draw(st.lists(st.sampled_from(POLICIES), min_size=1, max_size=4, unique=True))
    return [
        ScenarioConfig(design, effects, policy, reps=reps, seed=seed, mode=mode, kfwer_levels=levels)
        for effects in effect_vectors
        for policy in policies
    ]


class TestRunScenarios:
    @given(_one_draw_group())
    @settings(max_examples=50, deadline=None)
    def test_tallies_equal_per_replication_counts(self, batch):
        assert run_scenarios(batch) == [_oracle(config) for config in batch]

    def test_tallies_at_forty_arms(self):
        # 31 x 11 joint bins; a histogram of rejection patterns would need 2**40
        design = build_fixed_design(40, 100, ControlMode.COMMON)
        effects = (0.45,) * 10 + (0.0,) * 30
        batch = [
            ScenarioConfig(design, effects, policy, reps=engine.BLOCK_SIZE + 904, seed=31,
                           kfwer_levels=(1, 2, 3))
            for policy in (POLICIES[1], POLICIES[4])
        ]
        reports = run_scenarios(batch)
        assert reports == [_oracle(config) for config in batch]
        assert all(0 < report.fwer.value < 1 for report in reports)

    def test_batch_equals_single_runs_and_per_replication_counts(self):
        batch = _mixed_batch()
        reports = run_scenarios(batch)
        assert reports == [run_scenario(config) for config in batch]
        assert reports == [_oracle(config) for config in batch]

    def test_each_plan_is_built_once(self, monkeypatch):
        built = []
        build_plan = engine._build_plan

        def counting(design, effects, mode):
            built.append((design, effects, mode))
            return build_plan(design, effects, mode)

        monkeypatch.setattr(engine, "_build_plan", counting)
        batch = _mixed_batch()
        engine._draw_groups(batch)
        expected = {(c.design, c.effects, c.mode) for c in batch}
        assert sorted(built, key=repr) == sorted(expected, key=repr)

    def test_batch_does_not_depend_on_worker_count(self):
        batch = _mixed_batch()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert run_scenarios(batch, workers=1) == run_scenarios(batch, workers=3)
        finally:
            sys.setswitchinterval(interval)

    def test_empty_batch(self):
        assert run_scenarios([], workers=2) == []

    @pytest.mark.parametrize("workers", [1.5, True, 0])
    def test_workers_must_be_a_positive_int(self, workers, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(engine.concurrent.futures, "ThreadPoolExecutor", no_pool)
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        config = ScenarioConfig(design, (0.0,) * 3, UNADJ, reps=engine.BLOCK_SIZE + 1)
        with rejected_quietly("workers must be"):
            run_scenarios([config], workers=workers)


class TestCommonRandomNumbers:
    """A run opens one stream per block of each draw group, however many scenarios share it."""

    @pytest.fixture
    def opened(self, monkeypatch):
        streams = []
        block_rng = engine._block_rng

        def counting(seed, block_index):
            streams.append((seed, block_index))
            return block_rng(seed, block_index)

        monkeypatch.setattr(engine, "_block_rng", counting)
        return streams

    @pytest.mark.parametrize(
        "preset, groups",
        # table3: one seed for the three common-control policies, one for IC.
        # fig5: one seed for every shift, and one for IC; every design has three arms,
        # so each seed's scenarios share one group.
        [("table3", 2), ("fig5_flex_fwer", 2)],
    )
    def test_preset_opens_one_stream_per_group_and_block(self, opened, tmp_path, preset, groups):
        run_preset(preset, {"reps": 50_000}, out_dir=tmp_path)
        assert len(opened) == groups * 13
        assert len({seed for seed, _ in opened}) == 2

    def test_single_scenario_opens_one_stream_per_block(self, opened):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        run_scenario(ScenarioConfig(design, (0.0,) * 3, UNADJ, reps=50_000, seed=25))
        assert sorted(opened) == [(25, block) for block in range(13)]


class TestBlockStreams:
    def test_streams_are_keyed_by_seed_and_block(self):
        # (seed, block) is an ordered key: (0, 1) and (1, 0) open different streams
        keys = [(seed, block) for seed in range(4) for block in range(4)]
        first = {key: engine._block_rng(*key).standard_normal(4).tobytes() for key in keys}
        assert len(set(first.values())) == len(keys)


class TestPatientDrawMemory:
    """Patient-mode draws are taken in row chunks through one reused buffer, so a
    block's memory does not grow with n."""

    def test_chunked_draw_equals_one_whole_draw(self):
        # (rows, cell shape): 2**16 normals are 43 rows of 1,500 (96 chunks) and 93 of 700;
        # 848 rows of 150 are one chunk of 436 and a last one of 412; n = 1 fills one chunk
        # per cell; a row of 70,000 is longer than a chunk, so each row is drawn alone
        cases = [
            (engine.BLOCK_SIZE, (1_500, 700)),
            (848, (150, 150)),
            (engine.BLOCK_SIZE, (1, 1)),
            (3, (70_000, 2)),
        ]
        for rows, shape in cases:
            units = engine._draw_units(11, 2, rows, shape, SimulationMode.PATIENT_LEVEL)
            rng = engine._block_rng(11, 2)
            for i, patients in enumerate(shape):
                # a one-shot draw of each cell from the same stream is the oracle
                whole = rng.standard_normal((rows, patients)).mean(axis=1)
                assert units[:, i].tobytes() == whole.tobytes(), (rows, shape, i)

    def test_block_peak_is_bounded_independently_of_n(self):
        # (m, n): the benchmark's patient_w2 config (Dunnett, arm 1 effective), and large n
        configs = [
            ScenarioConfig(
                build_fixed_design(10, 150, ControlMode.COMMON), (0.38,) + (0.0,) * 9,
                AdjustmentPolicy(AdjustmentMethod.DUNNETT), reps=engine.BLOCK_SIZE, seed=5,
                mode=SimulationMode.PATIENT_LEVEL,
            ),
            ScenarioConfig(
                build_fixed_design(2, 6_000, ControlMode.COMMON), (0.0, 0.0), UNADJ,
                reps=engine.BLOCK_SIZE, seed=5, mode=SimulationMode.PATIENT_LEVEL,
                kfwer_levels=(1,),
            ),
        ]
        engine._block_rng(5, 0)  # numpy imports its random submodules (0.6 MiB) on first use
        for config in configs:
            ((group, members),) = engine._draw_groups([config]).items()
            tracemalloc.start()
            try:
                engine._group_block(group, members, 0, engine.BLOCK_SIZE)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # 0.85 MiB (m = 10, n = 150) and 0.55 MiB (m = 2, n = 6,000) measured: the
            # 512 KiB draw buffer and the units (352 KiB at 11 cells); one chunk of 2**20
            # normals would add 8 MiB, and a whole cell at n = 6,000 is 188 MiB
            assert peak < 1.5 * 2**20, config.design.num_arms


class TestSufficientBlockMemory:
    def test_block_peak_is_bounded(self):
        # one member of ten arms (20 cells), tallied by six rules: every method and sidedness
        design = build_fixed_design(10, 150, ControlMode.INDIVIDUAL)
        effects = (0.38,) + (0.0,) * 9
        configs = [
            ScenarioConfig(design, effects, policy, reps=engine.BLOCK_SIZE, seed=5)
            for policy in POLICIES
        ]
        ((group, members),) = engine._draw_groups(configs).items()
        engine._block_rng(5, 0)  # numpy imports its random submodules (0.6 MiB) on first use
        tracemalloc.start()
        try:
            tallies = engine._group_block(group, members, 0, engine.BLOCK_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tallies) == 6
        # 1.01 MiB measured: the draws and z (320 KiB each) while z is formed,
        # then z, |z| and one rule's rejections (0/1 floats, 320 KiB); draws kept
        # through the tallies would add 0.3 MiB (1.32 MiB measured), and
        # rejections kept for the whole block 0.6 MiB or more
        assert peak < 1.25 * 2**20


def _preset_design_families():
    """Every kind of design the presets simulate, over the presets' arm and shift ranges."""
    designs = [build_fixed_design(m, 150, mode) for m in range(1, 11) for mode in ControlMode]
    for m in range(2, 11):
        designs += [
            build_fixed_total_design(FIXED_TOTAL, m, ControlMode.COMMON),
            build_fixed_total_design(FIXED_TOTAL, m, ControlMode.COMMON, math.sqrt(m)),
            build_fixed_total_design(FIXED_TOTAL, m, ControlMode.INDIVIDUAL),
        ]
    for shift in range(0, 151):
        designs += [build_staggered_design(150, shift), build_budget_design(shift, SPONSOR_BUDGET)]
    return designs


class TestCovarianceFactor:
    """A sufficient-mode plan draws one normal per arm, weighed by the lower Cholesky
    factor of the z covariance that its cell weights give."""

    def test_factor_reproduces_the_analytic_correlation(self):
        worst = 0.0
        for design in _preset_design_families():
            m = design.num_arms
            plan = _build_plan(design, (0.0,) * m, SimulationMode.SUFFICIENT_STATISTIC)
            factor = plan.weights
            assert plan.shape == m
            assert factor.shape == (m, m)
            assert np.array_equal(factor, np.tril(factor)), design
            assert np.all(np.diag(factor) > 0), design
            gap = np.abs(factor @ factor.T - analytic_correlation(design).as_array()).max()
            worst = max(worst, gap)
        # 7.8e-16 measured
        assert worst <= 1e-13

    def test_singular_covariance_gives_finite_z(self):
        # 2**62 treatment patients per arm against one shared control patient: every
        # correlation rounds to 1, so every pivot after the first is rounding noise
        design = PlatformDesign(ControlMode.COMMON, ((1,), (2**62,), (2**62,), (2**62,)))
        plan = _build_plan(design, (0.0,) * 3, SimulationMode.SUFFICIENT_STATISTIC)
        assert np.all(np.isfinite(plan.weights))
        assert np.abs(plan.weights @ plan.weights.T - 1.0).max() <= 1e-13
        z = collect_zstats(design, (0.0,) * 3, 100, seed=5)
        assert np.all(np.isfinite(z))

    def test_block_draws_one_normal_per_arm(self, monkeypatch):
        drawn = []
        draw_units = engine._draw_units

        def recording(*args):
            units = draw_units(*args)
            drawn.append(units.shape)
            return units

        monkeypatch.setattr(engine, "_draw_units", recording)
        # 20 recruitment cells, ten arms
        design = build_fixed_design(10, 150, ControlMode.INDIVIDUAL)
        config = ScenarioConfig(design, (0.38,) + (0.0,) * 9, UNADJ, reps=engine.BLOCK_SIZE, seed=5)
        run_scenario(config)
        assert drawn == [(engine.BLOCK_SIZE, 10)]
