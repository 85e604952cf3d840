import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import platformsim
from platformsim.designs import (
    ControlMode,
    PlatformDesign,
    build_budget_design,
    build_fixed_design,
    build_staggered_design,
)
from oracles import shared_control_count
from strategies import fixed_designs, staggered_params


def brute_force_budget_comparison_n(shift, budget, early_n=150):
    """Independent oracle: exhaustive search over integer allocations.

    Feasible allocations give the late arm equal patients per comparison
    side, spend the whole budget up to one patient, and charge the sponsor
    its one-third share of joint-period control recruitment up to integer
    rounding. The oracle returns the largest feasible per-side size.
    """
    joint = early_n - shift
    exact_share = joint / 3.0
    best = None
    for tail in range(0, budget + 1):
        spent_on_tail = 2 * tail  # late-arm tail patients plus matching controls
        share = budget - joint - spent_on_tail
        if share < 0:
            continue
        if not (exact_share - 1 <= share <= exact_share + 1):
            continue
        total_spend = joint + share + spent_on_tail
        if not budget - 1 <= total_spend <= budget:
            continue
        size = joint + tail
        if best is None or size > best:
            best = size
    return best


class TestBuildFixedDesign:
    def test_common_total_600(self):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        assert design.total_sample_size() == 600
        assert len(design.recruitment) == 4

    def test_individual_total_900(self):
        design = build_fixed_design(3, 150, ControlMode.INDIVIDUAL)
        assert design.total_sample_size() == 900
        assert len(design.recruitment) == 6

    def test_single_arm_modes_coincide(self):
        common = build_fixed_design(1, 150, ControlMode.COMMON)
        individual = build_fixed_design(1, 150, ControlMode.INDIVIDUAL)
        assert common.total_sample_size() == 300
        assert common.recruitment == individual.recruitment

    def test_rejects_zero_arms(self):
        with pytest.raises(ValueError):
            build_fixed_design(0, 150, ControlMode.COMMON)

    def test_rejects_zero_patients(self):
        with pytest.raises(ValueError):
            build_fixed_design(3, 0, ControlMode.COMMON)

    def test_rejects_counts_beyond_int64(self):
        # counts enter numpy as int64, so the design refuses them, not a later block
        assert build_fixed_design(3, 2**63 - 1, ControlMode.COMMON).num_arms == 3
        message = f"entry (0, 0) must be at most {2**63 - 1}, got {2**63}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_fixed_design(3, 2**63, ControlMode.COMMON)


class TestBuildStaggeredDesign:
    def test_reference_shift_80(self):
        design = build_staggered_design(150, 80)
        assert design.recruitment[0] == (80, 70, 80)
        assert sum(design.recruitment[0]) == 230
        assert design.total_sample_size() == 680

    def test_zero_shift_collapses_to_fixed(self):
        assert build_staggered_design(150, 0) == build_fixed_design(3, 150, ControlMode.COMMON)

    def test_full_shift_disjoint_controls(self):
        design = build_staggered_design(150, 150)
        assert shared_control_count(design, 0, 2) == 0
        assert shared_control_count(design, 1, 2) == 0
        assert shared_control_count(design, 0, 1) == 150

    def test_rejects_shift_above_n(self):
        with pytest.raises(ValueError):
            build_staggered_design(150, 151)

    @pytest.mark.parametrize(
        "n, shift, message",
        [(0, 0, "need at least one patient per arm"),
         (150, -1, "shift must lie between 0 and the per-arm sample size n=150, got -1")],
    )
    def test_rejects_bad_arguments(self, n, shift, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_staggered_design(n, shift)

    @given(staggered_params())
    @settings(max_examples=60)
    def test_every_comparison_has_n_per_side(self, params):
        n, shift = params
        design = build_staggered_design(n, shift)
        for arm in range(3):
            assert design.treatment_total(arm) == n
            assert design.concurrent_control_count(arm) == n


class TestBuildBudgetDesign:
    def test_reference_allocation_shift_90(self):
        design = build_budget_design(90, 300)
        assert design.recruitment == (
            (90, 60, 110),
            (90, 60, 0),
            (90, 60, 0),
            (0, 60, 110),
        )
        assert design.comparison_sizes(2) == (170, 170)
        assert tuple(map(sum, design.recruitment)) == (260, 150, 150, 170)
        assert design.total_sample_size() == 730
        # the sponsor's period-2 control share: budget - late total - last-period controls
        assert 300 - design.treatment_total(2) - design.recruitment[0][-1] == 20

    @pytest.mark.parametrize(
        "shift,expected",
        [(90, 170), (40, 187), (150, 150), (0, 200)],
    )
    def test_comparison_n_matches_exhaustive_search(self, shift, expected):
        assert build_budget_design(shift, 300).comparison_sizes(2) == (expected, expected)
        assert brute_force_budget_comparison_n(shift, 300) == expected

    def test_sponsor_budget_is_spent_exactly(self):
        # the budget buys the late arm, the last period's controls and a share
        # of period-2 controls that stays within one patient of a third
        for shift in range(0, 151):
            design = build_budget_design(shift, 300)
            share = 300 - design.treatment_total(2) - design.recruitment[0][-1]
            assert abs(share - (150 - shift) / 3) <= 1

    def test_late_comparison_is_balanced(self):
        for shift in (0, 17, 40, 90, 149, 150):
            design = build_budget_design(shift, 300)
            assert design.treatment_total(2) == design.concurrent_control_count(2)

    def test_comparison_n_non_increasing_in_shift(self):
        sizes = [build_budget_design(s, 300).comparison_sizes(2)[0] for s in range(0, 151)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_rejects_budget_below_joint_obligation(self):
        # at shift 0 the sponsor owes 150 joint patients plus a 50-control share
        with pytest.raises(ValueError):
            build_budget_design(0, 199)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            build_budget_design(90, 0)

    @pytest.mark.parametrize(
        "shift, budget, message",
        [
            (-1, 300, "shift must lie between 0 and the early arms' sample size"),
            (151, 300, "shift must lie between 0 and the early arms' sample size"),
            # a 151-per-side comparison costs 302, one patient more than the budget
            (150, 301, "budget split infeasible after rounding"),
        ],
    )
    def test_rejects_bad_arguments(self, shift, budget, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_budget_design(shift, budget)


class TestCounts:
    def test_concurrent_controls_reference_design(self):
        design = build_staggered_design(150, 80)
        assert design.concurrent_control_count(0) == 150
        assert design.concurrent_control_count(2) == 150

    def test_concurrent_controls_fixed(self):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        for arm in range(3):
            assert design.concurrent_control_count(arm) == 150

    def test_shared_controls_reference_design(self):
        design = build_staggered_design(150, 80)
        assert shared_control_count(design, 0, 1) == 150
        assert shared_control_count(design, 0, 2) == 70
        assert shared_control_count(design, 1, 2) == 70

    def test_shared_rejects_equal_arms(self):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        with pytest.raises(ValueError):
            shared_control_count(design, 1, 1)

    def test_arm_index_out_of_range(self):
        design = build_fixed_design(3, 150, ControlMode.COMMON)
        with pytest.raises(IndexError):
            design.concurrent_control_count(3)
        for mode in ControlMode:
            design = build_fixed_design(3, 150, mode)
            for arm in (-1, 3):
                with pytest.raises(IndexError, match=f"arm index {arm} out of range for 3 arms"):
                    design.arm_rows(arm)

    @pytest.mark.parametrize(
        "mode, rows",
        [
            (ControlMode.COMMON, [(1, 0), (2, 0), (3, 0)]),
            (ControlMode.INDIVIDUAL, [(0, 1), (2, 3), (4, 5)]),
        ],
    )
    def test_arm_rows_per_control_mode(self, mode, rows):
        design = build_fixed_design(3, 150, mode)
        assert [design.arm_rows(arm) for arm in range(3)] == rows
        labels = design.arm_labels
        for arm, (t_row, c_row) in enumerate(rows):
            assert labels[t_row] == f"treatment_{arm + 1}"
            assert labels[c_row] == ("control" if mode is ControlMode.COMMON else f"control_{arm + 1}")

    @given(staggered_params(max_n=200), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=60)
    def test_shared_symmetric_and_bounded(self, params, a, b):
        n, shift = params
        design = build_staggered_design(n, shift)
        if a == b:
            return
        shared = shared_control_count(design, a, b)
        assert shared == shared_control_count(design, b, a)
        assert shared <= min(
            design.concurrent_control_count(a), design.concurrent_control_count(b)
        )

    def test_cached_comparison_sizes_leave_equality_and_hash_alone(self):
        filled, fresh = build_staggered_design(150, 80), build_staggered_design(150, 80)
        sizes = [filled.comparison_sizes(arm) for arm in range(3)]
        assert sizes == [
            (fresh.treatment_total(arm), fresh.concurrent_control_count(arm)) for arm in range(3)
        ]
        assert "_arm_sizes" in vars(filled) and "_arm_sizes" not in vars(fresh)
        assert filled == fresh and hash(filled) == hash(fresh)
        for arm in (-1, 3):
            with pytest.raises(IndexError, match=f"arm index {arm} out of range for 3 arms"):
                filled.comparison_sizes(arm)

    @given(fixed_designs())
    @settings(max_examples=60)
    def test_total_is_sum_of_arm_totals(self, design):
        assert design.total_sample_size() == sum(map(sum, design.recruitment))


class TestTotals:
    def test_totals_examples(self):
        assert build_fixed_design(3, 150, ControlMode.COMMON).total_sample_size() == 600
        assert build_staggered_design(150, 80).total_sample_size() == 680
        assert build_budget_design(90, 300).total_sample_size() == 730


class TestValidation:
    def test_rejects_non_contiguous_recruitment(self):
        with pytest.raises(ValueError, match="more than once"):
            PlatformDesign(ControlMode.COMMON, ((100, 100, 100), (50, 0, 50)))

    def test_rejects_empty_arm(self):
        with pytest.raises(ValueError, match="recruits no patients"):
            PlatformDesign(ControlMode.COMMON, ((100,), (0,)))

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            PlatformDesign(ControlMode.COMMON, ((100,), (-1,)))

    def test_rejects_non_integer_entry(self):
        with pytest.raises(ValueError):
            PlatformDesign(ControlMode.COMMON, ((100,), (1.5,)))

    def test_rejects_unpaired_individual_rows(self):
        with pytest.raises(ValueError):
            PlatformDesign(ControlMode.INDIVIDUAL, ((100,), (100,), (100,)))

    @pytest.mark.parametrize(
        "mode, rows, message",
        [
            (ControlMode.COMMON, (), "design needs at least one arm row"),
            (ControlMode.COMMON, ((), ()), "design needs at least one recruitment period"),
            (ControlMode.COMMON, ((100, 100), (100,)), "row 1 has 1 periods, expected 2"),
            (ControlMode.COMMON, ((100,),),
             "common-control design needs a control row and at least one treatment row"),
            (ControlMode.INDIVIDUAL, ((100,), (2**63,)),
             f"entry (1, 0) must be at most {2**63 - 1}, got {2**63}"),
        ],
    )
    def test_rejects_malformed_matrix(self, mode, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PlatformDesign(mode, rows)

    def test_rejects_misaligned_individual_control(self):
        with pytest.raises(ValueError, match="not active"):
            PlatformDesign(
                ControlMode.INDIVIDUAL, ((100, 0), (0, 100), (100, 0), (100, 0))
            )

    def test_designs_are_immutable(self):
        design = build_fixed_design(2, 10, ControlMode.COMMON)
        with pytest.raises(AttributeError):
            design.control_mode = ControlMode.INDIVIDUAL


class TestJsonRoundTrip:
    @given(fixed_designs())
    @settings(max_examples=40)
    def test_roundtrip(self, design):
        assert PlatformDesign.from_dict(design.to_dict()) == design

    def test_schema_fields(self):
        payload = build_staggered_design(150, 80).to_dict()
        assert payload["control_mode"] == "common"
        assert payload["arms"] == ["control", "treatment_1", "treatment_2", "treatment_3"]
        assert payload["matrix"][0] == [80, 70, 80]

    def test_rejects_wrong_labels(self):
        payload = build_fixed_design(2, 10, ControlMode.COMMON).to_dict()
        payload["arms"] = ["treatment_1", "treatment_2", "control"]
        with pytest.raises(ValueError):
            PlatformDesign.from_dict(payload)

    def test_rejects_malformed_payload(self):
        with pytest.raises(ValueError):
            PlatformDesign.from_dict({"control_mode": "common"})
        with pytest.raises(ValueError, match="malformed design payload"):
            PlatformDesign.from_dict({"control_mode": "common", "matrix": [[1], [1]], "arms": 5})
        with pytest.raises(ValueError, match="^control_mode must be 'common' or 'individual', got 'shared'$"):
            PlatformDesign.from_dict({"control_mode": "shared", "matrix": [[1], [1]]})
        # counts are taken as given, never coerced to an int
        for count in (150.7, True, "150"):
            payload = {"control_mode": "common", "matrix": [[150], [count]]}
            with pytest.raises(ValueError, match=r"entry \(1, 0\) is not an integer count"):
                PlatformDesign.from_dict(payload)


def test_only_designs_builds_a_design():
    # every recruitment matrix is laid out by a builder in designs.py
    package = Path(platformsim.__file__).parent
    callers = sorted(
        f"{path.name}:{node.lineno}"
        for path in package.glob("*.py")
        if path.name != "designs.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "PlatformDesign"
    )
    assert not callers
