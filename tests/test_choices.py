"""Named choices: every type and public function that takes one parses it.

A member passes through, its value string becomes the member, and anything
else raises a ValueError that names the field and the accepted values.
"""

import re

import numpy as np
import pytest

from platformsim.adjust import AdjustmentMethod, AdjustmentPolicy, critical_values
from platformsim.designs import (
    ControlMode,
    PlatformDesign,
    build_fixed_design,
    build_fixed_total_design,
)
from platformsim.distributions import (
    MvnSpec,
    Sidedness,
    dunnett_critical_values,
    rejection_count_pmf,
    rejection_law,
)
from platformsim.engine import ScenarioConfig, SimulationMode, iter_zstat_blocks, run_scenario
from platformsim.sample_size import marginal_power

EFFECTS = (0.38, 0.0, 0.0)
DUNNETT = AdjustmentPolicy(AdjustmentMethod.DUNNETT)
FIXED = build_fixed_design(3, 150, ControlMode.COMMON)
SUFFICIENT = SimulationMode.SUFFICIENT_STATISTIC
TWO_SIDED = Sidedness.TWO_SIDED


def member(choice):
    return choice


def value(choice):
    return choice.value


def bogus(_choice):
    return "bogus"


def accepted(enum):
    return " or ".join(repr(m.value) for m in enum)


def message(field, enum, given="bogus"):
    return f"^{re.escape(f'{field} must be {accepted(enum)}, got {given!r}')}$"


# Each site builds its object with the choice given as ``choose(member)``.
SITES = {
    "PlatformDesign": (
        "control_mode", ControlMode,
        lambda choose: PlatformDesign(choose(ControlMode.COMMON), ((150,),) * 4),
    ),
    "build_fixed_design": (
        "control_mode", ControlMode,
        lambda choose: build_fixed_design(3, 150, choose(ControlMode.COMMON)),
    ),
    "build_fixed_total_design": (
        "control_mode", ControlMode,
        lambda choose: build_fixed_total_design(600, 3, choose(ControlMode.COMMON)),
    ),
    "AdjustmentPolicy.method": (
        "method", AdjustmentMethod,
        lambda choose: AdjustmentPolicy(choose(AdjustmentMethod.DUNNETT)),
    ),
    "AdjustmentPolicy.sidedness": (
        "sidedness", Sidedness,
        lambda choose: AdjustmentPolicy(AdjustmentMethod.DUNNETT, sidedness=choose(TWO_SIDED)),
    ),
    "ScenarioConfig.mode": (
        "mode", SimulationMode,
        lambda choose: ScenarioConfig(FIXED, EFFECTS, DUNNETT, reps=500, mode=choose(SUFFICIENT)),
    ),
}


def as_config(built):
    """A scenario that runs the built design, policy or config."""
    if isinstance(built, PlatformDesign):
        return ScenarioConfig(built, (0.38,) + (0.0,) * (built.num_arms - 1), DUNNETT, reps=500)
    if isinstance(built, AdjustmentPolicy):
        return ScenarioConfig(FIXED, EFFECTS, built, reps=500)
    return built


class TestTypesParseTheirChoices:
    @pytest.mark.parametrize("site", SITES)
    def test_value_string_builds_the_member_object(self, site):
        _, _, build = SITES[site]
        by_value, by_member = build(value), build(member)
        assert by_value == by_member
        a, b = as_config(by_value), as_config(by_member)
        assert critical_values([(a.policy, a.design)]) == critical_values([(b.policy, b.design)])
        assert run_scenario(a) == run_scenario(b)

    @pytest.mark.parametrize("site", SITES)
    def test_bad_string_names_the_field(self, site):
        field, enum, build = SITES[site]
        with pytest.raises(ValueError, match=message(field, enum)):
            build(bogus)

    def test_a_member_of_another_choice_is_refused(self):
        with pytest.raises(ValueError, match=message("method", AdjustmentMethod, TWO_SIDED)):
            AdjustmentPolicy(TWO_SIDED)


SPEC = MvnSpec((0.7071,) * 3)

# Each function is called with its choice given as ``choose(member)``.
FUNCTIONS = {
    "iter_zstat_blocks": (
        "mode", SimulationMode,
        lambda choose: next(iter_zstat_blocks(FIXED, EFFECTS, 300, 5, choose(SUFFICIENT))),
    ),
    "marginal_power": (
        "sidedness", Sidedness,
        lambda choose: marginal_power(150, 150, 0.0, 1.96, choose(TWO_SIDED)),
    ),
    "dunnett_critical_values": (
        "sidedness", Sidedness,
        lambda choose: dunnett_critical_values([[0.7071] * 3], 0.05, choose(TWO_SIDED)),
    ),
    "rejection_law": (
        "sidedness", Sidedness,
        lambda choose: rejection_law(SPEC, [1.0, 0.0, 0.0], [True, False, False], 2.0,
                                     choose(TWO_SIDED)),
    ),
    "rejection_count_pmf": (
        "sidedness", Sidedness,
        lambda choose: rejection_count_pmf(SPEC, np.zeros(3), 2.0, choose(TWO_SIDED)),
    ),
}


@pytest.mark.parametrize("function", FUNCTIONS)
def test_functions_parse_a_bare_choice(function):
    field, enum, call = FUNCTIONS[function]
    by_value, by_member = call(value), call(member)
    assert np.asarray(by_value).tobytes() == np.asarray(by_member).tobytes()
    with pytest.raises(ValueError, match=message(field, enum)):
        call(bogus)
