"""Operating characteristics of platform trials with shared or individual controls.

Simulates multi-arm platform trials under the normal model, quantifying
family-wise error rates (including k-FWER and the per-family error rate)
and marginal, disjunctive and conjunctive power, with optional Bonferroni
or Dunnett multiplicity adjustment, for fixed, staggered-entry and
budget-driven recruitment schedules.
"""

from .adjust import AdjustmentMethod, AdjustmentPolicy, critical_value
from .correlation import analytic_correlation
from .designs import (
    ControlMode,
    PlatformDesign,
    build_budget_design,
    build_fixed_design,
    build_fixed_total_design,
    build_staggered_design,
)
from .distributions import Sidedness
from .engine import ScenarioConfig, SimulationMode, run_scenario, run_scenarios
from .presets import available_presets, load_config, run_config, run_preset
from .sample_size import PowerTarget, required_per_arm_n

__all__ = [
    "AdjustmentMethod",
    "AdjustmentPolicy",
    "ControlMode",
    "PlatformDesign",
    "PowerTarget",
    "ScenarioConfig",
    "Sidedness",
    "SimulationMode",
    "analytic_correlation",
    "available_presets",
    "build_budget_design",
    "build_fixed_design",
    "build_fixed_total_design",
    "build_staggered_design",
    "critical_value",
    "load_config",
    "required_per_arm_n",
    "run_config",
    "run_preset",
    "run_scenario",
    "run_scenarios",
]

__version__ = "0.1.0"
