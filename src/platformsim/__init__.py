"""Operating characteristics of platform trials with shared or individual controls.

Simulates multi-arm platform trials under the normal model, quantifying
family-wise error rates (including k-FWER and the per-family error rate)
and marginal, disjunctive and conjunctive power, with optional Bonferroni
or Dunnett multiplicity adjustment, for fixed, staggered-entry and
budget-driven recruitment schedules.
"""

from .adjust import AdjustmentMethod, AdjustmentPolicy, critical_value, decide_rejections
from .correlation import (
    CorrelationMatrix,
    analytic_correlation,
    empirical_correlation,
    equal_recruitment_correlation,
    late_entry_pair_correlation,
)
from .designs import (
    BudgetAllocation,
    ControlMode,
    PlatformDesign,
    build_budget_design,
    build_fixed_design,
    build_staggered_design,
)
from .distributions import (
    ConvergenceError,
    MvnSpec,
    Sidedness,
    dunnett_critical_value,
    normal_cdf,
    normal_quantile,
    rejection_count_pmf,
)
from .engine import (
    ReplicationResult,
    ScenarioConfig,
    SimulationMode,
    iter_zstat_blocks,
    run_scenario,
    sample_replications,
    simulate_zstats,
)
from .metrics import (
    Estimate,
    OperatingCharacteristics,
    RejectionTally,
    aggregate_characteristics,
    tally_outcomes,
)
from .presets import available_presets, load_config, run_config, run_preset
from .sample_size import (
    ArmSplit,
    PowerTarget,
    analytic_two_arm_power,
    comparison_mean_shifts,
    fixed_template,
    marginal_power,
    required_per_arm_n,
    split_fixed_total,
    staggered_template,
)

__all__ = [
    "AdjustmentMethod",
    "AdjustmentPolicy",
    "ArmSplit",
    "BudgetAllocation",
    "ControlMode",
    "ConvergenceError",
    "CorrelationMatrix",
    "Estimate",
    "MvnSpec",
    "OperatingCharacteristics",
    "PlatformDesign",
    "PowerTarget",
    "RejectionTally",
    "ReplicationResult",
    "ScenarioConfig",
    "Sidedness",
    "SimulationMode",
    "aggregate_characteristics",
    "analytic_correlation",
    "analytic_two_arm_power",
    "available_presets",
    "build_budget_design",
    "build_fixed_design",
    "build_staggered_design",
    "comparison_mean_shifts",
    "critical_value",
    "decide_rejections",
    "dunnett_critical_value",
    "empirical_correlation",
    "equal_recruitment_correlation",
    "fixed_template",
    "iter_zstat_blocks",
    "late_entry_pair_correlation",
    "load_config",
    "marginal_power",
    "normal_cdf",
    "normal_quantile",
    "rejection_count_pmf",
    "required_per_arm_n",
    "run_config",
    "run_preset",
    "run_scenario",
    "sample_replications",
    "simulate_zstats",
    "split_fixed_total",
    "staggered_template",
    "tally_outcomes",
]

__version__ = "0.1.0"
