"""Shared hypothesis strategies for design generation."""

import hypothesis.strategies as st

from platformsim.designs import ControlMode, PlatformDesign, build_fixed_design


@st.composite
def fixed_designs(draw, max_arms=6, max_n=400):
    m = draw(st.integers(min_value=1, max_value=max_arms))
    n = draw(st.integers(min_value=1, max_value=max_n))
    mode = draw(st.sampled_from([ControlMode.COMMON, ControlMode.INDIVIDUAL]))
    return build_fixed_design(m, n, mode)


@st.composite
def single_period_common_designs(draw, max_arms=6, max_n=300):
    """Common-control designs with one period and per-arm sizes free to differ."""
    m = draw(st.integers(min_value=1, max_value=max_arms))
    control = draw(st.integers(min_value=1, max_value=max_n))
    treatments = draw(st.lists(st.integers(min_value=1, max_value=max_n), min_size=m, max_size=m))
    rows = ((control,),) + tuple((t,) for t in treatments)
    return PlatformDesign(ControlMode.COMMON, rows)


@st.composite
def staggered_params(draw, max_n=300):
    n = draw(st.integers(min_value=1, max_value=max_n))
    shift = draw(st.integers(min_value=0, max_value=n))
    return n, shift


@st.composite
def multi_period_common_designs(draw, max_arms=6, max_periods=5, max_count=60):
    """Common-control designs whose arms recruit over contiguous period windows."""
    m = draw(st.integers(min_value=1, max_value=max_arms))
    periods = draw(st.integers(min_value=1, max_value=max_periods))
    counts = st.integers(min_value=1, max_value=max_count)
    control = tuple(draw(counts) for _ in range(periods))
    rows = [control]
    for _ in range(m):
        start = draw(st.integers(min_value=0, max_value=periods - 1))
        stop = draw(st.integers(min_value=start + 1, max_value=periods))
        rows.append(tuple(draw(counts) if start <= t < stop else 0 for t in range(periods)))
    return PlatformDesign(ControlMode.COMMON, tuple(rows))


@st.composite
def scenario_configs(draw, max_arms=5, reps=3_000, max_patient_n=30, max_n=400):
    """JSON configs ``load_config`` accepts, with alpha at least 0.01.

    A fixed common- or individual-control design of 1 to ``max_arms`` arms,
    or the three-arm staggered design; effects from {0, +-0.3, 0.5}; every
    adjustment, sidedness and mode, with at most ``max_patient_n`` patients
    per arm in patient mode; and random k-FWER levels.
    """
    mode = draw(st.sampled_from(["sufficient", "patient"]))
    n = draw(st.integers(min_value=1, max_value=max_patient_n if mode == "patient" else max_n))
    if draw(st.booleans()):
        m, control = 3, "common"
        design = {"shift": draw(st.integers(min_value=0, max_value=n))}
    else:
        m = draw(st.integers(min_value=1, max_value=max_arms))
        control = draw(st.sampled_from(["common", "individual"]))
        design = {}
    return dict(
        design,
        m=m,
        n=n,
        control=control,
        effects=draw(st.lists(st.sampled_from([0.0, 0.3, -0.3, 0.5]), min_size=m, max_size=m)),
        alpha=draw(st.sampled_from([0.01, 0.025, 0.05, 0.2])),
        adjustment=draw(st.sampled_from(["unadjusted", "bonferroni", "dunnett"])),
        sidedness=draw(st.sampled_from(["one_sided", "two_sided"])),
        mode=mode,
        kfwer_levels=draw(st.lists(st.integers(min_value=1, max_value=m), max_size=m, unique=True)),
        reps=reps,
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    )
