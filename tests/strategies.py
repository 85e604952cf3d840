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
