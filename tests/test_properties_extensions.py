"""Property-based tests for the extension modules: atomicity checking,
masking analysis, latency percentiles and the approximate-agreement
operator."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.latency import percentile
from repro.apps.agreement import ApproximateAgreementACO
from repro.core.atomicity import is_atomic
from repro.core.history import RegisterHistory
from repro.core.timestamps import Timestamp
from repro.quorum.analysis import (
    intersection_size_pmf,
    masking_intersection_probability,
)


# --------------------------------------------------------------------- #
# Atomicity
# --------------------------------------------------------------------- #


@st.composite
def sequential_history(draw):
    """Histories whose operations never overlap and always return the
    latest write: atomic by construction."""
    history = RegisterHistory("H", initial_value=0)
    time = 1.0
    latest_seq = 0
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.booleans()):
            latest_seq += 1
            write = history.begin_write(
                0, time, latest_seq * 10, Timestamp(latest_seq, 0)
            )
            write.respond(time + 0.5)
        else:
            read = history.begin_read(draw(st.sampled_from([1, 2])), time)
            value = 0 if latest_seq == 0 else latest_seq * 10
            read.complete(time + 0.5, value, Timestamp(latest_seq, 0))
        time += 1.0
    return history


@given(sequential_history())
def test_sequential_latest_value_histories_are_atomic(history):
    assert is_atomic(history)


@given(sequential_history(), st.data())
def test_stale_mutation_breaks_atomicity(history, data):
    # Rewind some read that follows at least two writes to the first
    # write: with >= 2 completed newer writes this is an [L3] violation.
    writes = [w for w in history.writes if w.timestamp.seq >= 2]
    if not writes:
        return
    second_write = min(writes, key=lambda w: w.timestamp)
    read = history.begin_read(3, second_write.response_time + 100.0)
    read.complete(
        second_write.response_time + 101.0, 0, Timestamp.ZERO
    )
    assert not is_atomic(history)


# --------------------------------------------------------------------- #
# Masking / hypergeometric analysis
# --------------------------------------------------------------------- #


@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n))
    )
)
def test_intersection_pmf_is_a_distribution(params):
    n, k = params
    pmf = intersection_size_pmf(n, k)
    assert abs(sum(pmf.values()) - 1.0) < 1e-9
    assert all(p >= 0 for p in pmf.values())
    assert min(pmf) >= max(0, 2 * k - n)
    assert max(pmf) <= k


@given(
    st.integers(2, 30).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(1, n), st.integers(0, 3)
        )
    )
)
def test_masking_probability_in_unit_interval(params):
    n, k, b = params
    p = masking_intersection_probability(n, k, b)
    assert 0.0 <= p <= 1.0 + 1e-12


# --------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------- #


@given(
    st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50),
    st.floats(0.01, 100.0),
)
def test_percentile_within_sample_range(samples, q):
    value = percentile(samples, q)
    assert min(samples) <= value <= max(samples)


@given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=50))
def test_percentile_monotone_in_q(samples):
    values = [percentile(samples, q) for q in (10, 30, 50, 70, 90, 100)]
    for smaller, larger in zip(values, values[1:]):
        assert larger >= smaller - 1e-9


# --------------------------------------------------------------------- #
# Approximate agreement
# --------------------------------------------------------------------- #


@given(
    st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=8),
    st.integers(1, 6),
)
@settings(max_examples=50, deadline=None)
def test_agreement_estimates_stay_in_initial_hull(values, steps):
    aco = ApproximateAgreementACO(values, epsilon=1e-3)
    low, high = min(values), max(values)
    x = aco.initial()
    for _ in range(steps):
        x = aco.apply_all(x)
        for estimate, _ in x:
            assert low - 1e-9 <= estimate <= high + 1e-9


@given(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_agreement_spread_never_grows(values):
    aco = ApproximateAgreementACO(values, epsilon=1e-6)
    x = aco.initial()
    spread = aco.agreement_spread(x)
    for _ in range(4):
        x = aco.apply_all(x)
        new_spread = aco.agreement_spread(x)
        assert new_spread <= spread + 1e-9
        spread = new_spread
