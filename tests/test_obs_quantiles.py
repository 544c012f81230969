"""Quantile estimation: the log-bucket sketch, alone and as the registry's
histogram.

Three layers of checks:

1. **Sketch contract** — every reported quantile is within relative
   error ``ALPHA`` of the exact nearest-rank sample quantile, whatever
   the distribution (seeded unimodal, bimodal, heavy-tail, many-zeros
   and 12-decade streams, plus hypothesis); the state is counts only, so
   it is permutation-invariant and ``a.merged(b)`` is exactly the sketch
   of the concatenated stream; NaN/±inf/negative input is rejected and
   leaves the sketch untouched.
2. **The registry's histogram vs numpy** (hypothesis) — the same class
   reached through ``MetricsRegistry.histogram``, against numpy's
   inverted-CDF quantile as an independent reference.
3. **Export** — the Prometheus ``_bucket`` counts are exact, and each
   sketch quantile lies in the exported bucket where the cumulative
   count crosses ``q``.

The sketch tests keep their historical ``test_p2_*`` / ``streaming``
names: the suite's floor list pins test IDs, and what they pin — the
accuracy, range, rejection and empty-stream behaviour of
``StreamingQuantiles`` — is still what they check.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import to_prometheus_text, validate_prometheus_text
from repro.obs.quantiles import ALPHA, DEFAULT_QUANTILES, StreamingQuantiles
from repro.obs.registry import MetricsError, MetricsRegistry

#: ``ALPHA`` plus room for the float rounding of ``log`` at a bucket edge.
TOLERANCE = ALPHA * (1.0 + 1e-9)

QUANTILES = (0.5, 0.9, 0.99, 0.999)


def nearest_rank(values, q):
    """The exact sample quantile the sketch approximates."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def sketch_of(values):
    sketch = StreamingQuantiles()
    for value in values:
        sketch.observe(value)
    return sketch


def state(sketch):
    return sketch._zeros, dict(sketch._buckets)


def assert_within_alpha(sketch, values, q):
    exact = nearest_rank(values, q)
    assert abs(sketch.value(q) - exact) <= TOLERANCE * exact, (q, exact)


#: Zeros plus twelve decades of normal-range magnitudes (a subnormal's
#: own spacing is coarser than ALPHA, so it is outside the contract).
nonnegative = st.one_of(
    st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)
)

# --- sketch unit behavior --------------------------------------------------


def test_p2_rejects_bad_quantile_and_bad_observations():
    sketch = sketch_of([1.0, 2.0])
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(MetricsError):
            sketch.value(bad)
    before = state(sketch)
    for bad in (math.nan, math.inf, -math.inf, -1.0, -5e-324):
        with pytest.raises(MetricsError):
            sketch.observe(bad)
    assert sketch.count == 2
    assert state(sketch) == before


def test_p2_empty_value_is_nan():
    streams = StreamingQuantiles()
    assert streams.count == 0
    assert math.isnan(streams.value(0.5))
    assert all(math.isnan(v) for v in streams.values().values())


def test_streaming_quantiles_tracks_defaults():
    rng = np.random.default_rng(1)
    data = rng.exponential(scale=3.0, size=4000).tolist()
    streams = sketch_of(data)
    assert streams.count == 4000
    assert tuple(streams.values()) == DEFAULT_QUANTILES
    for q in DEFAULT_QUANTILES:
        assert streams.values()[q] == streams.value(q)
        assert_within_alpha(streams, data, q)
    # Estimates are monotone in q, out to the extremes.
    values = [streams.value(q) for q in (0.0, 0.5, 0.99, 0.999, 1.0)]
    assert values == sorted(values)


def test_sketch_zero_bucket_and_extreme_quantiles():
    sketch = sketch_of([0.0, 0.0, 0.0, 4.0])
    assert sketch.count == 4
    assert sketch.value(0.0) == 0.0
    assert sketch.value(0.75) == 0.0
    assert sketch.value(1.0) == pytest.approx(4.0, rel=TOLERANCE)


@pytest.mark.parametrize("q", QUANTILES)
@pytest.mark.parametrize(
    "sampler",
    [
        lambda rng, n: rng.uniform(0.0, 100.0, n),
        lambda rng, n: rng.exponential(5.0, n),
        lambda rng, n: rng.normal(10.0, 1.5, n),
        # A clean quorum round vs. nack + re-dispatch: the shape of
        # `serve --churn` latencies, where the median sits between modes.
        lambda rng, n: np.where(
            rng.random(n) < 0.55, rng.gamma(9.0, 0.4, n),
            rng.gamma(30.0, 0.3, n),
        ),
        lambda rng, n: rng.pareto(1.2, n) + 1.0,
        lambda rng, n: np.where(
            rng.random(n) < 0.7, 0.0, rng.exponential(2.0, n)
        ),
        lambda rng, n: 10.0 ** rng.uniform(-6.0, 6.0, n),
    ],
    ids=[
        "uniform", "exponential", "normal", "bimodal", "heavy_tail",
        "many_zeros", "twelve_decades",
    ],
)
def test_p2_accuracy_on_seeded_streams(q, sampler):
    data = sampler(np.random.default_rng(42), 5000).tolist()
    assert_within_alpha(sketch_of(data), data, q)


# --- hypothesis: the sketch contract ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(nonnegative, min_size=1, max_size=200),
    q=st.sampled_from((0.0,) + QUANTILES + (1.0,)),
)
def test_p2_estimate_within_sample_range(values, q):
    sketch = sketch_of(values)
    assert sketch.count == len(values)
    assert_within_alpha(sketch, values, q)
    assert (
        min(values) * (1.0 - TOLERANCE)
        <= sketch.value(q)
        <= max(values) * (1.0 + TOLERANCE)
    )
    assert sketch.value(0.5) <= sketch.value(0.99) <= sketch.value(0.999)


@settings(max_examples=60, deadline=None)
@given(
    left=st.lists(nonnegative, max_size=100),
    right=st.lists(nonnegative, max_size=100),
)
def test_sketch_merge_equals_sketch_of_concatenated_stream(left, right):
    a, b = sketch_of(left), sketch_of(right)
    before = state(a), state(b)
    merged = a.merged(b)
    assert state(merged) == state(sketch_of(left + right))
    assert merged.count == len(left) + len(right)
    assert state(b.merged(a)) == state(merged)
    assert (state(a), state(b)) == before


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(nonnegative, min_size=1, max_size=100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sketch_is_permutation_invariant(values, seed):
    shuffled = list(values)
    np.random.default_rng(seed).shuffle(shuffled)
    assert state(sketch_of(shuffled)) == state(sketch_of(values))


# --- hypothesis: the registry's histogram vs numpy --------------------------


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(
        st.floats(
            min_value=0.0, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
        min_size=1,
        max_size=150,
    ),
    q=st.floats(min_value=0.01, max_value=1.0),
)
def test_histogram_quantile_matches_numpy_within_bucket_resolution(values, q):
    histogram = MetricsRegistry().histogram("lat").labels()
    for value in values:
        histogram.observe(value)
    # numpy's inverted-CDF quantile is the nearest-rank sample quantile;
    # the histogram's bucket resolution is ALPHA everywhere, tail
    # included — no observation is too large to resolve.
    exact = float(np.quantile(values, q, method="inverted_cdf"))
    assert abs(histogram.value(q) - exact) <= TOLERANCE * exact


# --- cross-check: sketch quantiles vs the exported bucket counts -----------


def test_p2_and_histogram_agree_on_latency_shaped_stream():
    rng = np.random.default_rng(7)
    data = rng.gamma(shape=2.0, scale=2.0, size=3000).tolist()
    registry = MetricsRegistry()
    histogram = registry.histogram("lat").labels()
    for value in data:
        histogram.observe(value)
    exported = validate_prometheus_text(
        to_prometheus_text(registry.snapshot())
    )["lat"]["samples"]
    rows = [
        (float(labels["le"]), count)
        for labels, count in exported if "le" in labels
    ]
    # The exporter coarsens the sketch without interpolating: every
    # cumulative count is the exact number of observations <= le.
    for le, count in rows:
        assert count == sum(value <= le for value in data)
    assert rows[-1] == (math.inf, len(data))
    for q in DEFAULT_QUANTILES:
        # Sketch and export target the same rank ceil(q*n): the estimate
        # sits in the exported bucket where the cumulative count crosses
        # it (give or take ALPHA at the bucket's edges).
        rank = math.ceil(q * len(data))
        index = next(i for i, (_, count) in enumerate(rows) if count >= rank)
        lower = rows[index - 1][0] if index else 0.0
        assert (
            lower * (1.0 - TOLERANCE)
            <= histogram.value(q)
            <= rows[index][0] * (1.0 + TOLERANCE)
        ), q


def test_observe_rejection_applies_through_registry_family():
    # The front-door path used by the simulator: family -> child.observe.
    child = MetricsRegistry().histogram("lat").labels()
    with pytest.raises(MetricsError):
        child.observe(float("nan"))
