"""Tests for message-delay models."""

import numpy as np
import pytest

from repro.sim.delays import (
    ConstantDelay,
    ExponentialDelay,
    LogNormalDelay,
    UniformDelay,
)


@pytest.fixture
def gen():
    return np.random.default_rng(0)


def test_constant_delay_is_constant(gen):
    model = ConstantDelay(2.5)
    samples = [model.sample(gen, 0, 1) for _ in range(20)]
    assert samples == [2.5] * 20
    assert model.mean == 2.5
    assert model.is_synchronous


def test_constant_delay_rejects_non_positive():
    with pytest.raises(ValueError):
        ConstantDelay(0.0)
    with pytest.raises(ValueError):
        ConstantDelay(-1.0)


def test_exponential_mean_close(gen):
    model = ExponentialDelay(2.0)
    samples = np.array([model.sample(gen, 0, 1) for _ in range(20_000)])
    assert abs(samples.mean() - 2.0) < 0.1
    assert not model.is_synchronous


def test_exponential_always_positive(gen):
    model = ExponentialDelay(0.001)
    assert all(model.sample(gen, 0, 1) > 0 for _ in range(1000))


def test_exponential_rejects_non_positive_mean():
    with pytest.raises(ValueError):
        ExponentialDelay(0.0)


def test_uniform_bounds(gen):
    model = UniformDelay(0.5, 1.5)
    samples = [model.sample(gen, 0, 1) for _ in range(1000)]
    assert all(0.5 <= s <= 1.5 for s in samples)
    assert model.mean == 1.0


def test_uniform_rejects_bad_bounds():
    with pytest.raises(ValueError):
        UniformDelay(2.0, 1.0)
    with pytest.raises(ValueError):
        UniformDelay(0.0, 1.0)


def test_lognormal_mean_matches_request(gen):
    model = LogNormalDelay(mean=3.0, sigma=0.8)
    samples = np.array([model.sample(gen, 0, 1) for _ in range(50_000)])
    assert abs(samples.mean() - 3.0) < 0.15
    assert model.mean == 3.0


def test_lognormal_rejects_bad_params():
    with pytest.raises(ValueError):
        LogNormalDelay(mean=0.0)
    with pytest.raises(ValueError):
        LogNormalDelay(mean=1.0, sigma=0.0)

