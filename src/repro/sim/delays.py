"""Message-delay models.

Section 7 of the paper uses two delay regimes: constant delays (the
synchronous case) and exponentially distributed delays (the asynchronous
case).  We implement both plus uniform and shifted-lognormal models for
the ablation study E-ABL-DELAY.
"""

import math
from typing import List, Sequence

import numpy as np


class DelayModel:
    """Base class: draws one-way message delays for (src, dst) pairs.

    A subclass defines ``sample(rng, src, dst)``, a strictly positive
    delay for one message, and ``sample_batch(rng, src, dsts)``, the
    delays of a quorum round's messages from ``src``, one per destination.
    Contract: ``sample_batch`` consumes the RNG stream exactly as
    ``len(dsts)`` successive ``sample`` calls would, and returns the same
    values in the same order — numpy's ``size=n`` draws produce the
    identical variates as n scalar draws from the same Generator state, so
    the vectorized forms below keep seeded runs bit-for-bit identical
    while paying for one Generator call per quorum round instead of one
    per message.
    """


class ConstantDelay(DelayModel):
    """All messages take exactly ``delay`` time units (synchronous model)."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay <= 0:
            raise ValueError(f"delay must be positive, got {delay}")
        self._delay = delay

    def sample(self, rng: np.random.Generator, src: int, dst: int) -> float:
        return self._delay

    def sample_batch(
        self, rng: np.random.Generator, src: int, dsts: Sequence[int]
    ) -> List[float]:
        return [self._delay] * len(dsts)

    def __repr__(self) -> str:
        return f"ConstantDelay({self._delay})"


class ExponentialDelay(DelayModel):
    """Exponentially distributed delays (the paper's asynchronous model).

    A small positive floor avoids zero-length delays, which would let a
    message arrive at the instant it was sent.
    """

    def __init__(self, mean: float = 1.0, floor: float = 1e-9) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        self._mean = mean
        self._floor = floor

    def sample(self, rng: np.random.Generator, src: int, dst: int) -> float:
        return max(self._floor, rng.exponential(self._mean))

    def sample_batch(
        self, rng: np.random.Generator, src: int, dsts: Sequence[int]
    ) -> List[float]:
        draws = rng.exponential(self._mean, size=len(dsts))
        # tolist() converts to plain floats: the scheduler compares these
        # inside heap tuples, where np.float64 comparisons are slower.
        return np.maximum(self._floor, draws).tolist()

    def __repr__(self) -> str:
        return f"ExponentialDelay(mean={self._mean})"


class UniformDelay(DelayModel):
    """Delays uniform on [low, high]."""

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not 0 < low <= high:
            raise ValueError(f"need 0 < low <= high, got low={low}, high={high}")
        self._low = low
        self._high = high

    def sample(self, rng: np.random.Generator, src: int, dst: int) -> float:
        return rng.uniform(self._low, self._high)

    def sample_batch(
        self, rng: np.random.Generator, src: int, dsts: Sequence[int]
    ) -> List[float]:
        return rng.uniform(self._low, self._high, size=len(dsts)).tolist()

    def __repr__(self) -> str:
        return f"UniformDelay({self._low}, {self._high})"


class LogNormalDelay(DelayModel):
    """Heavy-tailed delays: lognormal with the requested mean.

    Used by the ablation E-ABL-DELAY to stress the paper's claim that the
    round structure averages out delay variation.
    """

    def __init__(self, mean: float = 1.0, sigma: float = 1.0) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self._mean = mean
        self._sigma = sigma
        # Choose mu so that the lognormal mean exp(mu + sigma^2/2) equals mean.
        self._mu = math.log(mean) - sigma * sigma / 2.0

    def sample(self, rng: np.random.Generator, src: int, dst: int) -> float:
        return rng.lognormal(self._mu, self._sigma)

    def sample_batch(
        self, rng: np.random.Generator, src: int, dsts: Sequence[int]
    ) -> List[float]:
        return rng.lognormal(self._mu, self._sigma, size=len(dsts)).tolist()

    def __repr__(self) -> str:
        return f"LogNormalDelay(mean={self._mean}, sigma={self._sigma})"

