"""Open-loop arrival processes for service-mode traffic.

A closed-loop workload (every runner in this repo before service mode)
issues its next operation only after the previous one settles, so the
system can never be pushed past saturation — offered load adapts to
observed latency.  An *open-loop* process generates arrivals from an
external clock regardless of completions, the regime a production
service actually faces; queueing delay and load shedding then become
measurable instead of being silently absorbed by the workload.

Three processes cover the classic traffic shapes:

* :class:`PoissonArrivals` — memoryless arrivals at a constant rate,
* :class:`BurstyArrivals` — geometric-size bursts of tightly spaced
  arrivals separated by long gaps, with the long-run mean rate held
  exactly at the configured value,
* :class:`DiurnalArrivals` — a non-homogeneous Poisson process whose
  rate swings sinusoidally over a configurable period (a compressed
  day/night cycle), sampled by Lewis–Shedler thinning.

Every draw comes from the caller-supplied Generator, so a seeded stream
makes the whole arrival timeline deterministic.  A process hands out its
timeline as one iterator of gaps (:meth:`ArrivalProcess.gaps`); Poisson
gaps are drawn :data:`BLOCK` at a time, which reads the stream exactly
as one draw per gap would.  A process travels through configs as a
plain-data spec, built from :data:`KINDS` by :func:`repro.specs.build`.
"""

import math
from itertools import chain
from typing import Callable, Iterator, List

import numpy as np

#: Draws per block for a stream read in blocks.  numpy's vector draws
#: consume the bit generator exactly as the same number of scalar draws
#: do, so the block size changes no value, only how often Python asks.
BLOCK = 256


def blocks(draw: Callable[[], List]) -> Iterator:
    """The items of the lists ``draw()`` returns, calling it once per list
    (once per :data:`BLOCK` items for the streams here)."""
    return chain.from_iterable(iter(draw, None))


class ArrivalProcess:
    """Base class: the gaps between consecutive arrivals.

    A subclass defines ``gaps(rng, start)``: an endless iterator of
    strictly positive gaps, the first from ``start`` to the first arrival
    and each next one from the arrival before.  The consumer schedules
    arrival ``i + 1`` at ``now + gap`` after arrival ``i``, as the
    scheduler adds them.
    """


#: Gap floor: a zero-length inter-arrival would schedule two arrivals at
#: the same instant, making event order depend on queue insertion only.
_FLOOR = 1e-9


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival times at ``rate``."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        self._rate = rate
        self._scale = 1.0 / rate

    def gaps(self, rng: np.random.Generator, start: float) -> Iterator[float]:
        return blocks(
            lambda: np.maximum(
                _FLOOR, rng.exponential(self._scale, BLOCK)
            ).tolist()
        )

    def __repr__(self) -> str:
        return f"PoissonArrivals(rate={self._rate})"


class BurstyArrivals(ArrivalProcess):
    """Bursts of tightly spaced arrivals separated by idle gaps.

    Burst sizes are geometric with mean ``mean_burst``; within a burst,
    arrivals are Poisson at ``peakedness`` times the configured rate.
    The idle gap before each burst is sized so the long-run mean rate is
    exactly ``rate`` — raising ``peakedness`` squeezes the same traffic
    into sharper spikes without changing the offered load, which is what
    makes the comparison against :class:`PoissonArrivals` honest.  The
    size and gap draws interleave on one stream, so they stay one draw
    per gap.
    """

    def __init__(
        self, rate: float, mean_burst: float = 8.0, peakedness: float = 10.0
    ) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        if mean_burst < 1.0:
            raise ValueError(f"mean burst size must be >= 1, got {mean_burst}")
        if peakedness <= 1.0:
            raise ValueError(f"peakedness must be > 1, got {peakedness}")
        self._rate = rate
        self._mean_burst = mean_burst
        self._peakedness = peakedness
        self._intra_scale = 1.0 / (peakedness * rate)
        # Per burst of mean size m: one gap + (m - 1) intra-burst waits.
        # Solving m / (gap + (m - 1) * intra) = rate for the gap's mean:
        self._gap_mean = mean_burst / rate - (mean_burst - 1.0) * self._intra_scale

    def gaps(self, rng: np.random.Generator, start: float) -> Iterator[float]:
        while True:
            # New burst: draw its size, then wait out the idle gap to its
            # first arrival; the rest of the burst follows tightly.
            remaining = int(rng.geometric(1.0 / self._mean_burst)) - 1
            yield max(_FLOOR, rng.exponential(self._gap_mean))
            for _ in range(remaining):
                yield max(_FLOOR, rng.exponential(self._intra_scale))

    def __repr__(self) -> str:
        return (
            f"BurstyArrivals(rate={self._rate}, mean_burst={self._mean_burst}, "
            f"peakedness={self._peakedness})"
        )


class DiurnalArrivals(ArrivalProcess):
    """A sinusoidal day/night cycle: rate(t) = rate·(1 + a·sin(2πt/T)).

    Sampled by Lewis–Shedler thinning against the peak rate, which is
    exact for a non-homogeneous Poisson process (no stepwise
    approximation) and consumes the RNG stream deterministically: one
    exponential plus one uniform per candidate arrival.  Thinning reads
    the clock, so the draws stay one candidate at a time.
    """

    def __init__(
        self, rate: float, period: float = 200.0, amplitude: float = 0.8
    ) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        self._rate = rate
        self._period = period
        self._amplitude = amplitude
        self._peak = rate * (1.0 + amplitude)
        self._peak_scale = 1.0 / self._peak
        self._omega = 2.0 * math.pi / period

    def rate_at(self, time: float) -> float:
        """The instantaneous arrival rate at simulated time ``time``."""
        return self._rate * (
            1.0 + self._amplitude * math.sin(self._omega * time)
        )

    def gaps(self, rng: np.random.Generator, start: float) -> Iterator[float]:
        now = start
        while True:
            time = now
            while True:
                time += rng.exponential(self._peak_scale)
                if rng.random() * self._peak <= self.rate_at(time):
                    break
            gap = max(_FLOOR, time - now)
            yield gap
            # The consumer's clock, not ``time``: the next arrival is
            # scheduled ``gap`` after this one, and thinning must see the
            # instant the scheduler will.
            now += gap

    def __repr__(self) -> str:
        return (
            f"DiurnalArrivals(rate={self._rate}, period={self._period}, "
            f"amplitude={self._amplitude})"
        )


#: Arrival spec kinds, built by :func:`repro.specs.build`.
KINDS = {
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
    "diurnal": DiurnalArrivals,
}
