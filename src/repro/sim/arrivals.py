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
makes the whole arrival timeline deterministic.  ``spec()``/
:func:`build_arrivals` round-trip each process through plain data for
the task/cache layer.
"""

import math
from typing import Any, Dict

import numpy as np


class ArrivalProcess:
    """Base class: draws the time until the next arrival.

    A subclass defines ``next_interarrival(rng, now)``, a strictly
    positive gap until the next arrival after ``now``, and ``spec()``, a
    plain-data description :func:`build_arrivals` reconstructs.
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

    def next_interarrival(self, rng: np.random.Generator, now: float) -> float:
        return max(_FLOOR, rng.exponential(self._scale))

    def spec(self) -> Dict[str, Any]:
        return {"kind": "poisson", "rate": self._rate}

    def __repr__(self) -> str:
        return f"PoissonArrivals(rate={self._rate})"


class BurstyArrivals(ArrivalProcess):
    """Bursts of tightly spaced arrivals separated by idle gaps.

    Burst sizes are geometric with mean ``mean_burst``; within a burst,
    arrivals are Poisson at ``peakedness`` times the configured rate.
    The idle gap before each burst is sized so the long-run mean rate is
    exactly ``rate`` — raising ``peakedness`` squeezes the same traffic
    into sharper spikes without changing the offered load, which is what
    makes the comparison against :class:`PoissonArrivals` honest.
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
        self._remaining = 0

    def next_interarrival(self, rng: np.random.Generator, now: float) -> float:
        if self._remaining > 0:
            self._remaining -= 1
            return max(_FLOOR, rng.exponential(self._intra_scale))
        # New burst: draw its size, then wait out the idle gap to its
        # first arrival.
        self._remaining = int(rng.geometric(1.0 / self._mean_burst))
        self._remaining -= 1
        return max(_FLOOR, rng.exponential(self._gap_mean))

    def spec(self) -> Dict[str, Any]:
        return {
            "kind": "bursty",
            "rate": self._rate,
            "mean_burst": self._mean_burst,
            "peakedness": self._peakedness,
        }

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
    exponential plus one uniform per candidate arrival.
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

    def next_interarrival(self, rng: np.random.Generator, now: float) -> float:
        time = now
        while True:
            time += rng.exponential(self._peak_scale)
            if rng.random() * self._peak <= self.rate_at(time):
                return max(_FLOOR, time - now)

    def spec(self) -> Dict[str, Any]:
        return {
            "kind": "diurnal",
            "rate": self._rate,
            "period": self._period,
            "amplitude": self._amplitude,
        }

    def __repr__(self) -> str:
        return (
            f"DiurnalArrivals(rate={self._rate}, period={self._period}, "
            f"amplitude={self._amplitude})"
        )


_ARRIVAL_KINDS = {
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
    "diurnal": DiurnalArrivals,
}


def build_arrivals(spec: Dict[str, Any]) -> ArrivalProcess:
    """Instantiate an arrival process from its plain-data ``spec()``.

    The same factory idiom as ``repro.adversary.build_adversary``: specs
    travel through the picklable task layer and the run cache, processes
    do not.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"arrival spec needs a 'kind' key, got {spec!r}")
    kwargs = {key: value for key, value in spec.items() if key != "kind"}
    try:
        factory = _ARRIVAL_KINDS[spec["kind"]]
    except KeyError:
        raise ValueError(
            f"unknown arrival kind {spec['kind']!r} "
            f"(have {sorted(_ARRIVAL_KINDS)})"
        ) from None
    return factory(**kwargs)
