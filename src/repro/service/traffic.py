"""The open-loop load generator.

:class:`OpenLoopDriver` schedules arrival events on the deployment's own
discrete-event scheduler: each arrival draws a key (Zipf), an operation
kind (Bernoulli read/write mix) and the gap to the next arrival, issues
the operation through the front end, and schedules the next arrival —
*without waiting for anything to complete*.  That is the defining
open-loop property: offered load is a function of the arrival process
alone, so when the deployment falls behind, in-flight operations pile up
until admission control starts shedding, and the latency tail tells the
truth about the backlog.

Randomness is split across three named streams (``service-arrivals``,
``service-keys``, ``service-ops``), so changing the read/write mix never
perturbs the arrival timeline, and vice versa — the same stream-isolation
discipline as the rest of the simulator.  Because each stream is private,
the driver reads keys, read/write coins and Poisson gaps
:data:`~repro.sim.arrivals.BLOCK` draws at a time: one vector draw per
block yields the values the same number of scalar draws would, so an
arrival itself costs no numpy call.
"""

from functools import partial
from typing import List

import numpy as np

from repro.registers.sharding import ZipfKeys
from repro.service.frontend import KeyValueFrontend
from repro.sim.arrivals import BLOCK, ArrivalProcess, blocks


def _kinds(rng: np.random.Generator, read_fraction: float) -> List[str]:
    """A block of operation kinds: read iff its uniform < ``read_fraction``."""
    return [
        "read" if coin else "write"
        for coin in (rng.random(BLOCK) < read_fraction).tolist()
    ]


class OpenLoopDriver:
    """Drives a front end with an open-loop arrival process until ``duration``."""

    def __init__(
        self,
        frontend: KeyValueFrontend,
        arrivals: ArrivalProcess,
        keys: ZipfKeys,
        arrival_rng: np.random.Generator,
        key_rng: np.random.Generator,
        op_rng: np.random.Generator,
        duration: float,
        read_fraction: float = 0.9,
    ) -> None:
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {read_fraction}"
            )
        self.frontend = frontend
        self.arrivals = arrivals
        self.keys = keys
        self.duration = duration
        self.read_fraction = read_fraction
        self._scheduler = frontend.deployment.scheduler
        self._submit = frontend.submit
        # The arrival timeline starts at the clock the driver is built on.
        self._gaps = arrivals.gaps(arrival_rng, self._scheduler.now)
        self._keys = blocks(partial(keys.indices, key_rng, BLOCK))
        self._kinds = blocks(partial(_kinds, op_rng, read_fraction))
        #: Requests generated by the arrival process (= admitted + shed).
        #: The arrival's number is also its write payload, so every
        #: written value is unique.
        self.offered = 0

    def start(self) -> None:
        """Schedule the first arrival.  Call before ``deployment.run()``."""
        first = next(self._gaps)
        if first <= self.duration:
            self._scheduler.schedule(first, self._arrive)

    def _arrive(self) -> None:
        self.offered += 1
        self._submit(next(self._kinds), next(self._keys), self.offered)
        gap = next(self._gaps)
        # Open loop ends at the horizon: arrivals past `duration` are not
        # generated, but everything already in flight drains normally
        # (retry timers and deadlines keep firing until the queue empties).
        if self._scheduler.now + gap <= self.duration:
            self._scheduler.schedule(gap, self._arrive)

    def __repr__(self) -> str:
        return (
            f"OpenLoopDriver({self.arrivals!r}, {self.keys!r}, "
            f"offered={self.offered})"
        )
