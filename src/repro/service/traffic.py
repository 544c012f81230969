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
discipline as the rest of the simulator.
"""

from typing import Any, Dict

import numpy as np

from repro.registers.sharding import ZipfKeys
from repro.service.frontend import KeyValueFrontend
from repro.sim.arrivals import ArrivalProcess


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
        self._arrival_rng = arrival_rng
        self._key_rng = key_rng
        self._op_rng = op_rng
        self._scheduler = frontend.deployment.scheduler
        #: Requests generated by the arrival process (= admitted + shed).
        self.offered = 0
        #: Monotone payload for writes, so every written value is unique.
        self._write_seq = 0

    def start(self) -> None:
        """Schedule the first arrival.  Call before ``deployment.run()``."""
        first = self.arrivals.next_interarrival(
            self._arrival_rng, self._scheduler.now
        )
        if first <= self.duration:
            self._scheduler.schedule(first, self._arrive)

    def _arrive(self) -> None:
        self.offered += 1
        key = self.keys.sample(self._key_rng)
        if self._op_rng.random() < self.read_fraction:
            self.frontend.get(key)
        else:
            self._write_seq += 1
            self.frontend.put(key, self._write_seq)
        now = self._scheduler.now
        gap = self.arrivals.next_interarrival(self._arrival_rng, now)
        # Open loop ends at the horizon: arrivals past `duration` are not
        # generated, but everything already in flight drains normally
        # (retry timers and deadlines keep firing until the queue empties).
        if now + gap <= self.duration:
            self._scheduler.schedule(gap, self._arrive)

    def counters(self) -> Dict[str, Any]:
        return {"offered": self.offered, "duration": self.duration}

    def __repr__(self) -> str:
        return (
            f"OpenLoopDriver({self.arrivals!r}, {self.keys!r}, "
            f"offered={self.offered})"
        )
