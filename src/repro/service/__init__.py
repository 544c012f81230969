"""Service mode: a key-value front end driven by open-loop traffic.

This package turns a register deployment into something shaped like a
production service — the ROADMAP's "millions of simulated clients" axis:

* :mod:`repro.service.frontend` — :class:`KeyValueFrontend`: get/put over
  a :class:`~repro.registers.sharding.ShardedKeyspace`, with admission
  control (bounded in-flight operations), load-shedding counters and
  live latency tracking (one log-bucket sketch per kind, the
  ``repro_service_latency`` histogram, for p50/p99/p999),
* :mod:`repro.service.traffic` — :class:`OpenLoopDriver`: schedules
  arrivals from a :mod:`repro.sim.arrivals` process, draws Zipf keys and
  the read/write mix from named RNG streams, and keeps arriving whether
  or not the system keeps up,
* :mod:`repro.service.runner` — :class:`ServiceConfig` /
  :func:`run_service`: one-call assembly of deployment + keyspace +
  driver, returning a :class:`ServiceResult` with SLO quantiles,
  backpressure counters and a byte-deterministic metrics snapshot.

Everything is seeded and deterministic: two runs of the same config
produce byte-identical metrics snapshots, which the `service-smoke` CI
job asserts.
"""

from repro.service.frontend import KeyValueFrontend
from repro.service.runner import (
    ServiceConfig,
    ServiceResult,
    run_service,
)
from repro.service.traffic import OpenLoopDriver

__all__ = [
    "KeyValueFrontend",
    "OpenLoopDriver",
    "ServiceConfig",
    "ServiceResult",
    "run_service",
]
