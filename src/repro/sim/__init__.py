"""Discrete-event simulation substrate.

This package provides the bottom layer of the reproduction: a deterministic
discrete-event scheduler, futures, generator-based coroutine processes, a
reliable asynchronous message-passing network with pluggable delay models,
seeded random-number streams, failure injection and metrics.

The layers above (quorum systems, register implementations, the iterative
framework) are built purely on the public API exported here.
"""

from repro.sim.scheduler import EventHandle, RepeatingHandle, Scheduler
from repro.sim.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.sim.futures import Future, FutureError, gather
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    LogNormalDelay,
    UniformDelay,
)
from repro.sim.network import Network, Node
from repro.sim.rng import RngRegistry
from repro.sim.metrics import MessageStats
from repro.sim.failures import FailureEvent, FailureInjector, FailureSchedule

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "ConstantDelay",
    "DiurnalArrivals",
    "PoissonArrivals",
    "DelayModel",
    "EventHandle",
    "ExponentialDelay",
    "FailureEvent",
    "FailureInjector",
    "FailureSchedule",
    "Future",
    "FutureError",
    "LogNormalDelay",
    "MessageStats",
    "Network",
    "Node",
    "RepeatingHandle",
    "RngRegistry",
    "Scheduler",
    "Sleep",
    "UniformDelay",
    "gather",
    "spawn",
]
