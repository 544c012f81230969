"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.deployment import RegisterDeployment
from repro.sim import kernel
from repro.sim.delays import ConstantDelay, ExponentialDelay
from repro.sim.rng import RngRegistry

BACKENDS = ["python", "native"]


def backend_param(backend):
    """Wrap a backend name in a param that skips when unavailable."""
    marks = []
    if backend == "native" and not kernel.native_available():
        marks.append(pytest.mark.skip(
            reason=f"native kernel not built: {kernel.native_import_error()}"
        ))
    return pytest.param(backend, id=backend, marks=marks)


#: Marks a test that compares against, or only exists for, the C backend.
needs_native = pytest.mark.skipif(
    not kernel.native_available(),
    reason=f"native kernel not built: {kernel.native_import_error()}",
)


STATS_BREAKDOWNS = (
    "by_sender", "by_receiver", "by_kind", "delivered_by_kind",
    "dropped_by_kind", "dropped_by_receiver", "dropped_by_reason",
)


def stats_state(stats):
    """Everything a MessageStats holds: the three totals, plus every
    breakdown when it collects them (None in scalar-totals mode)."""
    return {
        "totals": (stats.sent, stats.delivered, stats.dropped),
        "breakdowns": {
            name: dict(getattr(stats, name)) for name in STATS_BREAKDOWNS
        } if stats.detailed else None,
    }


def stream_states(deployment):
    """Where every RNG stream of a deployment stands, by role."""
    generators = {
        "delays": deployment.network.rng,
        "loss": deployment.network._loss_rng,
    }
    for client in deployment.clients:
        generators[f"quorum/{client.client_id}"] = client.rng
        generators[f"retry/{client.client_id}"] = client._retry_rng
        if client._view_rng is not None:
            generators[f"view/{client.client_id}"] = client._view_rng
    return {
        role: generator.bit_generator.state
        for role, generator in generators.items()
    }


def count_calls(monkeypatch, cls, names):
    """Wrap the class attributes ``cls.<name>`` so every call of the Python
    definition is counted; returns the counters by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(self, *args, _name=name, _method=getattr(cls, name),
                    **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.fixture(params=[backend_param(b) for b in BACKENDS])
def kernel_backend(request):
    """Run the test once per kernel backend (native skips if unbuilt)."""
    with kernel.use_backend(request.param):
        yield request.param


@pytest.fixture
def scheduler(kernel_backend):
    return kernel.make_scheduler(kernel_backend)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def rng_registry():
    return RngRegistry(12345)


@pytest.fixture
def small_deployment():
    """10 servers, quorum size 3, 3 clients, synchronous delays."""
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(10, 3),
        num_clients=3,
        delay_model=ConstantDelay(1.0),
        seed=99,
    )
    deployment.declare_register("X", writer=0, initial_value=0)
    return deployment


@pytest.fixture
def async_monotone_deployment():
    """10 servers, quorum size 3, monotone clients, exponential delays."""
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(10, 3),
        num_clients=3,
        delay_model=ExponentialDelay(1.0),
        monotone=True,
        seed=7,
    )
    deployment.declare_register("X", writer=0, initial_value=0)
    return deployment
