"""Shared fixtures for the test suite."""

import importlib.util
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest


#: Why the in-place rebuild failed, when it did: ends the session.
_BUILD_FAILURE = None


def _ready_native_kernel():
    """Check the native extension and rebuild it in place when it is
    missing or stale and the C compiler is on PATH; returns why it is
    still unusable (no compiler), or None.  A rebuild that fails ends the
    session (:func:`pytest_sessionstart`): with a compiler at hand, a
    broken C file is a failure, not a reason to skip the native half.

    Runs before anything imports ``repro``, whose import loads the
    extension, and checks in a subprocess: a stale extension loaded into
    this process could not be unloaded again.
    """
    package = importlib.util.find_spec("repro").submodule_search_locations[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(package), env.get("PYTHONPATH")])
    )

    def build(*flags):
        return subprocess.run(
            [sys.executable, "-m", "repro._native.build", *flags],
            env=env, capture_output=True, text=True,
        )

    if build("--check").returncode == 0:
        return None
    spec = importlib.util.spec_from_file_location(
        "_native_build", os.path.join(package, "_native", "build.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if shutil.which(module.compiler()) is None:
        return f"no C compiler {module.compiler()!r} on PATH"
    rebuilt = build()
    if rebuilt.returncode != 0:
        global _BUILD_FAILURE
        _BUILD_FAILURE = "native kernel rebuild failed: " + (
            rebuilt.stderr.strip().splitlines() or ["no output"]
        )[-1]
    return None


_NATIVE_PROBLEM = _ready_native_kernel()

# Only now: importing repro loads the extension.
from repro._native import KERNEL_ABI, load_kernel
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.deployment import RegisterDeployment
from repro.sim import kernel
from repro.sim.delays import ConstantDelay, ExponentialDelay
from repro.sim.rng import RngRegistry

BACKENDS = ["python", "native"]


def pytest_sessionstart(session):
    if _BUILD_FAILURE is not None:
        pytest.exit(_BUILD_FAILURE, returncode=1)


def pytest_report_header(config):
    if kernel.native_available():
        return (f"kernels: python + native (ABI {KERNEL_ABI}, "
                f"source {load_kernel().SOURCE_HASH})")
    reason = "; ".join(
        filter(None, [kernel.native_import_error(), _NATIVE_PROBLEM])
    )
    return f"kernels: python only ({reason})"


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


def assert_as_printed(value, printed, what=""):
    """``value`` rounds to the figure a document prints as ``printed``
    (a decimal string): within half a unit of its last printed digit."""
    digits = len(printed.partition(".")[2])
    assert abs(value - float(printed)) <= 0.5 * 10.0 ** -digits + 1e-12, (
        f"{what}: measured {value!r}, printed {printed}"
    )


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
    return kernel.make_scheduler()


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
