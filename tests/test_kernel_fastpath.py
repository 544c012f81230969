"""Native register-protocol fast path: bit-identity and gating.

The native kernel now draws RNG values in C — per-message exponential
delays, the k-of-n quorum sample — and runs the quorum fan-out
(``Network.broadcast``) and the live latency histogram natively.  All of
it is contractually bit-identical to the pure-python reference, so these
tests pin the contract four ways:

* **draw-level properties** — the C ``quorum_sample`` and the C
  exponential delay consume the Generator stream exactly as numpy does,
  value-identical and state-identical (hypothesis over seeds/shapes),
* **hardened end-to-end equivalence** — a deployment exercising retries,
  loss, an adversary and span tracing at once produces identical
  fingerprints on both backends,
* **differential property** — random seeds, quorum shapes, membership
  timelines, jittered retries, loss, crash/partition timelines (partial
  and overlapping ones too), adversaries and the spec monitor, run by the
  C cores on native, leave both backends with the same delivery trace,
  the same op ids, the same server, client, adversary, monitor and
  view-manager state, the same message stats and every RNG stream
  (quorum, every view stream, retry, delay, loss) at the same position —
  the C paths consumed them draw for draw,
* **gating** — the fast paths install only on the native backend and
  only for what they transcribe (a default deployment and the register
  workers get every core; detailed stats, a derived injector or a
  derived retry policy get none), honour a hook that flips on mid-run
  from C (the network core) or fall back per message on what a handler
  reads (churned traffic stays in C; a faulted, adversarial, tapped,
  monitored, churned run executes no Python network, handler, retry or
  view-draw frame,
  and a monitor violation raised from C leaves the Python state), refuse
  an ABI-stale extension, and the pure-python backend never sees them;
  the client issue path is absent from a subclassed client, steps aside
  per op under span tracing, and stays native over non-probabilistic
  quorum systems and with recorded histories,
* **the operation object** — a native Alg. 1 run builds, settles and
  gathers its ops without a Python op, future or sketch frame; an op the
  Python definitions built stays theirs; the Python deadline and attempt
  budget reject a C op's future with the python backend's text,
* **the slot contract** — every attribute a core reads or bumps per
  message is a ``__slots__`` member of its class, read at its offset: a
  subclass that shadows one gets a TypeError or no core, an unset slot
  raises the by-name AttributeError, the C timestamp comparison is
  ``Timestamp.__gt__``, and the counters agree across kernels.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.strategies import (
    RandomHostileAdversary,
    StaleFavoringAdversary,
)
from repro.chaos.broken import RegressingClient
from repro.core.monitor import OnlineSpecMonitor
from repro.core.timestamps import Timestamp
from repro.core.spec import SpecViolation
from repro.exec.task import execute_task
from repro.exec.workers import run_alg1_task
from repro.experiments.figure2 import Figure2Config, figure2_tasks
from repro.experiments.freshness import FreshnessConfig, freshness_register_task
from repro.experiments.latency import LatencyConfig, latency_task
from repro.experiments.survival import SurvivalConfig, survival_register_task
from repro.membership import MembershipSchedule
from repro.membership.manager import ServerViewState, View
from repro.obs.core import Observability
from repro.obs.registry import MetricsRegistry
from repro.obs.quantiles import StreamingQuantiles
from repro.obs.spans import SpanRecorder
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.atomic import AtomicClient, MultiWriterClient
from repro.registers.client import (
    OperationTimeout,
    QuorumRegisterClient,
    QuorumUnreachable,
    RetryPolicy,
    _PendingOp,
)
from repro.registers.deployment import RegisterDeployment
from repro.registers.masking import MaskingClient, replace_with_byzantine
from repro.registers.messages import StateReply, StateRequest, WriteUpdate
from repro.registers.server import ReplicaServer
from repro.registers.space import RegisterInfo
from repro.sim import kernel
from repro.sim.delays import ConstantDelay, ExponentialDelay
from repro.sim.failures import FailureInjector, FailureSchedule
from repro.sim.futures import Future, gather
from repro.sim.metrics import MessageStats
from repro.sim.network import Network
from tests.conftest import (
    count_calls,
    needs_native,
    stats_state,
    stream_states,
)


def _fast_rng_available():
    if not kernel.native_available():
        return False
    from repro._native import load_kernel

    return bool(getattr(load_kernel(), "HAVE_FAST_RNG", 0))


#: The Network methods the native network core stands in for.
NETWORK_ENTRY_POINTS = ("send", "broadcast", "_deliver")

needs_fast_rng = pytest.mark.skipif(
    not _fast_rng_available(),
    reason="native kernel built without numpy's C random library",
)


# --------------------------------------------------------------------- #
# Draw-level bit-identity: quorum_sample vs Generator.choice
# --------------------------------------------------------------------- #


@needs_fast_rng
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=1200),
    data=st.data(),
)
def test_quorum_sample_matches_choice_bit_for_bit(seed, n, data):
    """C quorum_sample == rng.choice(n, size=k, replace=False), and the
    two Generators end in the same state (same stream consumption)."""
    from repro._native import load_kernel

    k = data.draw(st.integers(min_value=1, max_value=n))
    rng_py = np.random.default_rng(seed)
    rng_c = np.random.default_rng(seed)
    expected = frozenset(rng_py.choice(n, size=k, replace=False).tolist())
    got = load_kernel().quorum_sample(rng_c, n, k)
    assert got == expected
    assert rng_c.bit_generator.state == rng_py.bit_generator.state


@needs_fast_rng
def test_quorum_sample_validates_arguments():
    from repro._native import load_kernel

    sample = load_kernel().quorum_sample
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample(rng, 5, 6)  # k > n
    with pytest.raises(ValueError):
        sample(rng, 5, 0)  # k < 1
    with pytest.raises(ValueError):
        sample(rng, 0, 1)  # empty universe


@needs_fast_rng
def test_quorum_system_uses_native_sampler_transparently():
    """With the sampler installed, quorum() output and stream consumption
    are unchanged — installation is pure speed, never semantics."""
    system = ProbabilisticQuorumSystem(34, 6)
    saved = ProbabilisticQuorumSystem._native_sampler
    try:
        ProbabilisticQuorumSystem._native_sampler = None
        rng_py = np.random.default_rng(7)
        plain = [system.quorum(rng_py) for _ in range(50)]
        with kernel.use_backend("native"):
            sampler = kernel.native_quorum_sampler()
        assert sampler is not None
        ProbabilisticQuorumSystem._native_sampler = staticmethod(sampler)
        rng_c = np.random.default_rng(7)
        native = [system.quorum(rng_c) for _ in range(50)]
        assert native == plain
        assert rng_c.bit_generator.state == rng_py.bit_generator.state
    finally:
        ProbabilisticQuorumSystem._native_sampler = saved


# --------------------------------------------------------------------- #
# Hardened end-to-end equivalence: every fallback guard at once
# --------------------------------------------------------------------- #


def _hardened_fingerprint(backend, seed):
    """Run a deployment that trips every per-message fallback guard —
    loss (broadcast serialization), an adversary, span tracing, retries
    with jitter — and return everything countable about the run."""
    with kernel.use_backend(backend):
        obs = Observability(MetricsRegistry(), SpanRecorder())
        adversary = RandomHostileAdversary(drop_budget=10, drop_rate=0.2)
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(12, 4),
            num_clients=2,
            delay_model=ExponentialDelay(1.0),
            seed=seed,
            retry_policy=RetryPolicy(interval=4.0),
            loss_rate=0.05,
            observability=obs,
            adversary=adversary,
        )
        deployment.declare_register("x", writer=0)
        deployment.declare_register("y", writer=1)
        a = deployment.handle(0, "x")
        b = deployment.handle(1, "y")
        for i in range(25):
            a.write(i)
            b.write(-i)
            if i % 3 == 0:
                a.read()
                b.read()
        deployment.run()
        stats = deployment.network.stats
        return (
            round(deployment.scheduler.now, 12),
            deployment.scheduler.events_processed,
            stats.sent,
            stats.delivered,
            stats.dropped,
            deployment.total_retries,
            deployment.total_timeouts,
            [c.ops_completed for c in deployment.clients],
            [s.reads_served for s in deployment.servers],
            [s.writes_applied for s in deployment.servers],
            [s.stale_updates_ignored for s in deployment.servers],
            adversary.summary(),
            obs.spans.finished,
        )


@needs_native
@pytest.mark.parametrize("seed", [3, 17])
def test_hardened_run_is_identical_across_backends(seed):
    assert _hardened_fingerprint("python", seed) == _hardened_fingerprint(
        "native", seed
    )


# --------------------------------------------------------------------- #
# Property: randomized seeds and membership timelines, differential
# --------------------------------------------------------------------- #


@st.composite
def membership_timelines(draw, n):
    """None (static), or event specs: random joins/leaves or rotating churn."""
    shape = draw(st.sampled_from(["static", "events", "churn"]))
    if shape == "static":
        return None
    if shape == "churn":
        return MembershipSchedule.churn(
            n,
            period=draw(st.sampled_from([1.5, 3.0, 5.0])),
            batch=draw(st.integers(min_value=1, max_value=min(n, 3))),
            horizon=14.0,
        ).to_specs()
    return draw(st.lists(
        st.fixed_dictionaries({
            "time": st.sampled_from([0.0, 1.0, 2.5, 4.0, 6.5, 9.0, 12.0]),
            "action": st.sampled_from(["join", "leave"]),
            "nodes": st.lists(
                st.integers(min_value=0, max_value=n + 3),
                min_size=1, max_size=3, unique=True,
            ),
        }),
        min_size=1, max_size=6,
    ))


ADVERSARIES = {
    None: lambda: None,
    "random_hostile": lambda: RandomHostileAdversary(
        drop_budget=6, drop_rate=0.3
    ),
    "stale_favoring": lambda: StaleFavoringAdversary(
        drop_budget=6, fresh_write_delay=0.5
    ),
}


#: The fault timelines the differential property draws from.
FAULTS = (None, "crash", "partition", "partial_partition", "crash_partition")


def _install_faults(deployment, faults):
    """A crash outage of half the servers; a partition that splits the two
    clients (each with half the servers); a partial one that leaves the
    second client and a third of the servers outside every group; or a
    crash outage overlapping a partition window.  By network node id, so
    a partition cuts client/server traffic, not just server/server."""
    servers = deployment.server_ids
    half = max(1, len(servers) // 2)
    third = max(1, len(servers) // 3)
    first, second = (client.node_id for client in deployment.clients)
    events = []
    if faults in ("crash", "crash_partition"):
        events += [
            {"time": 1.0, "action": "crash", "nodes": servers[:half]},
            {"time": 6.0, "action": "recover", "nodes": servers[:half]},
        ]
    window = {
        "partition": (0.5, [[first] + servers[:half],
                            [second] + servers[half:]], 6.0),
        "partial_partition": (0.5, [[first] + servers[:third],
                                    servers[third:2 * third]], 6.0),
        "crash_partition": (3.0, [[first] + servers[third:],
                                  [second] + servers[:third]], 8.0),
    }.get(faults)
    if window is not None:
        start, groups, end = window
        events += [
            {"time": start, "action": "partition", "groups": groups},
            {"time": end, "action": "heal"},
        ]
    FailureSchedule.from_specs(events).install(
        deployment.scheduler, deployment.failures
    )


#: What :func:`native_cores` reports for a deployment run wholly in C.
ALL_CORES = {"network": True, "servers": True, "clients": True}


def native_cores(deployment):
    """Which parts of ``deployment`` run a native core: its network, every
    one of its servers, every one of its clients."""
    from repro._native import load_kernel

    module = load_kernel()
    return {
        "network": isinstance(
            getattr(deployment.network.send, "__self__", None),
            module.NetworkCore,
        ),
        "servers": all(isinstance(server.on_message, module.ServerCore)
                       for server in deployment.servers),
        "clients": all(isinstance(client.on_message, module.ClientCore)
                       for client in deployment.clients),
    }


def _run_state(
    backend, seed, n, k, mean, timeline=None, loss_rate=0.0, retry=False,
    faults=None, adversary=None, monitored=False,
):
    """Everything observable about a seeded two-client workload: the full
    delivery trace with op ids, the op ids in issue order, every server's,
    client's and manager's state, the message totals, the adversary's
    account, the spec monitor's counters and every RNG stream's position —
    each view stream a client ever drew from included.  On native the
    network, every server and every client run their C cores, so the
    comparison is C against Python."""
    with kernel.use_backend(backend):
        adversary = ADVERSARIES[adversary]()
        monitor = OnlineSpecMonitor() if monitored else None
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(n, k),
            num_clients=2,
            delay_model=ExponentialDelay(mean),
            seed=seed,
            record_history=monitored,
            adversary=adversary,
            spec_monitor=monitor,
            loss_rate=loss_rate,
            # Reconfiguration strands requests at retired servers (and
            # loss drops them), so those shapes need the jittered policy;
            # the static shape runs with it or retry-free.
            retry_policy=RetryPolicy(
                interval=3.0, jitter=0.1, deadline=40.0
            ) if retry or timeline is not None else None,
        )
        if backend == "native":
            assert native_cores(deployment) == ALL_CORES
        deployment.declare_register("x", writer=0)
        deployment.declare_register("y", writer=1)
        manager = None
        view_streams = []
        if timeline is not None:
            manager = deployment.install_membership(
                MembershipSchedule.from_specs(timeline), drain=3.0
            )
            if manager is not None:
                make_view_rng = manager.client_view_rng

                def recording_view_rng(view_id, client_id, default):
                    rng = make_view_rng(view_id, client_id, default)
                    view_streams.append((view_id, client_id, rng))
                    return rng

                manager.client_view_rng = recording_view_rng
        if faults is not None:
            _install_faults(deployment, faults)
        trace = []
        network = deployment.network
        original_deliver = network._deliver

        def recording_deliver(src, dst, message, kind):
            trace.append((
                round(deployment.scheduler.now, 9), kind, src, dst,
                getattr(message, "op_id", None),  # State* carry none
            ))
            original_deliver(src, dst, message, kind)

        network._deliver = recording_deliver
        a = deployment.handle(0, "x")
        b = deployment.handle(1, "y")
        issued = []

        def issue(i):
            a.write(i)
            b.read()
            # The op just issued holds the client's largest pending id.
            issued.append(
                [max(client._pending) for client in deployment.clients]
            )

        for i in range(8):
            if timeline is None:
                issue(i)
            else:
                # Spread over the timeline so views change mid-operation.
                deployment.scheduler.schedule_at(1.75 * i, issue, i)
        deployment.run()
        return {
            "trace": trace,
            "issued": issued,
            "streams": stream_states(deployment),
            "stats": stats_state(network.stats),
            "adversary": adversary and adversary.summary(),
            "servers": [
                (dict(server._replicas), server.metric_counters())
                for server in deployment.servers
            ],
            "clients": [
                {
                    name: getattr(client, name)
                    for name in (
                        "reads_performed", "writes_performed",
                        "ops_completed", "retries", "timeouts", "unreachable",
                        "stale_nacks", "view_refreshes", "view_id",
                        "pending_ops",
                    )
                }
                for client in deployment.clients
            ],
            "manager": manager and (
                manager.metric_counters(), manager.view_sizes()
            ),
            "view_streams": [
                (view_id, client_id, rng.bit_generator.state)
                for view_id, client_id, rng in view_streams
            ],
            "monitor": monitor and (
                monitor.reads_checked, monitor.writes_checked,
                monitor.retries_seen, monitor.timeouts_seen,
                monitor.views_seen,
            ),
        }


@needs_native
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=2, max_value=40),
    data=st.data(),
)
def test_backends_deliver_identical_traces_for_random_seeds(seed, n, data):
    """For arbitrary seeds, quorum shapes, membership timelines, jittered
    retries, loss, crash and (partial, overlapping) partition timelines,
    adversaries and the spec monitor, the native backend delivers the
    exact event sequence of the python backend, assigns the same op ids
    and leaves every node, the message stats, the adversary and the
    monitor in the same state and every stream at the same position — every C draw (delay sampling, quorum and view quorum
    choice, loss, retry jitter) consumes its stream identically, and the
    C handlers, fault predicate and view checks take the decisions the
    Python ones take."""
    k = data.draw(st.integers(min_value=1, max_value=n))
    mean = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    timeline = data.draw(membership_timelines(n))
    retry = timeline is not None or data.draw(st.booleans())
    loss_rate = data.draw(st.sampled_from([0.0, 0.05])) if retry else 0.0
    faults = data.draw(st.sampled_from(FAULTS))
    adversary = data.draw(st.sampled_from(sorted(ADVERSARIES, key=str)))
    monitored = data.draw(st.booleans())
    shape = (
        seed, n, k, mean, timeline, loss_rate, retry, faults, adversary,
        monitored,
    )
    state_py = _run_state("python", *shape)
    state_native = _run_state("native", *shape)
    assert state_py == state_native
    assert state_py["trace"]  # the workload actually produced traffic
    assert state_py["issued"][-1] == [8, 8]  # ids count up per client


# --------------------------------------------------------------------- #
# Native latency histogram
# --------------------------------------------------------------------- #


def _latency_snapshot(backend):
    with kernel.use_backend(backend):
        obs = Observability(MetricsRegistry())
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(10, 3),
            num_clients=2,
            delay_model=ExponentialDelay(1.0),
            seed=5,
            observability=obs,
        )
        deployment.declare_register("x", writer=0)
        handle = deployment.handle(0, "x")
        reader = deployment.handle(1, "x")
        for i in range(20):
            handle.write(i)
            reader.read()
        deployment.run()
        return {
            kind: obs.metrics.sample("repro_op_latency", [kind]).snapshot()
            for kind in ("read", "write")
        }


@needs_native
def test_native_latency_histogram_matches_python():
    """The C completion path feeds the live latency histogram itself —
    the full sketch state (zeros, buckets, sum, count) is identical, no
    per-message fallback needed."""
    native = _latency_snapshot("native")
    assert _latency_snapshot("python") == native
    assert native["read"]["count"] == 20 and native["write"]["count"] == 20


# --------------------------------------------------------------------- #
# Gating: the fast paths install only where they belong
# --------------------------------------------------------------------- #


def _build_network(backend):
    with kernel.use_backend(backend):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(6, 2),
            num_clients=1,
            delay_model=ConstantDelay(1.0),
            seed=1,
        )
    return deployment


def test_python_backend_gets_no_cores():
    deployment = _build_network("python")
    network = deployment.network
    for name in NETWORK_ENTRY_POINTS:
        assert name not in vars(network)
    for node in deployment.servers + deployment.clients:
        assert "on_message" not in vars(node)
    for name in kernel.CLIENT_ISSUE_METHODS:
        assert name not in vars(deployment.clients[0])
    with kernel.use_backend("python"):
        assert kernel.make_network_core(network) is None
        assert kernel.make_client_cores([deployment.clients[0]])[0] is None
        assert kernel.native_quorum_sampler() is None


@needs_native
def test_stale_extension_counts_as_not_built(monkeypatch, capsys):
    """An extension compiled from another revision (``KERNEL_ABI``
    mismatch) would pack message tuples of the wrong width: it must load
    as "not built", so native requests soft-fall back with the warning."""
    import repro._native as native

    monkeypatch.setattr(native, "KERNEL_ABI", native.KERNEL_ABI + 1)
    for name in ("_kernel_module", "_import_error"):
        monkeypatch.setattr(native, name, None)
    monkeypatch.setattr(native, "_attempted", False)
    monkeypatch.setattr(kernel, "_warned_fallback", False)
    assert not kernel.native_available()
    assert "python -m repro._native.build" in kernel.native_import_error()
    with kernel.use_backend("native"):
        assert kernel.selected_backend() == "python"
    assert "falling back" in capsys.readouterr().err


@needs_native
def test_setup_py_builds_what_the_in_place_build_does(tmp_path):
    """``pip install .`` goes through ``setup.py``; it must compile in the
    same optional pieces as ``python -m repro._native.build`` — an
    extension without numpy's C random library loads fine and silently
    loses the C quorum sampler and the native delay draws."""
    import pathlib
    import subprocess
    import sys

    from repro._native import build, load_kernel

    if build.npyrandom_flags() == ([], []):
        pytest.skip("this numpy ships no libnpyrandom.a")
    root = pathlib.Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(tmp_path / "lib"),
         "--build-temp", str(tmp_path / "tmp")],
        cwd=root, capture_output=True, text=True,
    )
    built = list((tmp_path / "lib" / "repro" / "_native").glob("_kernel*"))
    assert len(built) == 1, done.stderr
    # A second copy of the extension stays out of this process.
    constants = subprocess.run(
        [sys.executable, "-c",
         "import importlib.util, sys\n"
         "spec = importlib.util.spec_from_file_location('_kernel', sys.argv[1])\n"
         "module = importlib.util.module_from_spec(spec)\n"
         "spec.loader.exec_module(module)\n"
         "print(module.KERNEL_ABI, module.HAVE_FAST_RNG)"
         , str(built[0])],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    in_place = load_kernel()
    assert constants == [
        str(in_place.KERNEL_ABI), str(in_place.HAVE_FAST_RNG)
    ]
    assert in_place.HAVE_FAST_RNG == 1


@needs_native
def test_churned_native_run_takes_python_handlers_only_on_view_state(
    monkeypatch,
):
    """Fallback is a guard on state, not a property of the message type:
    under rotating churn (the ``serve --churn 6.25`` shape, short) the
    Python server handler never runs — the view gate and the ``State*``
    transfer stay in the server core — and the client's at most once per
    view refresh — nacks, their re-dispatch and replies stamped with a
    newer view stay in the C cores."""
    calls = {ReplicaServer: 0, QuorumRegisterClient: 0}
    for cls in calls:
        def counted(self, src, message, _cls=cls, _handler=cls.on_message):
            calls[_cls] += 1
            _handler(self, src, message)

        monkeypatch.setattr(cls, "on_message", counted)
    with kernel.use_backend("native"):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(16, 5),
            num_clients=4,
            delay_model=ExponentialDelay(1.0),
            seed=3,
            retry_policy=RetryPolicy(
                interval=4.0, max_interval=16.0, jitter=0.1, deadline=60.0
            ),
            record_history=False,
        )
        for shard in range(8):
            deployment.declare_register(f"r{shard}", writer=shard % 4)
        manager = deployment.install_membership(
            MembershipSchedule.churn(16, period=6.25, batch=1, horizon=150.0),
            drain=0.5,  # short, so requests still reach retired leavers
        )

        def issue(i):
            client = deployment.clients[i % 4]
            if i % 10 == 0:
                client.write(f"r{i % 4}", i)
            else:
                client.read(f"r{i % 8}")

        for i in range(1200):  # open loop, 8 ops per time unit
            deployment.scheduler.schedule_at(i / 8.0, issue, i)
        deployment.run()
    servers = [server.metric_counters() for server in deployment.servers]
    assert manager.views_installed > 20
    assert sum(c["stale_nacks_sent"] for c in servers) > 0
    assert sum(c["retired_messages_ignored"] for c in servers) > 0
    # Servers run the view gate (nack, retired-ignore) and the state
    # transfer in C: the only Python left per StateReply is the manager's
    # on_transfer_reply.
    assert sum(c["state_requests_served"] for c in servers) > 0
    assert sum(c["state_entries_applied"] for c in servers) > 0
    assert calls[ReplicaServer] == 0
    # Clients handle nacks in C; only adopting a view is Python's.
    assert deployment.total_stale_nacks > 0
    assert calls[QuorumRegisterClient] <= deployment.total_view_refreshes
    assert sum(calls.values()) < 0.1 * deployment.network.stats.delivered


def _state_transfer(backend):
    """One joiner's state transfer driven by hand: ``StateRequest`` to a
    server with no view state, to a member, a draining member and a
    retired member; ``StateReply`` to a server with no view state, with a
    mismatched transfer id, and with entries older than, equal to and
    newer than the joiner's, plus registers the joiner never touched (one
    at ``Timestamp.ZERO``).  Returns everything it leaves."""
    with kernel.use_backend(backend):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(4, 2), num_clients=1,
            delay_model=ConstantDelay(1.0), seed=2,
        )
        for name in ("r0", "r1", "r2", "r3", "r4"):
            deployment.declare_register(name, writer=0, initial_value=name)
        servers = deployment.servers
        replies = []

        def tap(src, dst, message):
            if isinstance(message, StateReply):
                replies.append((src, dst, message))

        deployment.network.add_tap(tap)
        old = {  # the member's replicas, materialised out of order
            "r3": (Timestamp(1), "v3"), "r0": (Timestamp(2), "v0"),
            "r4": (Timestamp.ZERO, "r4"), "r1": (Timestamp(2), "v1"),
            "r2": (Timestamp(4), "v2"),
        }
        for server in servers[:3]:
            server._replicas.update(old)
        servers[0].on_message(servers[1].node_id, StateRequest(1, 1))
        servers[0].on_message(servers[1].node_id, StateReply(1, 1, ()))
        deployment.install_membership(
            MembershipSchedule().join(1.0, [4]), drain=5.0,
        )
        deployment.run(until=1.5)  # the join is open, its requests in flight
        manager = deployment.membership
        joiner = servers[4]
        transfer_id = joiner.view_state.transfer_id
        joiner._replicas.update({
            "r0": (Timestamp(3), "j0"), "r1": (Timestamp(2), "j1"),
            "r2": (Timestamp(1), "j2"),
        })
        servers[1].view_state.retiring = True
        servers[2].view_state.retired = True
        for member in servers[:3]:
            member.on_message(joiner.node_id, StateRequest(transfer_id, 1))
        entries = tuple(sorted(old.items()))
        joiner.on_message(
            servers[0].node_id, StateReply(transfer_id + 1, 0, entries)
        )
        joiner.on_message(
            servers[0].node_id, StateReply(transfer_id, 0, entries)
        )
        transfer = manager._pending_transfers.get(4)
        state = {
            "replicas": [dict(server._replicas) for server in servers],
            "counters": [server.metric_counters() for server in servers],
            "replies": [
                (src, dst, tuple(message)) for src, dst, message in replies
            ],
            "transfer": transfer and (
                transfer.transfer_id, sorted(transfer.targets),
                sorted(transfer.replies),
            ),
            "transfer_ids": [
                server.view_state.transfer_id for server in servers
            ],
            "manager": manager.metric_counters(),
        }
        deployment.run()
        state["after"] = (
            [dict(server._replicas) for server in servers],
            [server.metric_counters() for server in servers],
            manager.metric_counters(), manager.view_sizes(),
        )
        return deployment, state


@needs_native
def test_state_transfer_runs_in_the_server_core_as_in_python(monkeypatch):
    """The server core serves ``StateRequest`` and merges ``StateReply``
    as ``ReplicaServer`` does, without its Python handler: the same
    replicas, counters, reply entries and transfer state."""
    python = _state_transfer("python")[1]
    handled = count_calls(monkeypatch, ReplicaServer, ("on_message",))
    deployment, native = _state_transfer("native")
    assert native_cores(deployment) == ALL_CORES
    assert handled == {"on_message": 0}
    assert native == python
    # The cases are all there: each ignore counted once, one reply per
    # serving member, and the merge applied only the newer entries.
    counters, joiner = python["counters"], python["counters"][4]
    assert counters[0]["unknown_messages_ignored"] == 2
    assert [c["state_requests_served"] for c in counters[:3]] == [1, 1, 0]
    assert counters[2]["retired_messages_ignored"] == 1
    assert joiner["unknown_messages_ignored"] == 1
    assert joiner["state_entries_applied"] == 2  # r2 newer, r3 untouched
    assert python["replicas"][4] == {
        "r0": (Timestamp(3), "j0"), "r1": (Timestamp(2), "j1"),
        "r2": (Timestamp(4), "v2"), "r3": (Timestamp(1), "v3"),
    }
    assert [len(message[2]) for _, _, message in python["replies"]] == [5, 5]


@needs_native
def test_faulted_native_run_never_enters_python_message_code(monkeypatch):
    """Loss, crashes, an adversary and a tap all act inside ``send`` /
    ``_deliver``, which the network core runs in C; the
    spec monitor's hooks, stale-view nacks, view quorums and retry timers
    run in the client core — so a run under all of them at once executes
    not one Python frame of the network's three per-message methods, of
    the two protocol handlers, of the client's retry/resample/re-dispatch
    methods, of the retry delay, the fault predicate or a client's view
    draw."""
    calls = {
        cls.__name__: count_calls(monkeypatch, cls, names)
        for cls, names in (
            (Network, NETWORK_ENTRY_POINTS),
            (ReplicaServer, ("on_message",)),
            (QuorumRegisterClient, (
                "on_message", "_retry", "_sample_quorum", "_redispatch",
            )),
            (RetryPolicy, ("delay",)),
            (FailureInjector, ("can_deliver",)),
            (View, ("sample",)),
        )
    }
    with kernel.use_backend("native"):
        adversary = RandomHostileAdversary(drop_budget=40, drop_rate=0.2)
        monitor = OnlineSpecMonitor()
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(12, 4),
            num_clients=4,
            delay_model=ExponentialDelay(1.0),
            seed=5,
            retry_policy=RetryPolicy(
                interval=4.0, max_interval=16.0, jitter=0.1, deadline=60.0
            ),
            loss_rate=0.1,
            adversary=adversary,
            spec_monitor=monitor,
        )
        for shard in range(8):
            deployment.declare_register(f"r{shard}", writer=shard % 4)
        tapped = []
        deployment.network.add_tap(
            lambda src, dst, message: tapped.append(dst)
        )
        deployment.install_schedule(
            FailureSchedule.churn(12, period=5.0, batch=2, outage=3.0,
                                  horizon=70.0)
        )
        manager = deployment.install_membership(
            MembershipSchedule.churn(12, period=6.25, batch=1, horizon=70.0),
            drain=0.5,
        )

        def issue(i):
            client = deployment.clients[i % 4]
            if i % 5 == 0:
                client.write(f"r{i % 4}", i)
            else:
                client.read(f"r{i % 8}")

        for i in range(600):  # open loop, 8 ops per time unit
            deployment.scheduler.schedule_at(i / 8.0, issue, i)
        deployment.run()
    stats = deployment.network.stats
    assert stats.sent == len(tapped) > 4000
    # Loss and crashes dropped messages besides the adversary's.
    assert stats.dropped > adversary.drops > 0
    assert deployment.failures.crashes_injected > 0
    completed = sum(c.ops_completed for c in deployment.clients)
    assert completed > 500
    assert monitor.reads_checked + monitor.writes_checked == completed
    assert monitor.retries_seen == deployment.total_retries > 0
    assert deployment.total_stale_nacks > 0
    assert manager.views_installed > 5
    # The manager's own state-transfer draws are the only View.sample
    # calls: one per transfer begun, one per transfer retry.
    transfers = manager.metric_counters()
    assert calls.pop("View") == {"sample": (
        transfers["state_transfers_completed"]
        + transfers["state_transfers_incomplete"]
        + transfers["state_transfer_retries"]
    )}
    # Servers serve and merge the state transfer in C too.
    served = sum(
        server.metric_counters()["state_requests_served"]
        for server in deployment.servers
    )
    assert served > 0
    assert calls.pop("ReplicaServer") == {"on_message": 0}
    assert calls == {
        "Network": dict.fromkeys(NETWORK_ENTRY_POINTS, 0),
        "QuorumRegisterClient": dict.fromkeys(
            ("on_message", "_retry", "_sample_quorum", "_redispatch"), 0
        ),
        "RetryPolicy": {"delay": 0},
        "FailureInjector": {"can_deliver": 0},
    }


class TrippingMonitor(OnlineSpecMonitor):
    """The online monitor, raising a SpecViolation at its Nth completed
    read — the control that the C completion path calls the hook at the
    same point, with the same record, as the Python ``_settle``."""

    __slots__ = ("trip_at",)

    def __init__(self, trip_at):
        super().__init__()
        self.trip_at = trip_at

    def on_read_complete(self, process, record, history):
        super().on_read_complete(process, record, history)
        if self.reads_checked == self.trip_at:
            raise SpecViolation(
                f"tripped at read {self.trip_at}", condition="R4",
                register=history.name, ops=[record],
            )


def _tripped_run(backend, trip_at):
    """A lossy, faulted, churned workload whose monitor trips mid-run;
    returns what the violation left behind."""
    with kernel.use_backend(backend):
        monitor = TrippingMonitor(trip_at)
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(9, 3),
            num_clients=3,
            delay_model=ExponentialDelay(1.0),
            seed=13,
            retry_policy=RetryPolicy(interval=2.0, deadline=30.0),
            loss_rate=0.1,
            spec_monitor=monitor,
        )
        deployment.declare_register("x", writer=0)
        deployment.install_schedule(FailureSchedule().outage(2.0, [0, 1], 4.0))
        deployment.install_membership(
            MembershipSchedule.churn(9, period=3.0, batch=1, horizon=30.0)
        )
        futures = []
        for i in range(40):
            deployment.scheduler.schedule_at(
                i / 2.0, lambda i=i: futures.append((
                    deployment.clients[0].write("x", i),
                    deployment.clients[1 + i % 2].read("x"),
                ))
            )
        with pytest.raises(SpecViolation) as caught:
            deployment.run()
    (record,) = caught.value.ops
    pending = [
        (op.op_id, op.is_read, op.attempts, sorted(op.replies))
        for client in deployment.clients for op in client._pending.values()
    ]
    return {
        "payload": caught.value.payload(),
        "record": (record.process, record.invoke_time, record.response_time,
                   record.value, record.timestamp),
        "now": deployment.scheduler.now,
        "checked": (monitor.reads_checked, monitor.writes_checked,
                    monitor.retries_seen),
        "settled": [
            (write.done, read.done) for write, read in futures
        ],
        "pending": pending,
        "completed": [c.ops_completed for c in deployment.clients],
        "streams": stream_states(deployment),
    }


@needs_native
@pytest.mark.parametrize("trip_at", [1, 25])
def test_monitor_violation_from_c_leaves_the_python_state(
    monkeypatch, trip_at
):
    """Must-fail control for the C monitor hook: a violation raised from
    ``clientcore_finish`` aborts the run at the same event, with the same
    payload, record, clock, settled futures and pending table as from the
    Python ``_settle`` — the record completed, its future not resolved —
    and no Python client-handler frame runs on the way."""
    python = _tripped_run("python", trip_at)
    calls = count_calls(monkeypatch, QuorumRegisterClient, (
        "on_message", "_finish", "_settle", "_choose", "_retry",
        "_redispatch", "_sample_quorum",
    ))
    native = _tripped_run("native", trip_at)
    assert native == python
    assert python["checked"][0] == trip_at
    assert python["record"][2] == python["now"]  # responded at the event
    assert calls == dict.fromkeys(calls, 0)


@needs_native
def test_native_backend_installs_network_core():
    """One core per network: its three entry points are the network's
    ``send`` / ``broadcast`` / ``_deliver`` instance attributes, and it is
    the only network type the extension exports."""
    deployment = _build_network("native")
    network = deployment.network
    from repro._native import load_kernel

    module = load_kernel()
    cores = {vars(network)[name].__self__ for name in NETWORK_ENTRY_POINTS}
    assert len(cores) == 1
    assert type(cores.pop()) is module.NetworkCore
    exported = {
        name for name, value in vars(module).items() if isinstance(value, type)
    }
    assert exported == {
        "EventHandle", "SchedulerCore", "NetworkCore",
        "ServerCore", "ClientCore", "Future", "PendingOp",
    }


@needs_native
def test_network_core_honours_hooks_that_flip_on(monkeypatch):
    """A tap added mid-run is honoured per message by the C fan-out
    itself (the core holds the ``_taps`` list by identity), and so is the
    loss the network was built with: the tap runs from C, and the Python
    ``broadcast`` / ``send`` are never called."""
    for name in ("send", "broadcast"):
        def forbidden(self, *args, _name=name):
            raise AssertionError(f"Python Network.{_name} was called")

        monkeypatch.setattr(Network, name, forbidden)
    deployment = _build_network("native")
    network = deployment.network
    dsts = deployment.server_ids[:4]
    src = deployment.clients[0].node_id
    network.broadcast(src, dsts, "probe")
    seen = []
    network.add_tap(lambda src, dst, message: seen.append((src, dst)))
    network.broadcast(src, dsts, "probe")
    assert seen == [(src, dst) for dst in dsts]
    assert network.stats.sent == 2 * len(dsts)
    with kernel.use_backend("native"):
        lossy = RegisterDeployment(
            ProbabilisticQuorumSystem(6, 2), num_clients=1,
            delay_model=ConstantDelay(1.0), seed=1, loss_rate=0.999999,
        ).network
    lossy.add_tap(lambda src, dst, message: seen.append((src, dst)))
    lossy.broadcast(src, dsts, "probe")
    assert len(seen) == 2 * len(dsts)
    assert lossy.stats.dropped == len(dsts)
    sent_before = network.stats.sent
    network.broadcast(deployment.clients[0].node_id, [], "probe")
    assert network.stats.sent == sent_before  # empty fan-out is a no-op


@needs_native
def test_network_core_rejects_unknown_destination():
    deployment = _build_network("native")
    network = deployment.network
    with pytest.raises(KeyError, match="unknown destination node"):
        network.broadcast(
            deployment.clients[0].node_id, [10**9], "probe"
        )


@needs_native
def test_a_default_deployment_and_the_register_workers_run_every_core(
    monkeypatch,
):
    """A default deployment, and those the survival, freshness and latency
    workers build, get a network core, a core per server and a core per
    client: their messages never take the Python path."""
    built = []
    init = RegisterDeployment.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(native_cores(self))

    monkeypatch.setattr(RegisterDeployment, "__init__", recording_init)
    with kernel.use_backend("native"):
        RegisterDeployment(ProbabilisticQuorumSystem(6, 2), num_clients=2)
        for task in (
            survival_register_task(SurvivalConfig.scaled_down(),
                                   num_readers=2, num_writes=5),
            freshness_register_task(FreshnessConfig.scaled_down(),
                                    num_writes=5),
            latency_task(LatencyConfig.scaled_down(), 4),
        ):
            execute_task(task)
    assert built == [ALL_CORES] * 4


class DerivedInjector(FailureInjector):
    """Not exactly a FailureInjector: its delivery verdict is its own."""


class DerivedRetryPolicy(RetryPolicy):
    """Not exactly a RetryPolicy: its delays are its own."""


@needs_native
def test_a_configuration_the_cores_do_not_transcribe_gets_none():
    """Detailed stats or a derived injector leave the whole network — and
    so every node on it — to the Python reference; a derived retry policy
    leaves its clients to it."""
    with kernel.use_backend("native"):
        detailed = RegisterDeployment(
            ProbabilisticQuorumSystem(6, 2), num_clients=2,
            detailed_stats=True,
        )
        derived = Network(kernel.make_scheduler(), ConstantDelay(1.0),
                          np.random.default_rng(1),
                          failures=DerivedInjector())
        policy = RegisterDeployment(
            ProbabilisticQuorumSystem(6, 2), num_clients=2,
            retry_policy=DerivedRetryPolicy(interval=4.0),
        )
    assert native_cores(detailed) == dict.fromkeys(ALL_CORES, False)
    assert derived.send.__func__ is Network.send
    assert native_cores(policy) == {**ALL_CORES, "clients": False}


# --------------------------------------------------------------------- #
# Client issue path: where it installs, when it steps aside
# --------------------------------------------------------------------- #


def _count_python_client_methods(monkeypatch):
    """Wrap the Python definitions the C issue path stands in for (and
    ``_sample_quorum``, which it may call); returns the call counters."""
    return count_calls(
        monkeypatch, QuorumRegisterClient,
        kernel.CLIENT_ISSUE_METHODS
        + ("_begin", "_send_round", "_sample_quorum"),
    )


def _issue_workload(backend, quorum_system, **deployment_kwargs):
    """Ten writes and ten reads by two clients over one register each;
    returns the deployment after the run and the values read."""
    with kernel.use_backend(backend):
        deployment = RegisterDeployment(
            quorum_system,
            num_clients=2,
            delay_model=ExponentialDelay(1.0),
            seed=11,
            **deployment_kwargs,
        )
        deployment.declare_register("x", writer=0, initial_value="x0")
        deployment.declare_register("y", writer=1, initial_value="y0")
        values = []
        for i in range(10):
            deployment.clients[0].write("x", i)
            deployment.clients[1].write("y", -i)
            values.append(deployment.clients[0].read("y"))
            values.append(deployment.clients[1].read("x"))
        deployment.run()
    return deployment, [future.result() for future in values]


@needs_native
def test_native_backend_installs_client_issue_methods():
    deployment = _build_network("native")
    from repro._native import load_kernel

    client = deployment.clients[0]
    core = vars(client)["on_message"]
    assert isinstance(core, load_kernel().ClientCore)
    for name in kernel.CLIENT_ISSUE_METHODS:
        assert vars(client)[name].__self__ is core


@needs_native
def test_issue_path_is_not_installed_for_a_subclassed_client():
    """The gate is on methods, not on the type: a client class that
    overrides one (the chaos mutant's ``_choose``) keeps every Python
    definition, and so does a Byzantine replica, whose server class
    overrides the handler; the flavours, which only declare plans (and
    constructor state), get their cores."""
    with kernel.use_backend("native"):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(6, 2),
            num_clients=2,
            delay_model=ConstantDelay(1.0),
            seed=1,
            client_class=RegressingClient,
        )
        (liar,) = replace_with_byzantine(deployment, [0])
        assert kernel.make_server_core(liar) is None
        assert "on_message" not in vars(liar)
        for client in deployment.clients:
            assert type(client) is RegressingClient
            assert kernel.make_client_cores([client])[0] is None
            for name in ("on_message",) + kernel.CLIENT_ISSUE_METHODS:
                assert name not in vars(client)
        for flavour in (MaskingClient, MultiWriterClient, AtomicClient):
            flavoured = RegisterDeployment(
                ProbabilisticQuorumSystem(6, 2), num_clients=1,
                delay_model=ConstantDelay(1.0), seed=1, client_class=flavour,
            )
            assert "on_message" in vars(flavoured.clients[0])


@needs_native
@pytest.mark.parametrize("plan", [
    (),
    ("query", "max_ts", None),
    (("query", "max_ts"),),
    (("query", "newest", None),),
    (("update", None, 1),),
    (("query", "max_ts", None),) * 5,
])
def test_client_core_refuses_a_plan_it_has_no_code_for(plan):
    """The C core decodes a client's plans once, when it is built: every
    shipped plan decodes, and anything else is a ValueError there rather
    than a wrong round later."""
    with kernel.use_backend("native"):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(6, 2), num_clients=1,
            delay_model=ConstantDelay(1.0), seed=1,
            client_class=AtomicClient,
        )
        client = deployment.clients[0]
        assert kernel.make_client_cores([client])[0] is not None
        client.READ_PLAN = plan
        with pytest.raises(ValueError, match="READ_PLAN"):
            kernel.make_client_cores([client])[0]


@needs_native
def test_issue_path_runs_natively_without_spans(monkeypatch):
    calls = _count_python_client_methods(monkeypatch)
    deployment, _ = _issue_workload(
        "native", ProbabilisticQuorumSystem(9, 3)
    )
    assert deployment.clients[0].ops_completed == 20
    assert calls == dict.fromkeys(calls, 0)


@needs_native
def test_issue_path_steps_aside_per_op_when_spans_are_on(monkeypatch):
    """Span tracing picks the client's kernel when it is built: with it
    on the client gets no core, and every operation is built, and then
    handled, by the Python definitions (one span per op, same results)."""
    calls = _count_python_client_methods(monkeypatch)
    obs = Observability(MetricsRegistry(), SpanRecorder())
    traced, traced_values = _issue_workload(
        "native", ProbabilisticQuorumSystem(9, 3), observability=obs
    )
    with kernel.use_backend("native"):
        assert kernel.make_client_cores(traced.clients) == [None, None]
    for client in traced.clients:
        for name in ("on_message",) + kernel.CLIENT_ISSUE_METHODS:
            assert name not in vars(client)
    assert obs.spans.finished == 40
    assert calls["read"] == calls["write"] == 20
    assert calls["_begin"] == calls["_send_round"] == 40
    plain, plain_values = _issue_workload(
        "python", ProbabilisticQuorumSystem(9, 3)
    )
    assert traced_values == plain_values
    assert stream_states(traced) == stream_states(plain)


@needs_native
@pytest.mark.parametrize(
    "make_system",
    [lambda: MajorityQuorumSystem(7), lambda: GridQuorumSystem(3, 3)],
    ids=["majority", "grid"],
)
def test_issue_path_stays_native_over_other_quorum_systems(
    monkeypatch, make_system
):
    """A non-probabilistic quorum system costs one call to the Python
    ``_sample_quorum`` per operation — never the whole Python path — and
    draws from the quorum streams exactly as the python backend does."""
    calls = _count_python_client_methods(monkeypatch)
    native, native_values = _issue_workload("native", make_system())
    assert calls == {**dict.fromkeys(calls, 0), "_sample_quorum": 40}
    python, python_values = _issue_workload("python", make_system())
    assert native_values == python_values
    assert stream_states(native) == stream_states(python)


def _history_records(deployment):
    return {
        name: [
            (
                type(record).__name__, record.op_id, record.process,
                record.invoke_time, record.response_time, record.value,
                record.timestamp,
            )
            for record in deployment.space.history(name).operations()
        ]
        for name in deployment.space.names
    }


@needs_native
def test_issue_path_records_histories_like_the_python_backend(monkeypatch):
    """With histories the C issue path records what the Python one does;
    without, each history is None and neither backend records anything —
    and the C core never leaves the native path for it."""
    calls = _count_python_client_methods(monkeypatch)
    for record_history in (True, False):
        before = dict(calls)
        native, native_values = _issue_workload(
            "native", ProbabilisticQuorumSystem(9, 3),
            record_history=record_history,
        )
        assert calls == before
        python, python_values = _issue_workload(
            "python", ProbabilisticQuorumSystem(9, 3),
            record_history=record_history,
        )
        assert native_values == python_values
        assert stream_states(native) == stream_states(python)
        if record_history:
            records = _history_records(native)
            assert records == _history_records(python)
            assert [len(ops) for ops in records.values()] == [20, 20]
        else:
            for deployment in (native, python):
                assert {deployment.space.history(name)
                        for name in deployment.space.names} == {None}


# --------------------------------------------------------------------- #
# The operation object: PendingOp, Future and gather in C
# --------------------------------------------------------------------- #


@needs_native
def test_native_alg1_run_makes_no_python_op_future_or_sketch_call(
    monkeypatch,
):
    """A Figure 2 run (Alg. 1: m concurrent reads, one gather, the
    owner's writes) on native builds its ops and futures, settles them,
    counts its gathers down and bumps the latency sketch in C: not one
    Python ``_PendingOp`` / ``Future`` / ``observe`` frame — and the same
    payload as the python backend."""
    tasks = figure2_tasks(Figure2Config(
        num_vertices=6, num_servers=6, quorum_sizes=(2,), runs_per_point=1,
        max_rounds=150, base_seed=1,
    ))
    python = [run_alg1_task(task) for task in tasks]
    calls = {
        cls.__name__: count_calls(monkeypatch, cls, names)
        for cls, names in (
            (_PendingOp, ("__init__",)),
            (Future, ("__init__", "resolve", "add_callback")),
            (StreamingQuantiles, ("observe",)),
        )
    }
    with kernel.use_backend("native"):
        native = [run_alg1_task(task) for task in tasks]
    assert native == python
    assert all(payload["converged"] for payload in native)
    assert calls == {
        "_PendingOp": {"__init__": 0},
        "Future": dict.fromkeys(("__init__", "resolve", "add_callback"), 0),
        "StreamingQuantiles": {"observe": 0},
    }


def _owned_run(backend, how):
    """Two clients' span-traced reads and writes (or, for ``keyword``,
    the keyword calls, which both kernels refuse); what they leave
    behind."""
    observability = (
        Observability(MetricsRegistry(), SpanRecorder()) if how == "spans" else None
    )
    with kernel.use_backend(backend):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(7, 3), num_clients=2,
            delay_model=ExponentialDelay(1.0), seed=3,
            retry_policy=RetryPolicy(interval=2.0, deadline=40.0),
            loss_rate=0.2, observability=observability,
        )
        deployment.declare_register("x", writer=0, initial_value=0)
        futures = []
        for i in range(10):
            writer, reader = deployment.clients
            if how == "keyword":
                futures.append(writer.write(register="x", value=i))
                futures.append(reader.read(register="x"))
            else:
                futures.append(writer.write("x", i))
                futures.append(reader.read("x"))
        deployment.run()
    return {
        "types": {type(future).__name__ for future in futures},
        "results": [
            (future.done, repr(future.exception) if future.failed
             else future.result())
            for future in futures
        ],
        "retries": deployment.total_retries,
        "completed": sum(c.ops_completed for c in deployment.clients),
        "stats": stats_state(deployment.network.stats),
        "streams": stream_states(deployment),
        "history": [
            (record.process, record.invoke_time, record.response_time,
             record.value, record.timestamp)
            for record in deployment.space.history("x").operations()
        ],
    }


@needs_native
@pytest.mark.parametrize("how", ["keyword", "spans"])
def test_an_op_built_in_python_stays_python_for_its_whole_life(
    monkeypatch, how
):
    """A client with span tracing on has no core: every op is built with
    the Python ``_PendingOp`` and ``Future``, and every later step of it —
    its replies, its retry timer, its completion — runs the Python
    definitions, under loss and retries; the result is the python
    backend's, draw for draw.  ``read`` and ``write`` are positional-only,
    so a keyword call is a TypeError on both kernels."""
    if how == "keyword":
        for backend in kernel.BACKENDS:
            with pytest.raises(TypeError):
                _owned_run(backend, how)
        return
    python = _owned_run("python", how)
    calls = count_calls(monkeypatch, QuorumRegisterClient, (
        "_issue", "_begin", "_finish", "_settle", "_retry",
    ))
    native = _owned_run("native", how)
    assert native == python
    assert native["types"] == {"Future"} and native["retries"] > 0
    assert calls["_issue"] == calls["_begin"] == 20
    assert calls["_finish"] >= calls["_settle"] == native["completed"] > 15
    assert calls["_retry"] == native["retries"]


def _rejected_run(backend, policy):
    """Reads the C core builds, against a deployment with every replica
    crashed: the Python ``_expire`` / ``_give_up`` rejects them.  Returns
    each future's exception text and the gathers' verdicts."""
    with kernel.use_backend(backend):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(5, 2), num_clients=1,
            delay_model=ConstantDelay(1.0), seed=4, retry_policy=policy,
        )
        deployment.declare_register("x", writer=0)
        for index in range(5):
            deployment.crash_server(index)
        client = deployment.clients[0]
        first = client.read("x")
        deployment.scheduler.schedule(0.5, lambda: None)
        deployment.run(until=0.5)
        second = client.read("x")
        gathers = [gather([second, first]), gather([first, second])]
        deployment.run()
    return {
        "type": type(first).__name__,
        "failed": [repr(fut.exception) for fut in (first, second)],
        "gathers": [repr(fut.exception) for fut in gathers],
        "counters": (client.timeouts, client.unreachable, client.retries),
        "pending": deployment.pending_ops,
    }


@needs_native
@pytest.mark.parametrize("policy,error", [
    (RetryPolicy(interval=2.0, deadline=9.0), OperationTimeout),
    (RetryPolicy(interval=2.0, max_attempts=3), QuorumUnreachable),
], ids=["deadline", "max_attempts"])
def test_python_timers_reject_a_c_op_like_the_python_backend(
    monkeypatch, policy, error
):
    """The Python ``_expire`` (deadline) and ``_give_up`` (attempt
    budget) act on a C ``PendingOp`` and fail its native future with the
    python backend's exception text; a gather over such futures fails
    with the first failure, whatever the input order."""
    python = _rejected_run("python", policy)
    calls = count_calls(monkeypatch, QuorumRegisterClient, (
        "_expire", "_give_up", "_teardown",
    ))
    native = _rejected_run("native", policy)
    assert native == {**python, "type": "Future"}
    assert python["type"] == "Future" and native["pending"] == 0
    assert error.__name__ in native["failed"][0]
    assert native["gathers"] == [native["failed"][0]] * 2
    assert calls["_teardown"] == 2
    assert calls["_expire" if error is OperationTimeout else "_give_up"] == 2


# --------------------------------------------------------------------- #
# The slot contract: per-message state is read at its slot offset
# --------------------------------------------------------------------- #

#: Every object attribute a native core reads per message or per
#: operation, by class: each a __slots__ member, bound by offset.
BOUND_SLOTS = {
    FailureInjector: ("active", "_crashed", "_partition"),
    ReplicaServer: ("view_state",),
    QuorumRegisterClient: (
        "view_id", "_membership", "_view", "_view_rng", "_srtt", "_rttvar",
    ),
    Timestamp: ("seq", "writer"),
    RegisterInfo: ("history", "writer"),
    StreamingQuantiles: ("_buckets", "sum"),
    ServerViewState: (
        "retired", "retiring", "view_id", "transfer_id", "manager", "index",
    ),
}


#: Every counter a native core bumps, by class: each an int64 field of
#: the class's counter_type base, bound by offset.
BOUND_COUNTERS = {
    MessageStats: ("sent", "delivered", "dropped"),
    ReplicaServer: (
        "reads_served", "writes_applied", "stale_updates_ignored",
        "stale_nacks_sent", "retired_messages_ignored",
        "unknown_messages_ignored", "state_requests_served",
        "state_entries_applied",
    ),
    QuorumRegisterClient: (
        "reads_performed", "writes_performed", "cache_hits", "ops_completed",
        "ops_completed_under_failure", "retries", "stale_nacks",
    ),
}


@pytest.mark.parametrize("cls", list(BOUND_SLOTS), ids=lambda c: c.__name__)
def test_every_bound_attribute_is_a_slot(cls):
    for name in BOUND_SLOTS[cls]:
        assert isinstance(vars(cls)[name], types.MemberDescriptorType), name


@pytest.mark.parametrize("cls", list(BOUND_COUNTERS),
                         ids=lambda c: c.__name__)
def test_every_bound_counter_is_an_int64_field(cls):
    """The class's counter base holds exactly its bound counters; with the
    extension built each is a member descriptor (T_LONGLONG), which the
    core binds, and no class on the way down redefines one."""
    base = next(k for k in cls.__mro__ if "_counter_fields" in vars(k))
    assert base._counter_fields == BOUND_COUNTERS[cls]
    for name in BOUND_COUNTERS[cls]:
        assert all(name not in vars(k)
                   for k in cls.__mro__[:cls.__mro__.index(base)]), name
        if kernel.native_available():
            assert isinstance(vars(base)[name], types.MemberDescriptorType)


def _counted(name):
    """A property over the instance dict standing in for slot ``name``."""
    return property(
        lambda self: self.__dict__.get(name, 0),
        lambda self, value: self.__dict__.__setitem__(name, value),
    )


@needs_native
def test_a_shadowed_slot_gets_a_type_error_or_no_core():
    """A subclass that puts a property over a bound slot is never read at
    the slot's offset: building the core refuses it by name, and the
    server and network factories, which want the exact class, build
    none."""
    from repro._native import load_kernel

    module = load_kernel()

    class ShadowingClient(QuorumRegisterClient):
        retries = _counted("retries")

    class ShadowingServer(ReplicaServer):
        reads_served = _counted("reads_served")

    class ShadowingInjector(FailureInjector):
        active = _counted("active")

    # An object slot under a counter's name sits at another offset and
    # holds a pointer: binding it as an int64 field would corrupt it.
    class SlotShadowingClient(QuorumRegisterClient):
        __slots__ = ("stale_nacks",)

    class SlotShadowingServer(ReplicaServer):
        __slots__ = ("writes_applied",)

    with kernel.use_backend("native"):
        with pytest.raises(TypeError, match="ShadowingClient.retries"):
            RegisterDeployment(
                ProbabilisticQuorumSystem(6, 2), num_clients=1,
                delay_model=ConstantDelay(1.0), seed=1,
                client_class=ShadowingClient,
            )
        deployment = _build_network("native")
        server = ShadowingServer(deployment.space)
        deployment.network.add_node(server)
        assert kernel.make_server_core(server) is None
        with pytest.raises(TypeError, match="ShadowingServer.reads_served"):
            module.ServerCore(server)
        network = Network(kernel.make_scheduler(), ConstantDelay(1.0),
                          np.random.default_rng(1),
                          failures=ShadowingInjector())
        assert kernel.make_network_core(network) is None
        assert network.send.__func__ is Network.send
        with pytest.raises(TypeError, match="SlotShadowingClient.stale_nacks "
                                            "is not an int64 counter field"):
            RegisterDeployment(
                ProbabilisticQuorumSystem(6, 2), num_clients=1,
                delay_model=ConstantDelay(1.0), seed=1,
                client_class=SlotShadowingClient,
            )
        server = SlotShadowingServer(deployment.space)
        deployment.network.add_node(server)
        with pytest.raises(TypeError, match="SlotShadowingServer."
                                            "writes_applied is not an int64"):
            module.ServerCore(server)
    # The python backend reads the property, by name, as before.
    with kernel.use_backend("python"):
        plain = RegisterDeployment(
            ProbabilisticQuorumSystem(6, 2), num_clients=1,
            delay_model=ConstantDelay(1.0), seed=1,
            client_class=ShadowingClient,
        )
    assert plain.clients[0].retries == 0


@pytest.mark.parametrize("backend", [
    "python", pytest.param("native", marks=needs_native),
])
def test_a_handler_replaced_mid_run_is_the_one_called(backend):
    """Delivery reads ``node.on_message`` afresh per message: a handler
    assigned to a wired node between two events takes every later
    delivery to that node (it forwards, so the run completes), and once
    the server's is deleted the class's handler takes its messages."""
    deployment = _build_network(backend)
    deployment.declare_register("x", writer=0)
    client, server = deployment.clients[0], deployment.servers[0]
    installed = {node: node.on_message for node in (client, server)}
    calls = {client: [], server: []}

    def replace(node):
        def handler(src, message):
            calls[node].append(type(message).__name__)
            installed[node](src, message)
        node.on_message = handler

    futures = [client.write("x", 1)]
    deployment.run(until=0.5)
    assert calls == {client: [], server: []}
    for node in (client, server):
        replace(node)
    futures += [client.read("x") for _ in range(3)]
    deployment.run(until=10.0)
    assert all(future.done for future in futures)
    assert set(calls[client]) == {"WriteAck", "ReadReply"}
    assert "ReadQuery" in calls[server]
    # A client runs wholly in C or wholly in Python: its core goes back.
    client.on_message = installed[client]
    del server.on_message
    seen = len(calls[server])
    futures.append(client.read("x"))
    deployment.run()
    assert futures[-1].done and len(calls[server]) == seen


@pytest.mark.parametrize("backend", [
    "python", pytest.param("native", marks=needs_native),
])
def test_an_unset_slot_raises_the_by_name_attribute_error(backend):
    deployment = _build_network(backend)
    deployment.declare_register("x", writer=0)
    client = deployment.clients[0]
    del client.view_id
    with pytest.raises(AttributeError, match=(
        "'QuorumRegisterClient' object has no attribute 'view_id'"
    )):
        client.read("x")


@needs_native
def test_native_timestamp_compare_is_timestamp_gt():
    """The server core installs a WriteUpdate exactly when its timestamp
    is greater under ``Timestamp.__gt__``: equal seq with a higher or
    lower writer, equal pairs, and a lower seq with a higher writer."""
    deployment = _build_network("native")
    deployment.declare_register("x", writer=None)
    server = deployment.servers[0]
    assert type(vars(server)["on_message"]).__name__ == "ServerCore"
    src = deployment.clients[0].node_id
    stamps = [(1, 0), (1, 1), (1, 1), (1, 0), (2, 0), (1, 5), (2, 0),
              (2, 3), (3, -1), (3, 2), (3, 2)]
    applied = stale = 0
    for op_id, (seq, writer) in enumerate(stamps):
        stamp = Timestamp(seq, writer)
        newer = stamp > server.replica_timestamp("x")
        applied += newer
        stale += not newer
        server.on_message(src, WriteUpdate("x", op_id, op_id, stamp))
        assert server.writes_applied == applied
        assert server.stale_updates_ignored == stale
    assert server.replica_timestamp("x") == Timestamp(3, 2)
    assert server.replica_value("x") == 9


def _multi_writer_state(backend):
    """Three multi-writer clients writing one register concurrently — the
    first three writes all carry seq 1, each its own writer — then
    reading it."""
    with kernel.use_backend(backend):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(9, 3), num_clients=3,
            delay_model=ExponentialDelay(1.0), seed=8,
            client_class=MultiWriterClient,
        )
        deployment.declare_register("x", writer=None)
        reads = []
        for i in range(12):
            for client in deployment.clients:
                client.write("x", (i, client.client_id))
            reads.extend(c.read("x") for c in deployment.clients)
        deployment.run()
    return (
        [(s.replica_timestamp("x"), s.replica_value("x"))
         for s in deployment.servers],
        [s.metric_counters() for s in deployment.servers],
        [future.result() for future in reads],
    )


@needs_native
def test_multi_writer_installs_are_identical_across_backends():
    python = _multi_writer_state("python")
    assert sum(c["stale_updates_ignored"] for c in python[1]) > 0
    assert _multi_writer_state("native") == python


#: The client counters the native client core bumps or reads by slot.
CLIENT_COUNTERS = BOUND_COUNTERS[QuorumRegisterClient] + ("view_id",)


def _faulty_counters(backend):
    """Loss, a crash timeline, retries with jitter and deadlines, rotating
    membership and the monotone cache, then every counter the cores
    bump."""
    with kernel.use_backend(backend):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(10, 3), num_clients=3,
            delay_model=ExponentialDelay(1.0), seed=21, monotone=True,
            retry_policy=RetryPolicy(
                interval=3.0, max_interval=12.0, jitter=0.1, deadline=50.0
            ),
            loss_rate=0.08,
        )
        for shard in range(6):
            deployment.declare_register(f"r{shard}", writer=shard % 3)
        deployment.install_schedule(FailureSchedule.churn(
            10, period=5.0, batch=2, outage=3.0, horizon=80.0
        ))
        deployment.install_membership(
            MembershipSchedule.churn(10, period=9.0, batch=1, horizon=80.0),
        )

        def issue(i):
            client = deployment.clients[i % 3]
            if i % 4 == 0:
                client.write(f"r{i % 3}", i)
            else:
                client.read(f"r{i % 6}")

        for i in range(400):
            deployment.scheduler.schedule_at(i / 5.0, issue, i)
        deployment.run()
    stats = deployment.network.stats
    return (
        [server.metric_counters() for server in deployment.servers],
        [{name: getattr(client, name) for name in CLIENT_COUNTERS}
         for client in deployment.clients],
        (stats.sent, stats.delivered, stats.dropped),
    )


@needs_native
def test_counters_bumped_by_slot_are_equal_across_backends():
    python = _faulty_counters("python")
    clients = python[1]
    for name in ("cache_hits", "retries", "stale_nacks",
                 "ops_completed_under_failure"):
        assert sum(counters[name] for counters in clients) > 0, name
    assert sum(c.get("stale_nacks_sent", 0) for c in python[0]) > 0
    assert _faulty_counters("native") == python
