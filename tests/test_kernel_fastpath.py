"""Native register-protocol fast path: bit-identity and gating.

The native kernel now draws RNG values in C — per-message exponential
delays, the k-of-n quorum sample — and runs the quorum fan-out
(``Network.broadcast``) and the live latency histogram natively.  All of
it is contractually bit-identical to the pure-python reference, so these
tests pin the contract four ways:

* **draw-level properties** — the C ``quorum_sample`` and the C
  exponential delay consume the Generator stream exactly as numpy does,
  value-identical and state-identical (hypothesis over seeds/shapes),
* **hardened end-to-end equivalence** — a deployment exercising every
  per-message fallback guard at once (retries + loss + adversary + span
  tracing) produces identical fingerprints on both backends,
* **differential property** — random seeds, quorum shapes and
  membership timelines leave both backends with the same delivery trace
  and the same server, client and view-manager state,
* **gating** — the fast paths install only on the native backend, fall
  back per call when a hook flips on mid-run (a guard on state: churned
  traffic stays in C), refuse an ABI-stale extension, and the
  pure-python backend never sees them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.strategies import RandomHostileAdversary
from repro.membership import MembershipSchedule
from repro.obs.core import Observability
from repro.obs.spans import SpanRecorder
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.client import QuorumRegisterClient, RetryPolicy
from repro.registers.deployment import RegisterDeployment
from repro.registers.server import ReplicaServer
from repro.sim import kernel
from repro.sim.delays import ConstantDelay, ExponentialDelay

needs_native = pytest.mark.skipif(
    not kernel.native_available(),
    reason=f"native kernel not built: {kernel.native_import_error()}",
)


def _fast_rng_available():
    if not kernel.native_available():
        return False
    from repro._native import load_kernel

    return bool(getattr(load_kernel(), "HAVE_FAST_RNG", 0))


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
        obs = Observability(spans=SpanRecorder())
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


def _run_state(backend, seed, n, k, mean, timeline=None, loss_rate=0.0):
    """Everything observable about a seeded two-client workload: the full
    delivery trace plus every server's, client's and manager's state."""
    with kernel.use_backend(backend):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(n, k),
            num_clients=2,
            delay_model=ExponentialDelay(mean),
            seed=seed,
            record_history=False,
            loss_rate=loss_rate,
            # Reconfiguration strands requests at retired servers (and
            # loss drops them); only the static shape runs retry-free.
            retry_policy=None if timeline is None else RetryPolicy(
                interval=3.0, jitter=0.1, deadline=40.0
            ),
        )
        deployment.declare_register("x", writer=0)
        deployment.declare_register("y", writer=1)
        manager = None
        if timeline is not None:
            manager = deployment.install_membership(
                MembershipSchedule.from_specs(timeline), drain=3.0
            )
        trace = []
        network = deployment.network
        original_deliver = network._deliver

        def recording_deliver(src, dst, message, kind):
            trace.append(
                (round(deployment.scheduler.now, 9), kind, src, dst)
            )
            original_deliver(src, dst, message, kind)

        network._deliver = recording_deliver
        a = deployment.handle(0, "x")
        b = deployment.handle(1, "y")

        def issue(i):
            a.write(i)
            b.read()

        for i in range(8):
            if timeline is None:
                issue(i)
            else:
                # Spread over the timeline so views change mid-operation.
                deployment.scheduler.schedule_at(1.75 * i, issue, i)
        deployment.run()
        return {
            "trace": trace,
            "servers": [
                (dict(server._replicas), server.metric_counters())
                for server in deployment.servers
            ],
            "clients": [
                {
                    name: getattr(client, name)
                    for name in (
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
        }


@needs_native
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=2, max_value=40),
    data=st.data(),
)
def test_backends_deliver_identical_traces_for_random_seeds(seed, n, data):
    """For arbitrary seeds, quorum shapes and membership timelines, the
    native backend delivers the exact event sequence of the python
    backend and leaves every node in the same state — every C draw (delay
    sampling, quorum choice) consumes the streams identically, and the C
    view checks take the decisions the Python handlers take."""
    k = data.draw(st.integers(min_value=1, max_value=n))
    mean = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    timeline = data.draw(membership_timelines(n))
    loss_rate = 0.0 if timeline is None else data.draw(
        st.sampled_from([0.0, 0.05])
    )
    state_py = _run_state("python", seed, n, k, mean, timeline, loss_rate)
    state_native = _run_state("native", seed, n, k, mean, timeline, loss_rate)
    assert state_py == state_native
    assert state_py["trace"]  # the workload actually produced traffic


# --------------------------------------------------------------------- #
# Native latency histogram
# --------------------------------------------------------------------- #


def _latency_snapshot(backend):
    with kernel.use_backend(backend):
        obs = Observability()
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(10, 3),
            num_clients=2,
            delay_model=ExponentialDelay(1.0),
            seed=5,
            detailed_stats=False,
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
    assert "broadcast" not in vars(network)
    assert "send" not in vars(network)
    with kernel.use_backend("python"):
        assert kernel.make_broadcast_core(network) is None
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
def test_churned_native_run_takes_python_handlers_only_on_view_state(
    monkeypatch,
):
    """Fallback is a guard on state, not a property of the message type:
    under rotating churn (the ``serve --churn 6.25`` shape, short) the
    Python handlers run only for ``StaleViewNack``, view-refreshing and
    ``State*`` deliveries — everything else stays in the C cores."""
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
            detailed_stats=False,
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
    # Servers run the view gate (nack, retired-ignore) in C; only the
    # transfer protocol takes Python — one call at the member serving a
    # StateRequest, one at the joiner receiving its StateReply.
    assert calls[ReplicaServer] <= 2 * sum(
        c["state_requests_served"] for c in servers
    )
    # Clients take Python for each nack and each reply that made them
    # refresh their view.
    assert calls[QuorumRegisterClient] <= (
        deployment.total_stale_nacks + deployment.total_view_refreshes
    )
    assert sum(calls.values()) < 0.1 * deployment.network.stats.delivered


@needs_native
def test_native_backend_installs_broadcast_core():
    deployment = _build_network("native")
    network = deployment.network
    from repro._native import load_kernel

    module = load_kernel()
    assert isinstance(vars(network)["broadcast"], module.BroadcastCore)
    assert isinstance(vars(network)["send"], module.SendCore)


@needs_native
def test_broadcast_core_falls_back_when_hooks_flip_on():
    """Mid-run mutations (a tap, loss, an adversary) are honoured per
    call: the C broadcast defers to the Python method, which sees them."""
    deployment = _build_network("native")
    network = deployment.network
    seen = []
    network.add_tap(lambda src, dst, message: seen.append((src, dst)))
    dsts = deployment.server_ids[:4]
    network.broadcast(deployment.clients[0].node_id, dsts, "probe")
    assert len(seen) == len(dsts)  # the tap ran: Python path took over
    sent_before = network.stats.sent
    network.broadcast(deployment.clients[0].node_id, [], "probe")
    assert network.stats.sent == sent_before  # empty fan-out is a no-op


@needs_native
def test_broadcast_core_rejects_unknown_destination():
    deployment = _build_network("native")
    network = deployment.network
    with pytest.raises(KeyError, match="unknown destination node"):
        network.broadcast(
            deployment.clients[0].node_id, [10**9], "probe"
        )
