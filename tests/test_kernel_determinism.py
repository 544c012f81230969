"""Bit-identity guarantees of the optimised simulation kernel.

The tuple-queue scheduler, batched RNG draws and slotted messages are pure
performance changes: a seeded run must deliver the exact same events at the
exact same times as the pre-optimisation kernel.  These tests pin that down
three ways:

* a **golden event trace** — the exact ``(event_index, time, kind, src,
  dst)`` delivery sequence of a seeded two-client register workload,
  captured on the pre-change kernel (commit 2b9de21),
* a **golden end-to-end fingerprint** — the full result dict of a seeded
  Alg. 1 run, so any drift in convergence, message counts or simulated
  time fails loudly,
* a **batch/scalar property** — ``DelayModel.sample_batch(rng, src, dsts)``
  returns exactly the values ``len(dsts)`` scalar ``sample`` calls would,
  consuming the Generator stream identically, for every delay model.

A fourth group covers the loss-RNG independence fix: enabling message loss
on a directly constructed ``Network`` must not perturb the delay stream.
"""

import random

import numpy as np
import pytest

from repro.exec.task import RunTask
from repro.exec.workers import run_alg1_task
from repro.sim import kernel
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.deployment import RegisterDeployment
from repro.sim.delays import (
    ConstantDelay,
    ExponentialDelay,
    LogNormalDelay,
    PerLinkDelay,
    UniformDelay,
)
from repro.sim.network import Network, Node
from repro.sim.rng import derive_seed
from repro.sim.scheduler import Scheduler
from tests.conftest import needs_native

# --------------------------------------------------------------------- #
# Golden event trace
# --------------------------------------------------------------------- #

# Captured on the pre-optimisation kernel (commit 2b9de21): the complete
# delivery sequence of the seeded workload below.  Times are rounded to
# 9 decimal places; event_index is scheduler.events_processed at delivery.
GOLDEN_TRACE = [
    (1, 0.328399897, "write_update", 7, 0),
    (2, 0.496470899, "write_update", 7, 3),
    (3, 0.563001955, "write_update", 6, 4),
    (4, 0.942464275, "write_ack", 4, 6),
    (5, 1.266254634, "write_ack", 0, 7),
    (6, 1.297126816, "write_ack", 3, 7),
    (7, 1.425901331, "read_query", 7, 2),
    (8, 1.61241451, "read_query", 7, 0),
    (9, 1.723986244, "read_reply", 2, 7),
    (10, 1.82817139, "read_reply", 0, 7),
    (11, 2.046558309, "write_update", 6, 2),
    (12, 2.257003353, "write_update", 7, 5),
    (13, 2.50139008, "write_ack", 5, 7),
    (14, 2.872737387, "write_ack", 2, 6),
    (15, 2.893604136, "write_update", 6, 1),
    (16, 3.139759166, "write_update", 7, 4),
    (17, 4.691938247, "write_update", 6, 3),
    (18, 4.876087619, "write_ack", 4, 7),
    (19, 5.147330478, "write_ack", 1, 6),
    (20, 5.373244087, "read_query", 7, 0),
    (21, 5.735572491, "read_reply", 0, 7),
    (22, 6.211371769, "read_query", 7, 5),
    (23, 6.256797411, "read_reply", 5, 7),
    (24, 6.400499543, "write_ack", 3, 6),
    (25, 6.416072307, "write_update", 7, 4),
    (26, 6.554923947, "write_update", 7, 3),
    (27, 6.759793216, "write_update", 6, 3),
    (28, 7.099290242, "write_ack", 3, 6),
    (29, 7.344428092, "write_ack", 4, 7),
    (30, 7.67489795, "write_ack", 3, 7),
    (31, 7.908930443, "read_query", 7, 1),
    (32, 8.356439761, "write_update", 6, 5),
    (33, 8.540874139, "write_ack", 5, 6),
    (34, 8.61135319, "write_update", 6, 5),
    (35, 9.062292086, "write_ack", 5, 6),
    (36, 9.079320075, "write_update", 6, 0),
    (37, 9.081392878, "read_reply", 1, 7),
    (38, 9.599219571, "write_ack", 0, 6),
    (39, 9.702868477, "read_query", 7, 2),
    (40, 9.892413956, "read_reply", 2, 7),
    (41, 10.116783778, "write_update", 6, 3),
    (42, 10.342710386, "write_update", 6, 4),
    (43, 10.739542834, "write_ack", 3, 6),
    (44, 10.931994389, "read_query", 7, 2),
    (45, 10.982238631, "read_reply", 2, 7),
    (46, 11.238242354, "read_query", 7, 0),
    (47, 11.448968022, "read_reply", 0, 7),
    (48, 13.193033772, "write_ack", 4, 6),
]


def _capture_delivery_trace(observability=None):
    """Run the golden workload, recording every delivery as it happens."""
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(6, 2),
        num_clients=2,
        delay_model=ExponentialDelay(1.0),
        seed=99,
        record_history=False,
        observability=observability,
    )
    deployment.declare_register("x", writer=0)
    deployment.declare_register("y", writer=1)

    trace = []
    network = deployment.network
    original_deliver = network._deliver

    def recording_deliver(src, dst, message, kind):
        trace.append(
            (
                deployment.scheduler.events_processed,
                round(deployment.scheduler.now, 9),
                kind,
                src,
                dst,
            )
        )
        original_deliver(src, dst, message, kind)

    network._deliver = recording_deliver

    state = {"ops": 0}

    def issue(client_id, register):
        n = state["ops"]
        if n >= 12:
            return
        state["ops"] = n + 1
        client = deployment.clients[client_id]
        if n % 3 == 2:
            future = client.read(register)
        else:
            future = client.write(register, n)
        future.add_callback(lambda _f: issue(client_id, register))

    issue(0, "x")
    issue(1, "y")
    deployment.run()
    return trace


def test_golden_delivery_trace_is_unchanged(kernel_backend):
    """The optimised kernel delivers the exact golden event sequence.

    Event-for-event identity (index, time, kind, src, dst) with the
    pre-optimisation kernel: any change to heap ordering, RNG stream
    consumption or message dispatch shows up here first.  Parametrized
    over both kernel backends — the native heap, drain loop and delivery
    trampoline must reproduce the same 48 deliveries bit-for-bit.
    """
    assert _capture_delivery_trace() == GOLDEN_TRACE


# --------------------------------------------------------------------- #
# Golden end-to-end fingerprint
# --------------------------------------------------------------------- #

# Full result dict of the seeded Alg. 1 run below, captured on the
# pre-optimisation kernel (commit 2b9de21).
GOLDEN_ALG1_FINGERPRINT = {
    "cache_hits": 4,
    "converged": True,
    "hung_ops": 19,
    "messages": 1803,
    "messages_dropped": 0,
    "ops_under_failure": 0,
    "regressions": 0,
    "retries": 0,
    "rounds": 3,
    "sim_time": 33.37060632695084,
    "timeouts": 0,
    "total_iterations": 27,
}


def _golden_alg1_task():
    return RunTask(
        kind="alg1",
        params={
            "graph": {"kind": "chain", "n": 8},
            "quorum": {"kind": "probabilistic", "n": 8, "k": 3},
            "delay": {"kind": "exponential", "mean": 1.0},
            "monotone": True,
            "max_rounds": 120,
        },
        seed=derive_seed(2001, "golden-alg1"),
    )


def test_golden_alg1_fingerprint_is_unchanged(kernel_backend):
    result = run_alg1_task(_golden_alg1_task())
    observed = {key: result[key] for key in GOLDEN_ALG1_FINGERPRINT}
    assert observed == GOLDEN_ALG1_FINGERPRINT


def test_observability_does_not_perturb_golden_run():
    """Obs-on runs are event-for-event identical to obs-off runs.

    Metrics are collected post-run from existing counters and spans stamp
    simulated times without touching any RNG stream, so a fully
    instrumented run must still match the golden fingerprint — and the
    golden delivery trace must be unchanged under an active session with
    span recording on.
    """
    from repro.obs import runtime as obs_runtime
    from repro.obs.core import Observability
    from repro.obs.spans import SpanRecorder

    session = Observability(spans=SpanRecorder())
    obs_runtime.activate(session)
    try:
        result = run_alg1_task(_golden_alg1_task())
    finally:
        obs_runtime.deactivate()
    observed = {key: result[key] for key in GOLDEN_ALG1_FINGERPRINT}
    assert observed == GOLDEN_ALG1_FINGERPRINT
    # The instrumentation actually ran: the payload snapshot agrees with
    # the fingerprint, and the golden run's spans were recorded.
    merged = Observability()
    merged.metrics.merge_snapshot(result["metrics"])
    assert merged.metrics.sample("repro_messages_sent_total") == (
        GOLDEN_ALG1_FINGERPRINT["messages"]
    )
    assert session.spans.finished > 0

    # Same for the delivery trace, with spans wired into the deployment
    # itself: the instrumented workload delivers the exact golden events.
    traced = Observability(spans=SpanRecorder())
    assert _capture_delivery_trace(observability=traced) == GOLDEN_TRACE
    assert traced.spans.finished > 0


# --------------------------------------------------------------------- #
# sample_batch == n scalar samples, for every delay model
# --------------------------------------------------------------------- #

DELAY_MODELS = [
    ConstantDelay(0.75),
    ExponentialDelay(1.3),
    ExponentialDelay(0.5, floor=0.2),
    UniformDelay(0.4, 2.1),
    LogNormalDelay(1.0, sigma=0.8),
    PerLinkDelay({(0, 1): 0.5, (0, 3): 2.0}, default=1.0),
    PerLinkDelay({(0, 2): 0.25}, default=0.75, jitter=ExponentialDelay(0.1)),
    PerLinkDelay({}, default=1.5, jitter=UniformDelay(0.1, 0.2)),
]


@pytest.mark.parametrize(
    "model", DELAY_MODELS, ids=[repr(model) for model in DELAY_MODELS]
)
@pytest.mark.parametrize("batch_size", [1, 3, 7])
def test_sample_batch_matches_scalar_samples(model, batch_size):
    """sample_batch(n) returns exactly what n scalar sample calls return.

    Both value-identical and stream-identical: the two generators start
    from the same seed, and after the calls they must have consumed the
    same amount of the stream (checked by drawing one more value).
    """
    dsts = list(range(1, 1 + batch_size))
    rng_scalar = np.random.default_rng(2024)
    rng_batch = np.random.default_rng(2024)

    scalar = [model.sample(rng_scalar, 0, dst) for dst in dsts]
    batch = model.sample_batch(rng_batch, 0, dsts)

    assert isinstance(batch, list)
    assert batch == scalar  # bit-identical, not just approximately equal
    assert all(isinstance(value, float) for value in batch)
    # Stream position identical: the next draw from each must agree.
    assert rng_scalar.random() == rng_batch.random()


def test_sample_batch_empty_consumes_nothing():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert ExponentialDelay(1.0).sample_batch(rng, 0, []) == []
    assert rng.bit_generator.state == before


# --------------------------------------------------------------------- #
# Loss stream independence (regression for the shared-rng default)
# --------------------------------------------------------------------- #


class _Recorder(Node):
    """Records (now, src, message) for every delivery."""

    def __init__(self, scheduler):
        super().__init__()
        self._scheduler = scheduler
        self.received = []

    def on_message(self, src, message):
        self.received.append((self._scheduler.now, src, message))


def _run_ping_storm(loss_rate):
    """A directly constructed Network (no explicit loss_rng): node 0
    sends 40 messages to nodes 1..3; returns the delivery trace."""
    scheduler = Scheduler()
    network = Network(
        scheduler,
        ExponentialDelay(1.0),
        np.random.default_rng(31337),
        loss_rate=loss_rate,
    )
    nodes = [_Recorder(scheduler) for _ in range(4)]
    for node in nodes:
        network.add_node(node)
    for i in range(40):
        network.send(0, 1 + i % 3, f"m{i}")
    scheduler.run()
    return network, [
        (round(t, 12), src, msg) for node in nodes for (t, src, msg) in node.received
    ]


def test_loss_rng_defaults_to_independent_stream():
    """Enabling loss must not perturb delay sampling.

    The old default reused the delay rng for loss draws, so any non-zero
    ``loss_rate`` advanced the delay stream once per send and shifted
    every delay in the run.  A vanishingly small loss rate exercises the
    loss draw on every send while (deterministically, for this seed)
    dropping nothing — so the delivery trace must be bit-identical to the
    loss-off run.  Under the old shared-rng default this run delivers the
    same messages at entirely different times.
    """
    network_off, trace_off = _run_ping_storm(loss_rate=0.0)
    network_on, trace_on = _run_ping_storm(loss_rate=1e-12)

    assert network_on._loss_rng is not network_on.rng
    assert network_on.stats.dropped == 0  # loss drawn 40 times, none hit
    assert trace_on == trace_off


def test_loss_rng_default_is_deterministic_per_seed():
    """Two networks built from equal seeds drop the same messages."""
    _, trace_a = _run_ping_storm(loss_rate=0.25)
    _, trace_b = _run_ping_storm(loss_rate=0.25)
    assert trace_a == trace_b


# --------------------------------------------------------------------- #
# Cross-backend equivalence (python vs native, in one process)
# --------------------------------------------------------------------- #


@needs_native
def test_backends_agree_on_goldens_in_one_process():
    """Both kernel backends, run in this one process, are byte-identical.

    Stronger than the per-backend golden tests above: the python and
    native runs happen back to back in the same interpreter, so any
    cross-contamination (shared module state, backend leaking into a
    factory) would show here, and the traces are compared directly to
    each other as well as to the goldens.
    """
    with kernel.use_backend("python"):
        trace_python = _capture_delivery_trace()
        result_python = run_alg1_task(_golden_alg1_task())
    with kernel.use_backend("native"):
        trace_native = _capture_delivery_trace()
        result_native = run_alg1_task(_golden_alg1_task())
    assert trace_python == trace_native == GOLDEN_TRACE
    assert result_python == result_native
    observed = {key: result_native[key] for key in GOLDEN_ALG1_FINGERPRINT}
    assert observed == GOLDEN_ALG1_FINGERPRINT


def _churn_trace(backend):
    """Drive a scheduler through a scripted cancel/requeue churn.

    Every observable the kernel exposes is recorded: each fired callback
    logs ``(now, events_processed, label)``, every scripted action logs
    the live count, and the drain phases exercise ``until``,
    ``max_events``, ``stop_when`` and ``stop()``.  The script consumes
    its own RNG identically for both backends, so the traces must match
    event for event.
    """
    scheduler = kernel.make_scheduler(backend)
    rand = random.Random(777)
    fired = []
    live_handles = []

    def note(label):
        fired.append(
            (round(scheduler.now, 12), scheduler.events_processed, label)
        )

    def nested(label, depth):
        note(label)
        if depth > 0:
            # Events scheduled from inside events, including same-time
            # call_soon entries, keep seq allocation flowing identically.
            scheduler.call_soon(note, f"{label}/soon")
            handle = scheduler.schedule(0.25, nested, f"{label}/n", depth - 1)
            if depth % 2 == 0:
                handle.cancel()

    for step in range(300):
        action = rand.random()
        delay = rand.random() * 4.0 + 1e-6
        if action < 0.40 or not live_handles:
            live_handles.append(
                scheduler.schedule(delay, nested, f"s{step}", step % 3)
            )
        elif action < 0.60:
            victim = live_handles.pop(rand.randrange(len(live_handles)))
            victim.cancel()
            victim.cancel()  # idempotent double-cancel
        elif action < 0.75:
            scheduler.schedule_uncancellable(delay, note, f"u{step}")
        elif action < 0.85:
            scheduler.step()
            live_handles = [h for h in live_handles if not h._dequeued]
        else:
            fired.append(("pending", scheduler.pending))
    fired.append(("drain-until", scheduler.run(until=scheduler.now + 1.5)))
    fired.append(("drain-max", scheduler.run(max_events=25)))
    stop_at = scheduler.events_processed + 10
    fired.append(
        (
            "drain-pred",
            scheduler.run(
                stop_when=lambda: scheduler.events_processed >= stop_at
            ),
        )
    )
    fired.append(("drain-all", scheduler.run()))
    fired.append(
        ("final", round(scheduler.now, 12), scheduler.events_processed,
         scheduler.pending)
    )
    return fired


@needs_native
def test_cancel_requeue_churn_is_event_for_event_identical():
    """The native heap survives heavy churn bit-identically to heapq.

    Lazily-cancelled entries, stale cancels of popped events, nested
    scheduling and every run() bound produce the same event sequence on
    both backends.
    """
    python_trace = _churn_trace("python")
    native_trace = _churn_trace("native")
    assert len(python_trace) == len(native_trace)
    for index, (expected, got) in enumerate(
        zip(python_trace, native_trace)
    ):
        assert expected == got, f"traces diverge at event {index}"


# --------------------------------------------------------------------- #
# Golden membership trace (one join + one retire, both backends)
# --------------------------------------------------------------------- #

# Captured on the pure-python kernel at the introduction of dynamic
# membership.  The workload reconfigures mid-flight: roster index 4
# joins at t=6 (state transfer from a read quorum of view 0, the
# state_request/state_reply pairs below), and index 0 retires at t=14
# (drains for 4 time units, then stops appearing in quorums).  The
# native backend has no C support for the view-stamped message types —
# its protocol cores recognise the four plain NamedTuples by exact type
# and fall back to the Python handlers per message — so this trace doubles
# as the regression test that the fallback is byte-exact.
GOLDEN_MEMBERSHIP_TRACE = [
    (1, 0.327884676, "write_update", 4, 0),
    (2, 0.337857094, "write_ack", 0, 4),
    (3, 4.388070745, "write_update", 4, 2),
    (4, 4.85871208, "write_ack", 2, 4),
    (5, 4.872343753, "read_query", 4, 1),
    (6, 5.0507385, "read_reply", 1, 4),
    (8, 6.230303966, "state_request", 5, 0),
    (9, 6.635218382, "read_query", 4, 2),
    (10, 6.722887836, "read_reply", 2, 4),
    (11, 6.821792594, "state_request", 5, 1),
    (12, 7.158487165, "write_update", 4, 2),
    (13, 7.661951381, "write_ack", 2, 4),
    (14, 7.705471716, "write_update", 4, 0),
    (15, 7.726997043, "state_reply", 1, 5),
    (16, 8.206023245, "state_reply", 0, 5),
    (17, 8.249400017, "write_ack", 0, 4),
    (18, 8.837252614, "read_query", 4, 1),
    (19, 9.329461722, "read_query", 4, 0),
    (20, 10.150264623, "read_reply", 0, 4),
    (21, 10.595428818, "read_reply", 1, 4),
    (22, 11.053287231, "write_update", 4, 2),
    (23, 11.609162073, "write_update", 4, 3),
    (24, 11.889826958, "write_ack", 3, 4),
    (26, 14.02369983, "write_ack", 2, 4),
    (27, 14.048366863, "read_query", 4, 3),
    (28, 15.2257135, "read_query", 4, 2),
    (29, 15.485896673, "read_reply", 3, 4),
    (30, 17.342462977, "read_reply", 2, 4),
    (31, 17.865654691, "write_update", 4, 3),
    (33, 19.471058273, "write_ack", 3, 4),
    (34, 21.173036104, "write_update", 4, 1),
    (35, 21.633507807, "write_ack", 1, 4),
    (36, 21.698924343, "read_query", 4, 3),
    (37, 21.877016963, "read_reply", 3, 4),
    (38, 21.947576141, "read_query", 4, 5),
    (39, 22.134825013, "read_reply", 5, 4),
    (40, 22.363962736, "write_update", 4, 1),
    (41, 22.981283079, "write_ack", 1, 4),
    (42, 25.040334891, "write_update", 4, 5),
    (43, 25.169620181, "write_ack", 5, 4),
    (44, 25.770004618, "read_query", 4, 3),
    (45, 26.049556671, "read_query", 4, 5),
    (46, 26.600581357, "read_reply", 3, 4),
    (47, 26.609997058, "read_reply", 5, 4),
]


def _capture_membership_trace():
    """One join + one retire under seeded single-client traffic."""
    from repro.membership import MembershipSchedule

    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(4, 2),
        num_clients=1,
        delay_model=ExponentialDelay(1.0),
        seed=424,
        record_history=False,
    )
    deployment.declare_register("g", writer=0)
    schedule = MembershipSchedule().join(6.0, [4]).leave(14.0, [0])
    manager = deployment.install_membership(schedule, drain=4.0)

    trace = []
    network = deployment.network
    original_deliver = network._deliver

    def recording_deliver(src, dst, message, kind):
        trace.append(
            (
                deployment.scheduler.events_processed,
                round(deployment.scheduler.now, 9),
                kind,
                src,
                dst,
            )
        )
        original_deliver(src, dst, message, kind)

    network._deliver = recording_deliver

    state = {"ops": 0}
    client = deployment.clients[0]

    def issue(_future=None):
        n = state["ops"]
        if n >= 10:
            return
        state["ops"] = n + 1
        if n % 2 == 0:
            future = client.write("g", n)
        else:
            future = client.read("g")
        future.add_callback(issue)

    issue()
    deployment.run()
    return trace, manager, deployment


def test_golden_membership_trace_is_unchanged(kernel_backend):
    """Join + retire deliver the exact golden sequence on both backends.

    Parametrized over python and native: the native cores carry the
    view-stamped messages themselves (nacks at the client and the
    transfer protocol take the Python handlers) without perturbing event
    order, times or RNG streams.
    """
    trace, manager, deployment = _capture_membership_trace()
    assert trace == GOLDEN_MEMBERSHIP_TRACE
    assert manager.view_sizes() == [[0, 4, 2], [1, 5, 2], [2, 4, 2]]
    assert manager.state_transfers_completed == 1
    assert manager.state_transfers_incomplete == 0
    assert deployment.pending_ops == 0
    assert deployment.hung_ops == 0


@needs_native
def test_membership_backends_agree_in_one_process():
    """Both backends, back to back in one interpreter, byte-identical."""
    with kernel.use_backend("python"):
        trace_python, _, _ = _capture_membership_trace()
    with kernel.use_backend("native"):
        trace_native, _, _ = _capture_membership_trace()
    assert trace_python == trace_native == GOLDEN_MEMBERSHIP_TRACE


def test_broadcast_matches_serial_sends():
    """broadcast(src, dsts, m) consumes the streams exactly like a loop
    of send() calls: same deliveries at the same times."""

    def run(use_broadcast):
        scheduler = Scheduler()
        network = Network(
            scheduler,
            ExponentialDelay(1.0),
            np.random.default_rng(4242),
            loss_rate=0.2,
        )
        nodes = [_Recorder(scheduler) for _ in range(5)]
        for node in nodes:
            network.add_node(node)
        dsts = [1, 2, 3, 4]
        for i in range(20):
            if use_broadcast:
                network.broadcast(0, dsts, f"m{i}")
            else:
                for dst in dsts:
                    network.send(0, dst, f"m{i}")
        scheduler.run()
        stats = network.stats
        return (
            stats.sent,
            stats.delivered,
            stats.dropped,
            [node.received for node in nodes],
        )

    assert run(use_broadcast=True) == run(use_broadcast=False)
