"""One conformance suite over every register flavour.

Every flavour — plain, monotone, masking, multi-writer, ABD — is a pair
of round plans the base client (and, on native, its C core) interprets,
so every flavour owes the same operational contract under the same
conditions, on both kernels:
every operation settles, the counters add up, each completed operation is
observed exactly once in the latency series and as one finished span, all
of them named after the operation the *caller* invoked, and the history
meets the flavour's safety conditions.  ``chaos.broken.RegressingClient``
is the control that must fail.
"""

from collections import Counter

import pytest

from repro.chaos.broken import RegressingClient
from repro.core.atomicity import check_atomic
from repro.core.monitor import OnlineSpecMonitor
from repro.core.spec import (
    SpecViolation,
    check_r2_reads_from_some_write,
    check_r4_monotone_reads,
)
from repro.core.timestamps import Timestamp
from repro.membership import MembershipSchedule
from repro.obs.core import Observability
from repro.obs.spans import SpanRecorder
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.atomic import AtomicClient, MultiWriterClient
from repro.registers.client import (
    OperationTimeout,
    QuorumRegisterClient,
    RetryPolicy,
)
from repro.registers.deployment import RegisterDeployment
from repro.registers.masking import MaskingClient
from repro.registers.messages import ReadReply
from repro.sim import kernel
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import ConstantDelay, ExponentialDelay
from repro.sim.failures import FailureSchedule
from tests.conftest import count_calls, needs_native, stream_states

#: flavour -> (client class, monotone, kinds that take two quorum rounds)
FLAVOURS = {
    "plain": (QuorumRegisterClient, False, ()),
    "monotone": (QuorumRegisterClient, True, ()),
    "masking": (MaskingClient, False, ()),  # b = 1, no liar
    "multi_writer": (MultiWriterClient, False, ("write",)),
    "atomic": (AtomicClient, False, ("write", "read")),
}
SYSTEMS = {
    "probabilistic": lambda: ProbabilisticQuorumSystem(9, 3),
    "majority": lambda: MajorityQuorumSystem(7),
}
RETRY = RetryPolicy(interval=2.0, deadline=9.0)
#: condition -> (retry policy, loss rate)
CONDITIONS = {
    "calm": (None, 0.0),
    "loss": (RETRY, 0.2),
    "crash": (RETRY, 0.0),
    "churn": (RETRY, 0.0),
}
# A view always samples k-subsets of its members, so membership churn
# runs on the probabilistic system only.
CASES = [
    pytest.param(flavour, system, condition,
                 id=f"{flavour}-{system}-{condition}")
    for flavour in FLAVOURS
    for system in SYSTEMS
    for condition in CONDITIONS
    if condition != "churn" or system == "probabilistic"
]


class RecordingMonitor(OnlineSpecMonitor):
    """The online monitor, also keeping the kind of every timeout."""

    __slots__ = ("timeout_kinds",)

    def __init__(self, monotone):
        super().__init__(monotone=monotone)
        self.timeout_kinds = []

    def on_timeout(self, register, op_kind):
        super().on_timeout(register, op_kind)
        self.timeout_kinds.append(op_kind)


def run_flavour(
    flavour, system, condition, instrumented, client_class=None,
    monitored=None,
):
    """Drive a seeded 3-client workload; returns (deployment, ops, obs,
    monitor) with ``ops`` the (kind, future) pairs in invocation order.
    ``instrumented`` records spans and, unless ``monitored`` says
    otherwise, attaches the online spec monitor."""
    flavour_class, monotone, two_round = FLAVOURS[flavour]
    retry_policy, loss_rate = CONDITIONS[condition]
    obs = Observability(spans=SpanRecorder()) if instrumented else None
    # Masking reads never regress either: a fallback returns the last
    # accepted pair.
    monitor = (
        RecordingMonitor(monotone or flavour == "masking")
        if (instrumented if monitored is None else monitored) else None
    )
    deployment = RegisterDeployment(
        SYSTEMS[system](),
        num_clients=3,
        delay_model=ExponentialDelay(1.0),
        monotone=monotone,
        seed=5,
        retry_policy=retry_policy,
        loss_rate=loss_rate,
        client_class=client_class or flavour_class,
        observability=obs,
        spec_monitor=monitor,
    )
    deployment.declare_register(
        "X", writer=None if two_round else 0, initial_value=0
    )
    if condition == "crash":
        deployment.install_schedule(
            FailureSchedule().outage(2.0, [0, 1, 2], 6.0)
        )
    elif condition == "churn":
        deployment.install_membership(MembershipSchedule.churn(
            num_initial=deployment.num_servers, period=4.0, batch=1,
            horizon=24.0,
        ))
    ops = []

    def process(kind, invoke, count, pause):
        for index in range(count):
            future = invoke(index)
            ops.append((kind, future))
            try:
                yield future
            except OperationTimeout:
                pass
            yield Sleep(pause)

    clients = deployment.clients
    for writer in (0, 1) if two_round else (0,):
        spawn(deployment.scheduler, process(
            "write",
            lambda i, c=clients[writer]: c.write("X", f"c{c.client_id}-{i}"),
            6, 2.0,
        ))
    for reader in (1, 2):
        spawn(deployment.scheduler, process(
            "read", lambda i, c=clients[reader]: c.read("X"), 10, 1.0,
        ))
    deployment.run()
    return deployment, ops, obs, monitor


@pytest.mark.parametrize("flavour, system, condition", CASES)
def test_flavour_conforms(flavour, system, condition, kernel_backend):
    deployment, ops, obs, monitor = run_flavour(
        flavour, system, condition, instrumented=True
    )
    two_round = FLAVOURS[flavour][2]
    clients = deployment.clients

    # Every future settles, as a value or a structured deadline miss
    # that names the operation the caller invoked; nothing is left over.
    for kind, future in ops:
        assert future.done
        if future.failed:
            assert isinstance(future.exception, OperationTimeout)
            assert str(future.exception).startswith(f"{kind}(X)")
    assert deployment.pending_ops == deployment.hung_ops == 0
    completed = Counter(kind for kind, future in ops if not future.failed)
    failed = Counter(kind for kind, future in ops if future.failed)
    if condition == "calm":
        assert not failed

    # Counters: every invoked operation is completed, timed out or
    # unreachable — once.
    assert sum(c.reads_performed + c.writes_performed for c in clients) \
        == len(ops)
    assert sum(c.ops_completed for c in clients) == sum(completed.values())
    assert sum(c.timeouts + c.unreachable for c in clients) \
        == sum(failed.values())

    # One latency observation and one finished span per operation, under
    # the caller's kind; the monitor hears the same kinds.
    for kind in ("read", "write"):
        series = obs.metrics.sample("repro_op_latency", [kind])
        assert series.count == completed[kind]
    spans = obs.spans
    assert spans.started == spans.finished == len(ops)
    assert Counter(s.kind for s in spans.with_status("ok")) == completed
    assert Counter(s.kind for s in spans.with_status("timeout")) == failed
    assert Counter(monitor.timeout_kinds) == failed
    assert monitor.reads_checked == completed["read"]
    assert monitor.writes_checked == completed["write"]
    if condition == "calm":
        # No retries: a span shows exactly the rounds its flavour runs.
        for span in spans.spans:
            rounds = sum(e.name == "quorum_round" for e in span.events)
            assert rounds == (2 if span.kind in two_round else 1), span

    # Safety: [R2] for all, no regression where the flavour promises it,
    # atomicity for ABD over the strict system.
    history = deployment.space.history("X")
    check_r2_reads_from_some_write(history)
    if flavour in ("monotone", "masking"):
        check_r4_monotone_reads(history)
    if flavour == "atomic" and system == "majority":
        check_atomic(history)


def test_the_faulted_conditions_do_time_operations_out():
    # The suite's timeout assertions are not vacuous: under loss the
    # tight deadline rejects operations of either kind, in either round.
    _, ops, _, _ = run_flavour("atomic", "majority", "loss", True)
    assert {kind for kind, future in ops if future.failed} \
        == {"read", "write"}


def _observable_state(deployment, monitor):
    history = deployment.space.history("X")
    return {
        "history": [repr(op) for op in history.operations()],
        "streams": stream_states(deployment),
        "counters": [
            (c.ops_completed, c.retries, c.timeouts, c.stale_nacks)
            for c in deployment.clients
        ],
        "now": deployment.scheduler.now,
        "monitor": monitor and (
            monitor.reads_checked, monitor.writes_checked,
            monitor.retries_seen, monitor.timeouts_seen, monitor.views_seen,
            monitor.timeout_kinds,
            {
                key: (timestamp, repr(record))
                for key, (timestamp, record) in monitor._last_read.items()
            },
        ),
    }


@needs_native
@pytest.mark.parametrize("flavour, system, condition", CASES)
def test_backends_agree(flavour, system, condition):
    # Without spans, so every flavour runs its plans in the C client
    # core on native — unmonitored, and monitored with the spec monitor's
    # hooks called from C.  Same seed, same history, same stream
    # positions, same monitor state.
    for monitored in (False, True):
        states = {}
        for backend in ("python", "native"):
            with kernel.use_backend(backend):
                deployment, _, _, monitor = run_flavour(
                    flavour, system, condition, instrumented=False,
                    monitored=monitored,
                )
                states[backend] = _observable_state(deployment, monitor)
        assert states["native"] == states["python"]
        assert (states["python"]["monitor"] is not None) == monitored


@needs_native
@pytest.mark.parametrize("flavour, system, condition", [
    case for case in CASES if case.values[2] in ("calm", "loss")
])
def test_native_flavours_never_enter_python_client_code(
    monkeypatch, flavour, system, condition
):
    # A flavour is its plans: on native, unspanned, every round, decision,
    # retry and completion runs in the C client core.
    calls = count_calls(monkeypatch, QuorumRegisterClient, (
        "on_message", "_finish", "_choose", "_send_round", "_retry",
    ))
    with kernel.use_backend("native"):
        deployment, ops, _, _ = run_flavour(
            flavour, system, condition, instrumented=False
        )
    assert ops and all(future.done for _, future in ops)
    assert sum(c.ops_completed for c in deployment.clients) > 0
    assert calls == dict.fromkeys(calls, 0)


class TestMustFailControl:
    def test_regressing_client_fails_the_suite(self, kernel_backend):
        # The same harness, a client whose read decision is broken: the
        # online monitor must abort the run on [R4].
        with pytest.raises(SpecViolation, match=r"\[R4\]"):
            run_flavour(
                "monotone", "probabilistic", "calm", instrumented=True,
                client_class=RegressingClient.configured(3),
            )


class TestLateQueryReply:
    def test_read_reply_in_the_update_round_is_not_an_ack(
        self, kernel_backend
    ):
        # On native the stray replies reach the C client core, whose
        # round-kind rule refuses them as the Python handler does.
        deployment = RegisterDeployment(
            MajorityQuorumSystem(5), num_clients=1,
            delay_model=ConstantDelay(1.0), seed=1,
            client_class=MultiWriterClient,
        )
        deployment.declare_register("X", writer=None, initial_value=0)
        client = deployment.clients[0]
        future = client.write("X", "v")
        deployment.run(until=2.5)  # queries answered at t=2; acks due at 4
        (op,) = client._pending.values()
        assert not op.is_read and op.replies == {}
        # What a retried query round leaves in flight: ReadReplys under
        # the op's id, from the very servers the update round waits on.
        for member in op.quorum:
            client.on_message(
                deployment.server_ids[member],
                ReadReply("X", op.op_id, 0, Timestamp.ZERO),
            )
        assert op.replies == {}
        assert not future.done and client.pending_ops == 1
        deployment.run()
        assert future.done and deployment.scheduler.now == 4.0
        assert client.ops_completed == 1 and client.pending_ops == 0
