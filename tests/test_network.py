"""Tests for the message-passing network."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.registers.messages import ReadQuery
from repro.sim import kernel
from repro.sim.delays import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    LogNormalDelay,
    UniformDelay,
)
from repro.sim.failures import FailureInjector
from repro.sim.metrics import MessageStats
from repro.sim.network import Network, Node
from repro.sim.scheduler import Scheduler
from tests.conftest import (
    BACKENDS, backend_param, count_calls, needs_native, stats_state,
)

#: The Python ``MessageStats`` recorders a network may call.
RECORDERS = ("record_send", "record_sends", "record_delivery", "record_drop")


class Recorder(Node):
    """Test node recording (time, src, message) of deliveries."""

    def __init__(self):
        super().__init__()
        self.received = []

    def on_message(self, src, message):
        self.received.append((self.network.scheduler.now, src, message))


def make_network(delay=None, failures=None):
    scheduler = Scheduler()
    network = Network(
        scheduler,
        delay or ConstantDelay(1.0),
        np.random.default_rng(0),
        failures=failures,
    )
    return scheduler, network


def test_message_delivered_after_delay():
    scheduler, network = make_network(ConstantDelay(2.0))
    a, b = Recorder(), Recorder()
    network.add_node(a)
    network.add_node(b)
    network.send(a.node_id, b.node_id, "hello")
    scheduler.run()
    assert b.received == [(2.0, a.node_id, "hello")]


def test_node_ids_assigned_sequentially():
    _, network = make_network()
    nodes = [Recorder() for _ in range(3)]
    ids = [network.add_node(node) for node in nodes]
    assert ids == [0, 1, 2]
    assert network.node_ids == [0, 1, 2]


def test_explicit_node_id():
    _, network = make_network()
    node = Recorder()
    assert network.add_node(node, node_id=10) == 10
    other = Recorder()
    assert network.add_node(other) == 11


def test_duplicate_node_id_rejected():
    _, network = make_network()
    network.add_node(Recorder(), node_id=1)
    with pytest.raises(ValueError):
        network.add_node(Recorder(), node_id=1)


def test_send_to_unknown_node_rejected():
    _, network = make_network()
    a = Recorder()
    network.add_node(a)
    with pytest.raises(KeyError):
        network.send(a.node_id, 42, "msg")


def test_node_send_helper():
    scheduler, network = make_network()
    a, b = Recorder(), Recorder()
    network.add_node(a)
    network.add_node(b)
    a.send(b.node_id, "via helper")
    scheduler.run()
    assert b.received[0][2] == "via helper"


def test_detached_node_send_raises():
    node = Recorder()
    with pytest.raises(RuntimeError):
        node.send(0, "msg")


def test_broadcast_reaches_all():
    scheduler, network = make_network()
    nodes = [Recorder() for _ in range(4)]
    for node in nodes:
        network.add_node(node)
    network.broadcast(0, [1, 2, 3], "fanout")
    scheduler.run()
    for node in nodes[1:]:
        assert len(node.received) == 1
    assert nodes[0].received == []


def test_messages_can_reorder_with_variable_delays():
    # With exponential delays, later sends sometimes arrive earlier.
    scheduler, network = make_network(ExponentialDelay(1.0))
    a, b = Recorder(), Recorder()
    network.add_node(a)
    network.add_node(b)
    for i in range(50):
        network.send(a.node_id, b.node_id, i)
    scheduler.run()
    order = [msg for _, _, msg in b.received]
    assert sorted(order) == list(range(50))
    assert order != list(range(50))  # at least one reordering at this seed


def test_stats_count_sends_and_deliveries():
    scheduler, network = make_network()
    a, b = Recorder(), Recorder()
    network.add_node(a)
    network.add_node(b)
    for _ in range(5):
        network.send(a.node_id, b.node_id, "m")
    scheduler.run()
    assert network.stats.sent == 5
    assert network.stats.delivered == 5
    assert network.stats.dropped == 0


def test_crashed_destination_drops_message():
    failures = FailureInjector()
    scheduler, network = make_network(failures=failures)
    a, b = Recorder(), Recorder()
    network.add_node(a)
    network.add_node(b)
    failures.crash(b.node_id)
    network.send(a.node_id, b.node_id, "lost")
    scheduler.run()
    assert b.received == []
    assert network.stats.dropped == 1


def test_crash_while_in_flight_drops_message():
    failures = FailureInjector()
    scheduler, network = make_network(ConstantDelay(5.0), failures=failures)
    a, b = Recorder(), Recorder()
    network.add_node(a)
    network.add_node(b)
    network.send(a.node_id, b.node_id, "in-flight")
    scheduler.schedule(1.0, failures.crash, b.node_id)
    scheduler.run()
    assert b.received == []
    assert network.stats.dropped == 1


def test_recovered_node_receives_again():
    failures = FailureInjector()
    scheduler, network = make_network(failures=failures)
    a, b = Recorder(), Recorder()
    network.add_node(a)
    network.add_node(b)
    failures.crash(b.node_id)
    failures.recover_many([b.node_id])
    network.send(a.node_id, b.node_id, "back")
    scheduler.run()
    assert len(b.received) == 1


def test_tap_observes_every_send():
    scheduler, network = make_network()
    a, b = Recorder(), Recorder()
    network.add_node(a)
    network.add_node(b)
    taps = []
    network.add_tap(lambda src, dst, msg: taps.append((src, dst, msg)))
    network.send(a.node_id, b.node_id, "observed")
    assert taps == [(a.node_id, b.node_id, "observed")]


class LinkDelay(DelayModel):
    """10 on the link 0 -> 1, 1 everywhere else."""

    def sample(self, rng, src, dst):
        return 10.0 if (src, dst) == (0, 1) else 1.0


def test_per_link_delay_routing():
    scheduler, network = make_network(LinkDelay())
    a, b, c = Recorder(), Recorder(), Recorder()
    for node in (a, b, c):
        network.add_node(node)
    network.send(0, 1, "slow")
    network.send(0, 2, "fast")
    scheduler.run()
    assert b.received[0][0] == 10.0
    assert c.received[0][0] == 1.0


# --------------------------------------------------------------------- #
# Contract: broadcast(src, dsts, m) == for dst in dsts: send(src, dst, m)
# --------------------------------------------------------------------- #

DELAY_MODELS = {
    "constant": lambda: ConstantDelay(1.5),
    "exponential": lambda: ExponentialDelay(1.0),
    # No native transcription: C draws these through the generic .sample().
    "uniform": lambda: UniformDelay(0.5, 1.5),
    "lognormal": lambda: LogNormalDelay(1.0, sigma=0.8),
}


class LoggingNode(Node):
    """Appends (now, dst, src, message) to a log shared by every node, so
    the log is the delivery trace in (time, seq) order."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def on_message(self, src, message):
        self.log.append(
            (self.network.scheduler.now, self.node_id, src, message)
        )


class ScriptedAdversary:
    """Cycles through a fixed list of verdicts: None, "drop", extra delay."""

    def __init__(self, script):
        self.script = script
        self.seen = []

    def intercept(self, src, dst, message, kind, now):
        verdict = self.script[len(self.seen) % len(self.script)]
        self.seen.append((src, dst, kind, now))
        return verdict


def _drive_fan_outs(backend, use_broadcast, **shape):
    """:func:`_fan_outs`'s observations, and the number of calls each
    Python ``MessageStats`` recorder received meanwhile."""
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch, MessageStats, RECORDERS)
        observed = _fan_outs(backend, use_broadcast, **shape)
    return observed, calls


def _fan_outs(
    backend, use_broadcast, *, delay, seed, loss_rate, shared_stream,
    faulty, script, tapped, detailed, fan_outs,
):
    """Six nodes; node 0 fans ``fan_outs`` out at times 0, 0.5, 1.0, ...
    while a crash/partition timeline runs.  Returns everything observable:
    delivery trace, stats, tap and adversary logs, both streams' states,
    and what an unknown destination does afterwards."""
    adversary = ScriptedAdversary(script) if script else None
    with kernel.use_backend(backend):
        scheduler = kernel.make_scheduler()
        rng = np.random.default_rng(seed)
        failures = FailureInjector()
        network = Network(
            scheduler, DELAY_MODELS[delay](), rng, failures=failures,
            loss_rate=loss_rate,
            loss_rng=rng if shared_stream else np.random.default_rng(seed + 1),
            detailed_stats=detailed,
            adversary=adversary,
        )
    # A native network runs the C core exactly when its stats are scalar.
    has_core = getattr(network.send, "__func__", None) is not Network.send
    assert has_core == (backend == "native" and not detailed)
    log, taps = [], []
    for _ in range(6):
        network.add_node(LoggingNode(log))
    if tapped:
        network.add_tap(lambda src, dst, message: taps.append((dst, message)))
    if faulty:
        failures.crash(2)
        failures.partition([[0, 1, 2, 3], [4]])
        scheduler.schedule_at(0.75, failures.crash, 3)  # some in flight
        scheduler.schedule_at(1.25, failures.heal_partition)
        scheduler.schedule_at(1.75, failures.recover_all)

    def fan_out(index, dsts):
        # Protocol messages carry a ``kind``; plain payloads use the type.
        message = ReadQuery("x", index) if index % 2 else f"m{index}"
        if use_broadcast:
            network.broadcast(0, dsts, message)
        else:
            for dst in dsts:
                network.send(0, dst, message)

    for index, dsts in enumerate(fan_outs):
        scheduler.schedule_at(0.5 * index, fan_out, index, dsts)
    scheduler.run()
    stats = network.stats
    assert type(stats) is MessageStats  # one stats class on both kernels
    observed = {
        "trace": log,
        "taps": taps,
        "adversary": adversary and adversary.seen,
        "stats": stats_state(stats),
    }
    # An unknown destination: the KeyError comes before any stat moves,
    # any tap runs or any stream is touched.
    with pytest.raises(KeyError) as raised:
        if use_broadcast:
            network.broadcast(0, [1, 99, 2], "late")
        else:
            network.send(0, 99, "late")
    observed["unknown"] = str(raised.value)
    assert stats_state(stats) == observed["stats"]
    assert scheduler.pending == 0
    observed["streams"] = (
        network.rng.bit_generator.state, network._loss_rng.bit_generator.state,
    )
    return observed


@pytest.mark.parametrize("backend", [backend_param(b) for b in BACKENDS])
@settings(max_examples=60, deadline=None)
@example(  # lossy, faulted and adversarial, scalar stats
    delay="exponential", seed=3, loss_rate=0.3, shared_stream=False,
    faulty=True, script=[None, "drop", 0.75], tapped=False,
    fan_outs=[[1, 2, 3, 4, 5], [2, 3], [4, 5, 1], [3]], data=None,
)
@given(
    delay=st.sampled_from(sorted(DELAY_MODELS)),
    seed=st.integers(min_value=0, max_value=2**32 - 2),
    loss_rate=st.sampled_from([0.0, 0.3]),
    shared_stream=st.booleans(),
    faulty=st.booleans(),
    script=st.lists(
        st.sampled_from([None, "drop", 0.0, 0.75]), max_size=4
    ),
    tapped=st.booleans(),
    fan_outs=st.lists(
        st.lists(st.integers(min_value=1, max_value=5), max_size=5),
        min_size=1, max_size=6,
    ),
    data=st.data(),
)
def test_broadcast_is_a_loop_of_send(backend, data, **shape):
    """The one contract ``broadcast`` has: in every configuration — each
    delay model, loss on or off (also drawn from the delay stream itself),
    crashes and a partition, an adversary that passes, drops and delays,
    taps, scalar or detailed stats — a fan-out leaves exactly what the
    loop of ``send`` calls leaves: the same deliveries in the same order,
    the same counters, the same hook calls and both RNG streams at the
    same position.  On the native backend, where every example runs the C
    network core on scalar stats, that also equals the python backend's
    fan-out — the same ``MessageStats`` with the same totals — and never
    calls a Python recorder: the core adds to the totals' slots itself.
    Detailed stats are drawn on the python backend only: a detailed
    network gets no core (:func:`test_a_detailed_network_gets_no_core`),
    so a native example with them would compare the Python network with
    itself.  The explicit example (``data`` None) runs scalar stats."""
    detailed = backend == "python" and data is not None and data.draw(
        st.booleans(), label="detailed"
    )
    fanned, fanned_calls = _drive_fan_outs(
        backend, True, detailed=detailed, **shape
    )
    looped, looped_calls = _drive_fan_outs(
        backend, False, detailed=detailed, **shape
    )
    assert fanned == looped
    if backend == "python":
        return
    python, python_calls = _drive_fan_outs(
        "python", True, detailed=False, **shape
    )
    assert fanned == python
    # The counters do see the python backend's recorders.
    _, delivered, dropped = python["stats"]["totals"]
    assert python_calls["record_delivery"] == delivered
    assert python_calls["record_drop"] == dropped
    silent = dict.fromkeys(RECORDERS, 0)
    assert fanned_calls == looped_calls == silent


@needs_native
def test_a_detailed_network_gets_no_core():
    """A native network with detailed stats runs the Python reference
    whole (``_fan_outs`` asserts it has no core): its Python recorders
    collect the breakdowns, and it leaves what the python backend leaves."""
    shape = dict(
        delay="exponential", seed=3, loss_rate=0.3, shared_stream=False,
        faulty=True, script=[None, "drop", 0.75], tapped=True,
        detailed=True, fan_outs=[[1, 2, 3, 4, 5], [2, 3], [4, 5, 1], [3]],
    )
    native, native_calls = _drive_fan_outs("native", True, **shape)
    python, python_calls = _drive_fan_outs("python", True, **shape)
    assert native == python
    assert native_calls == python_calls
    assert native_calls["record_delivery"] == native["stats"]["totals"][1]
