"""Tests for Byzantine replicas and probabilistic masking quorums."""

import pytest

from repro.core.spec import check_r2_reads_from_some_write
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.client import QuorumRegisterClient
from repro.registers.deployment import RegisterDeployment
from repro.registers.masking import (
    ByzantineReplicaServer,
    MaskingClient,
    replace_with_byzantine,
)
from repro.sim import kernel
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import ConstantDelay
from tests.conftest import needs_native


def make_deployment(client_class, n=12, k=6, byzantine=(), seed=0, **client_kw):
    if client_kw:
        def factory(*args, **kwargs):
            kwargs.update(client_kw)
            return client_class(*args, **kwargs)
    else:
        factory = client_class
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(n, k), num_clients=2,
        delay_model=ConstantDelay(1.0), seed=seed, client_class=factory,
    )
    deployment.declare_register("X", writer=0, initial_value=0)
    replace_with_byzantine(deployment, byzantine)
    return deployment


def write_then_read_loop(deployment, writes=10, reads=20):
    def writer():
        for value in range(1, writes + 1):
            yield deployment.handle(0, "X").write(value)
            yield Sleep(1.0)

    def reader():
        seen = []
        for _ in range(reads):
            seen.append((yield deployment.handle(1, "X").read()))
            yield Sleep(0.8)
        return seen

    spawn(deployment.scheduler, writer())
    done = spawn(deployment.scheduler, reader())
    deployment.run()
    return done.result()


def test_byzantine_server_poisons_plain_client():
    # A single lying replica with a huge timestamp wins every plain read
    # whose quorum touches it.
    deployment = make_deployment(
        QuorumRegisterClient, byzantine=(0,), seed=1
    )
    seen = write_then_read_loop(deployment)
    assert "POISON" in seen


def test_masking_client_filters_the_lie():
    deployment = make_deployment(
        MaskingClient, byzantine=(0,), seed=1, byzantine_bound=1
    )
    seen = write_then_read_loop(deployment)
    assert "POISON" not in seen
    # Honest values still flow (some non-initial value observed).
    assert any(value not in (0, "POISON") for value in seen)


def test_masking_client_survives_multiple_liars():
    deployment = make_deployment(
        MaskingClient, n=15, k=8, byzantine=(0, 1), seed=2, byzantine_bound=2
    )
    seen = write_then_read_loop(deployment)
    assert "POISON" not in seen
    assert max(v for v in seen if isinstance(v, int)) >= 5


def test_masking_reads_satisfy_r2():
    deployment = make_deployment(
        MaskingClient, byzantine=(0,), seed=3, byzantine_bound=1
    )
    write_then_read_loop(deployment)
    # Returned values were all honestly written (the initial value or a
    # writer value): the paper's [R2] holds despite the liar.
    check_r2_reads_from_some_write(deployment.space.history("X"))


def test_masking_without_byzantine_behaves_normally():
    deployment = make_deployment(MaskingClient, seed=4, byzantine_bound=1)
    seen = write_then_read_loop(deployment)
    assert "POISON" not in seen
    assert seen[-1] >= 8  # close to the last written value


def test_masking_values_monotone_per_client():
    # The accepted-value cache makes masked reads monotone, like [R4].
    deployment = make_deployment(
        MaskingClient, byzantine=(0,), seed=5, byzantine_bound=1
    )
    seen = write_then_read_loop(deployment)
    numeric = [v for v in seen if isinstance(v, int)]
    assert numeric == sorted(numeric)


def test_fallback_counter_increments_when_vouching_impossible():
    # With b = k the threshold b+1 exceeds what any quorum can vouch
    # unanimously against a liar... use k=2, b=2: only unanimous 3-vouches
    # would qualify, impossible -> every read falls back to the initial.
    deployment = make_deployment(
        MaskingClient, n=8, k=2, byzantine=(), seed=6, byzantine_bound=2
    )
    seen = write_then_read_loop(deployment, writes=3, reads=5)
    assert all(value == 0 for value in seen)
    assert deployment.clients[1].fallback_reads == 5


def test_byzantine_bound_validation():
    with pytest.raises(ValueError):
        make_deployment(MaskingClient, byzantine_bound=-1)


def test_lies_told_counter():
    deployment = make_deployment(
        QuorumRegisterClient, byzantine=(0,), seed=7
    )
    write_then_read_loop(deployment, writes=2, reads=10)
    server = deployment.servers[0]
    assert isinstance(server, ByzantineReplicaServer)
    assert server.lies_told > 0


# --------------------------------------------------------------------- #
# Crash + Byzantine interplay: fail-stop faults silence liars too
# --------------------------------------------------------------------- #


def make_retrying_deployment(byzantine=(0,), seed=1, detailed_stats=False):
    from repro.registers.client import RetryPolicy

    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(12, 6), num_clients=2,
        delay_model=ConstantDelay(1.0), seed=seed,
        retry_policy=RetryPolicy.fixed(3.0), detailed_stats=detailed_stats,
    )
    deployment.declare_register("X", writer=0, initial_value=0)
    replace_with_byzantine(deployment, byzantine)
    return deployment


def test_crashed_byzantine_replica_stops_lying():
    # Crash the liar before any traffic and keep it down: quorums
    # touching it stall and retry around it, and no poison ever reaches
    # a reader — a crashed replica tells no lies.
    deployment = make_retrying_deployment()
    deployment.crash_server(0)
    seen = write_then_read_loop(deployment, writes=10, reads=40)
    assert "POISON" not in seen
    assert deployment.servers[0].lies_told == 0
    assert deployment.total_retries > 0  # crash actually bit the quorums
    assert deployment.pending_ops == 0


def test_recovered_byzantine_replica_resumes_lying():
    # The fail-stop and Byzantine fault models compose rather than
    # cancelling out: once the crashed liar recovers, its poison flows
    # again (including into reads that stalled across the outage).
    deployment = make_retrying_deployment()
    deployment.crash_server(0)
    deployment.scheduler.schedule_at(
        10.0, lambda: deployment.recover_server(0)
    )
    seen = write_then_read_loop(deployment, writes=10, reads=40)
    assert "POISON" in seen
    assert deployment.servers[0].lies_told > 0
    assert deployment.pending_ops == 0


def test_crashed_byzantine_ignores_injected_messages():
    # The fail-stop guard must hold even for messages injected directly
    # into on_message (bypassing Network delivery screening).
    from repro.registers.messages import ReadQuery

    deployment = make_retrying_deployment()
    byzantine = deployment.servers[0]
    client_node = deployment.clients[0].node_id
    deployment.crash_server(0)
    sent_before = deployment.network.stats.sent
    byzantine.on_message(client_node, ReadQuery("X", 1))
    assert byzantine.lies_told == 0
    assert deployment.network.stats.sent == sent_before
    deployment.recover_server(0)
    byzantine.on_message(client_node, ReadQuery("X", 2))
    assert byzantine.lies_told == 1
    assert deployment.network.stats.sent == sent_before + 1


def test_byzantine_replies_traverse_normal_delivery_checks():
    # A liar gets no magic channel: its reply goes through network.send,
    # so an active partition between it and the client drops the poison
    # like any honest reply.
    from repro.registers.messages import ReadQuery

    deployment = make_retrying_deployment(detailed_stats=True)
    byzantine = deployment.servers[0]
    client_node = deployment.clients[0].node_id
    deployment.failures.partition([[byzantine.node_id], [client_node]])
    dropped_before = deployment.network.stats.dropped
    byzantine.on_message(client_node, ReadQuery("X", 1))
    assert byzantine.lies_told == 1  # it tried...
    assert deployment.network.stats.dropped == dropped_before + 1
    assert deployment.network.stats.dropped_by_reason["fault"] >= 1


@needs_native
def test_masking_reads_agree_across_backends():
    # Liars exercise both branches of the vouched decision — masked reads
    # and accepted-pair fallbacks — which the native client core reaches
    # through the same plan as the python backend.
    results = {}
    for backend in ("python", "native"):
        with kernel.use_backend(backend):
            deployment = make_deployment(
                MaskingClient, n=8, k=3, byzantine=(0, 1), seed=5,
                byzantine_bound=1,
            )
            seen = write_then_read_loop(deployment)
        reader = deployment.clients[1]
        results[backend] = (
            seen, reader.masked_reads, reader.fallback_reads,
            reader._accepted,
            [repr(op) for op in deployment.space.history("X").operations()],
        )
    assert results["native"] == results["python"]
    _, masked, fallback, _, _ = results["native"]
    assert masked > 0 and fallback > 0
