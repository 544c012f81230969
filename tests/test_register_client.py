"""Tests for the quorum register client (read/write protocol)."""

import pytest

from repro.core.timestamps import Timestamp
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.quorum.singleton import SingletonQuorumSystem
from repro.registers.client import RetryPolicy, SingleWriterViolation
from repro.registers.deployment import RegisterDeployment
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import ConstantDelay


def run_ops(deployment, gen):
    done = spawn(deployment.scheduler, gen)
    deployment.run()
    return done


def test_read_returns_initial_value(small_deployment):
    def proc():
        return (yield small_deployment.handle(1, "X").read())

    done = run_ops(small_deployment, proc())
    assert done.result() == 0


def test_write_then_read_full_quorum_sees_value():
    # With quorum size n every read must see the latest write.
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(5, 5), num_clients=2,
        delay_model=ConstantDelay(1.0), seed=1,
    )
    deployment.declare_register("X", writer=0, initial_value="old")

    def proc():
        yield deployment.handle(0, "X").write("new")
        return (yield deployment.handle(1, "X").read())

    assert run_ops(deployment, proc()).result() == "new"


def test_operation_labels_name_kind_register_and_client(kernel_backend):
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(4, 2), num_clients=2, seed=3
    )
    deployment.declare_register("X", writer=1, initial_value=0)
    read = deployment.clients[0].read("X")
    write = deployment.clients[1].write("X", 5)
    deployment.run()
    assert (read.label, write.label) == ("read(X) by c0", "write(X) by c1")
    assert repr(read) == "Future('read(X) by c0', done(0))"


def test_write_updates_quorum_replicas_only(small_deployment):
    def proc():
        yield small_deployment.handle(0, "X").write("v")

    run_ops(small_deployment, proc())
    updated = sum(
        1 for server in small_deployment.servers
        if server.replica_value("X") == "v"
    )
    assert updated == 3  # exactly the write quorum (k = 3)


def test_single_writer_enforced(small_deployment):
    with pytest.raises(SingleWriterViolation):
        small_deployment.clients[1].write("X", "intruder")


def test_writer_timestamps_increment(small_deployment):
    def proc():
        yield small_deployment.handle(0, "X").write("a")
        yield small_deployment.handle(0, "X").write("b")

    run_ops(small_deployment, proc())
    history = small_deployment.space.history("X")
    seqs = [w.timestamp.seq for w in history.writes]
    assert seqs == [0, 1, 2]


def test_read_records_history(small_deployment):
    def proc():
        yield small_deployment.handle(1, "X").read()

    run_ops(small_deployment, proc())
    history = small_deployment.space.history("X")
    assert len(history.reads) == 1
    read = history.reads[0]
    assert not read.pending
    assert read.process == 1
    assert read.timestamp == Timestamp.ZERO


def test_operation_latency_is_one_round_trip(small_deployment):
    # Constant delay 1.0: query out (1) + reply back (1) = 2 time units.
    def proc():
        yield small_deployment.handle(1, "X").read()
        return small_deployment.scheduler.now

    assert run_ops(small_deployment, proc()).result() == 2.0


def test_monotone_cache_prevents_regression():
    # k=1 over many servers: plain reads regress often, monotone never.
    def run(monotone, seed):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(12, 1), num_clients=2,
            delay_model=ConstantDelay(1.0), monotone=monotone, seed=seed,
        )
        deployment.declare_register("X", writer=0, initial_value=0)

        def writer():
            for value in range(1, 20):
                yield deployment.handle(0, "X").write(value)

        def reader():
            seen = []
            for _ in range(30):
                seen.append((yield deployment.handle(1, "X").read()))
                yield Sleep(0.5)
            return seen

        spawn(deployment.scheduler, writer())
        done = spawn(deployment.scheduler, reader())
        deployment.run()
        return done.result()

    monotone_runs = [run(True, seed) for seed in range(5)]
    plain_runs = [run(False, seed) for seed in range(5)]
    for seen in monotone_runs:
        assert seen == sorted(seen), f"monotone reads regressed: {seen}"
    assert any(
        seen != sorted(seen) for seen in plain_runs
    ), "plain reads never regressed at k=1 — cache test is vacuous"


def test_monotone_cache_hit_counter():
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(12, 1), num_clients=2,
        delay_model=ConstantDelay(1.0), monotone=True, seed=3,
    )
    deployment.declare_register("X", writer=0, initial_value=0)

    def proc():
        for value in range(1, 15):
            yield deployment.handle(0, "X").write(value)
        for _ in range(40):
            yield deployment.handle(1, "X").read()

    run_ops(deployment, proc())
    assert deployment.clients[1].cache_hits > 0


def test_concurrent_reads_by_same_client(small_deployment):
    # The register layer allows overlapping ops from one client's subsystem
    # (the application above enforces well-formedness when it matters).
    client = small_deployment.clients[1]

    def proc():
        from repro.sim.futures import gather
        results = yield gather([client.read("X"), client.read("X")])
        return results

    assert run_ops(small_deployment, proc()).result() == [0, 0]


def test_retry_resamples_quorum_after_crash():
    deployment = RegisterDeployment(
        SingletonQuorumSystem(4, coordinator=0), num_clients=1,
        delay_model=ConstantDelay(1.0), seed=0,
        retry_policy=RetryPolicy(interval=5.0),
    )
    # Singleton always picks server 0 — crash it and the op truly hangs,
    # proving retries alone cannot beat a deterministic quorum choice.
    deployment.declare_register("X", writer=0, initial_value=0)
    deployment.crash_server(0)

    def proc():
        yield deployment.handle(0, "X").read()

    done = spawn(deployment.scheduler, proc())
    deployment.run(until=100.0)
    assert not done.done

    # The probabilistic system with retry routes around the crash.
    deployment2 = RegisterDeployment(
        ProbabilisticQuorumSystem(4, 1), num_clients=1,
        delay_model=ConstantDelay(1.0), seed=0,
        retry_policy=RetryPolicy(interval=5.0),
    )
    deployment2.declare_register("X", writer=0, initial_value=0)
    deployment2.crash_server(0)

    def proc2():
        return (yield deployment2.handle(0, "X").read())

    done2 = spawn(deployment2.scheduler, proc2())
    deployment2.run(until=500.0)
    assert done2.done and done2.result() == 0


def test_late_replies_ignored():
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(6, 2), num_clients=1,
        delay_model=ConstantDelay(1.0), seed=5,
        retry_policy=RetryPolicy(interval=0.5),
    )
    # Retry fires before replies arrive (interval < round trip), so the
    # client receives replies for already-completed rounds; they must not
    # corrupt later operations.
    deployment.declare_register("X", writer=0, initial_value=0)

    def proc():
        values = []
        for _ in range(5):
            values.append((yield deployment.handle(0, "X").read()))
        return values

    done = spawn(deployment.scheduler, proc())
    deployment.run()
    assert done.result() == [0, 0, 0, 0, 0]
