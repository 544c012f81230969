"""Tests for multi-writer and atomic (ABD) registers and the atomicity
checker — the Section 8 "stronger registers" extensions."""

import pytest

from repro.core.atomicity import check_atomic, is_atomic
from repro.core.history import RegisterHistory
from repro.core.spec import SpecViolation, check_r2_reads_from_some_write
from repro.core.timestamps import Timestamp
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.atomic import AtomicClient, MultiWriterClient
from repro.registers.client import OperationTimeout, RetryPolicy
from repro.registers.deployment import RegisterDeployment
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import ConstantDelay, ExponentialDelay


def make_deployment(system, client_class, num_clients=3, seed=0, delay=None,
                    **kwargs):
    deployment = RegisterDeployment(
        system,
        num_clients=num_clients,
        delay_model=delay or ExponentialDelay(1.0),
        seed=seed,
        client_class=client_class,
        **kwargs,
    )
    deployment.declare_register("X", writer=None, initial_value=0)
    return deployment


class TestAtomicityChecker:
    def make_history(self):
        return RegisterHistory("X", initial_value=0)

    def add_write(self, history, seq, invoke, respond, writer=0):
        write = history.begin_write(
            writer, invoke, f"v{seq}", Timestamp(seq, writer)
        )
        write.respond(respond)
        return write

    def add_read(self, history, process, invoke, respond, seq, writer=0):
        read = history.begin_read(process, invoke)
        value = 0 if seq == 0 else f"v{seq}"
        read.complete(respond, value, Timestamp(seq, writer))
        return read

    def test_clean_history_is_atomic(self):
        history = self.make_history()
        self.add_write(history, 1, 1.0, 2.0)
        self.add_read(history, 1, 3.0, 4.0, seq=1)
        self.add_write(history, 2, 5.0, 6.0)
        self.add_read(history, 2, 7.0, 8.0, seq=2)
        check_atomic(history)

    def test_l1_write_order_inversion_detected(self):
        history = self.make_history()
        # ts=2 completes entirely before ts=1 begins.
        self.add_write(history, 2, 1.0, 2.0)
        self.add_write(history, 1, 3.0, 4.0)
        with pytest.raises(SpecViolation, match=r"\[L1\]"):
            check_atomic(history)

    def test_l2_future_read_detected(self):
        history = self.make_history()
        read = history.begin_read(1, 1.0)
        read.complete(2.0, "v1", Timestamp(1, 0))
        self.add_write(history, 1, 3.0, 4.0)  # written after the read
        with pytest.raises(SpecViolation, match=r"\[L2\]"):
            check_atomic(history)

    def test_l3_overwritten_value_detected(self):
        history = self.make_history()
        self.add_write(history, 1, 1.0, 2.0)
        self.add_write(history, 2, 3.0, 4.0)
        # A read starting at 5.0 must not return ts=1.
        self.add_read(history, 1, 5.0, 6.0, seq=1)
        with pytest.raises(SpecViolation, match=r"\[L3\]"):
            check_atomic(history)

    def test_l3_concurrent_read_may_return_old_value(self):
        history = self.make_history()
        self.add_write(history, 1, 1.0, 2.0)
        self.add_write(history, 2, 3.0, 6.0)
        # The read overlaps write 2, so returning ts=1 is legal.
        self.add_read(history, 1, 4.0, 5.0, seq=1)
        check_atomic(history)

    def test_l4_new_old_inversion_detected(self):
        history = self.make_history()
        self.add_write(history, 1, 1.0, 2.0)
        # Write ts=2 never completes, so [L3] cannot fire; but once some
        # read returns ts=2, a later read returning ts=1 is a new/old
        # inversion across processes.
        history.begin_write(0, 3.0, "v2", Timestamp(2, 0))
        self.add_read(history, 1, 5.0, 6.0, seq=2)
        self.add_read(history, 2, 7.0, 8.0, seq=1)
        with pytest.raises(SpecViolation, match=r"\[L4\]"):
            check_atomic(history)

    def test_l4_overlapping_reads_may_disagree(self):
        history = self.make_history()
        self.add_write(history, 1, 1.0, 2.0)
        self.add_write(history, 2, 3.0, 10.0)
        # Two overlapping reads during write 2 may split either way.
        self.add_read(history, 1, 4.0, 6.0, seq=2)
        self.add_read(history, 2, 5.0, 7.0, seq=1)
        check_atomic(history)

    def test_is_atomic_boolean(self):
        history = self.make_history()
        assert is_atomic(history)


class TestMultiWriter:
    @pytest.mark.parametrize("client_class", [MultiWriterClient, AtomicClient])
    def test_two_phase_ops_count_as_pending_and_hung(self, client_class):
        # A two-phase operation is an ordinary pending op: without a
        # retry policy a lossy network never settles it, and the base
        # client's accounting says so.
        deployment = RegisterDeployment(
            MajorityQuorumSystem(5), num_clients=2,
            delay_model=ConstantDelay(1.0), seed=3,
            client_class=client_class, loss_rate=0.999999,
        )
        deployment.declare_register("X", writer=None, initial_value=0)
        client = deployment.clients[0]
        future = client.write("X", "lost")
        assert client.pending_ops == client.hung_ops == 1
        deployment.run()
        assert not future.done
        assert client.pending_ops == client.hung_ops == 1
        assert deployment.pending_ops == deployment.hung_ops == 1
        # Loss off: the next write completes and leaves the count alone.
        deployment.network.set_message_loss(0.0)
        done = client.write("X", "kept")
        assert client.pending_ops == 2
        deployment.run()
        assert done.done and client.pending_ops == client.hung_ops == 1

    @pytest.mark.parametrize("client_class", [MultiWriterClient, AtomicClient])
    @pytest.mark.parametrize("kind", ["write", "read"])
    def test_two_phase_ops_time_out_under_a_deadline(self, client_class, kind):
        # ... and with a deadline armed it fails like any other, under
        # the name the caller invoked, leaving nothing pending or hung.
        deployment = RegisterDeployment(
            MajorityQuorumSystem(5), num_clients=2,
            delay_model=ConstantDelay(1.0), seed=3,
            client_class=client_class, loss_rate=0.999999,
            retry_policy=RetryPolicy(interval=2.0, deadline=15.0),
        )
        deployment.declare_register("X", writer=None, initial_value=0)
        client = deployment.clients[0]
        future = (
            client.write("X", "lost") if kind == "write" else client.read("X")
        )
        assert client.pending_ops == 1 and client.hung_ops == 0
        deployment.run()
        assert isinstance(future.exception, OperationTimeout)
        assert str(future.exception).startswith(f"{kind}(X) by c0 exceeded")
        assert client.timeouts == 1 and client.retries > 0
        assert client.pending_ops == client.hung_ops == 0
        assert deployment.scheduler.now == 15.0

    def test_two_writers_both_values_ordered(self):
        deployment = make_deployment(
            MajorityQuorumSystem(7), MultiWriterClient, seed=1,
            delay=ConstantDelay(1.0),
        )

        def writer(cid, values):
            for value in values:
                yield deployment.clients[cid].write("X", value)

        def reader():
            yield Sleep(50.0)
            return (yield deployment.clients[2].read("X"))

        spawn(deployment.scheduler, writer(0, ["a1", "a2"]))
        spawn(deployment.scheduler, writer(1, ["b1", "b2"]))
        done = spawn(deployment.scheduler, reader())
        deployment.run()
        # The final value is one of the last writes, and all four writes
        # received distinct timestamps.
        assert done.result() in {"a2", "b2"}
        history = deployment.space.history("X")
        timestamps = [w.timestamp for w in history.writes]
        assert len(set(timestamps)) == len(timestamps)
        check_r2_reads_from_some_write(history)

    def test_sequential_writers_see_each_other(self):
        deployment = make_deployment(
            MajorityQuorumSystem(7), MultiWriterClient, seed=2,
            delay=ConstantDelay(1.0),
        )

        def sequence():
            yield deployment.clients[0].write("X", "first")
            yield deployment.clients[1].write("X", "second")
            return (yield deployment.clients[2].read("X"))

        done = spawn(deployment.scheduler, sequence())
        deployment.run()
        assert done.result() == "second"
        # The second write's timestamp dominates the first's.
        history = deployment.space.history("X")
        writes = sorted(history.writes, key=lambda w: w.invoke_time)
        assert writes[-1].timestamp > writes[-2].timestamp

    def test_same_writer_never_reuses_timestamp_over_probabilistic(self):
        # With k=1 the query phase usually misses the writer's own last
        # write; the local sequence guard must still prevent reuse.
        deployment = make_deployment(
            ProbabilisticQuorumSystem(10, 1), MultiWriterClient, seed=3,
        )

        def writer():
            for value in range(12):
                yield deployment.clients[0].write("X", value)

        spawn(deployment.scheduler, writer())
        deployment.run()
        history = deployment.space.history("X")
        timestamps = [w.timestamp for w in history.writes]
        assert len(set(timestamps)) == len(timestamps)
        seqs = [w.timestamp.seq for w in history.writes if w.process == 0]
        assert seqs == sorted(seqs)

    def test_single_writer_declaration_still_enforced(self):
        deployment = RegisterDeployment(
            MajorityQuorumSystem(5), num_clients=2,
            delay_model=ConstantDelay(1.0), seed=4,
            client_class=MultiWriterClient,
        )
        deployment.declare_register("Y", writer=0, initial_value=0)
        from repro.registers.client import SingleWriterViolation

        with pytest.raises(SingleWriterViolation):
            deployment.clients[1].write("Y", "nope")


class TestAtomicABD:
    def run_mixed_workload(self, system, client_class, seed, **kwargs):
        deployment = make_deployment(system, client_class, num_clients=4,
                                     seed=seed, **kwargs)

        def settled(future):
            try:
                yield future
            except OperationTimeout:
                pass

        def writer(cid, count):
            for value in range(count):
                yield from settled(
                    deployment.clients[cid].write("X", f"c{cid}-{value}")
                )
                yield Sleep(2.0)

        def reader(cid, count):
            for _ in range(count):
                yield from settled(deployment.clients[cid].read("X"))
                yield Sleep(1.0)

        spawn(deployment.scheduler, writer(0, 15))
        spawn(deployment.scheduler, writer(1, 15))
        spawn(deployment.scheduler, reader(2, 40))
        spawn(deployment.scheduler, reader(3, 40))
        deployment.run()
        assert deployment.pending_ops == deployment.hung_ops == 0
        return deployment.space.history("X")

    def test_abd_over_strict_quorums_is_atomic(self):
        for seed in range(4):
            history = self.run_mixed_workload(
                MajorityQuorumSystem(7), AtomicClient, seed
            )
            check_atomic(history)

    def test_abd_stays_atomic_under_loss_with_retries(self):
        # Both rounds resample and re-send under loss; an operation the
        # deadline cuts off mid-update stays pending in the history,
        # which atomicity allows to take effect or not.
        timed_out = 0
        for seed in range(20):
            history = self.run_mixed_workload(
                MajorityQuorumSystem(7), AtomicClient, seed, loss_rate=0.2,
                retry_policy=RetryPolicy(interval=3.0, deadline=25.0),
            )
            check_atomic(history)
            timed_out += sum(op.pending for op in history.operations())
        assert timed_out > 0

    def test_plain_client_over_probabilistic_violates_atomicity(self):
        # Sanity: the checker has teeth — the random register is NOT
        # atomic ([L3]/[L4] violations appear at small quorums).
        from repro.registers.client import QuorumRegisterClient

        violated = False
        for seed in range(6):
            deployment = RegisterDeployment(
                ProbabilisticQuorumSystem(10, 1), num_clients=4,
                delay_model=ExponentialDelay(1.0), seed=seed,
                client_class=QuorumRegisterClient,
            )
            deployment.declare_register("X", writer=0, initial_value=0)

            def writer():
                for value in range(15):
                    yield deployment.clients[0].write("X", value)
                    yield Sleep(2.0)

            def reader(cid):
                for _ in range(40):
                    yield deployment.clients[cid].read("X")
                    yield Sleep(1.0)

            spawn(deployment.scheduler, writer())
            spawn(deployment.scheduler, reader(1))
            spawn(deployment.scheduler, reader(2))
            deployment.run()
            if not is_atomic(deployment.space.history("X")):
                violated = True
                break
        assert violated

    def test_abd_reads_return_written_values(self):
        history = self.run_mixed_workload(
            MajorityQuorumSystem(5), AtomicClient, seed=9
        )
        check_r2_reads_from_some_write(history)
        assert len(history.reads) == 80
