"""Tests for the online spec monitor: [R2]/[R4]/liveness caught live."""

import pytest

from repro.chaos.broken import RegressingClient
from repro.core.history import RegisterHistory
from repro.core.monitor import OnlineSpecMonitor
from repro.core.spec import SpecViolation
from repro.core.timestamps import Timestamp
from repro.exec.task import RunTask, execute_task
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.deployment import RegisterDeployment
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import ConstantDelay


@pytest.fixture
def history():
    return RegisterHistory("X", initial_value=0)


def completed_read(history, process, invoke, respond, value, timestamp):
    record = history.begin_read(process, invoke)
    record.complete(respond, value, timestamp)
    return record


class TestR2Online:
    def test_clean_read_passes(self, history):
        write = history.begin_write(0, 1.0, "v", Timestamp(1, 0))
        write.respond(2.0)
        monitor = OnlineSpecMonitor()
        read = completed_read(history, 1, 3.0, 4.0, "v", Timestamp(1, 0))
        monitor.on_read_complete(1, read, history)
        assert monitor.reads_checked == 1

    def test_unwritten_timestamp_is_r2_violation(self, history):
        monitor = OnlineSpecMonitor()
        read = completed_read(history, 1, 1.0, 2.0, "ghost", Timestamp(9, 9))
        with pytest.raises(SpecViolation) as excinfo:
            monitor.on_read_complete(1, read, history)
        violation = excinfo.value
        assert violation.condition == "R2"
        assert violation.register == "X"
        assert violation.ops == [read]

    def test_read_from_future_write_is_r2_violation(self, history):
        monitor = OnlineSpecMonitor()
        read = completed_read(history, 1, 1.0, 2.0, "v", Timestamp(1, 0))
        # The write of that timestamp only begins after the read responded.
        write = history.begin_write(0, 5.0, "v", Timestamp(1, 0))
        with pytest.raises(SpecViolation) as excinfo:
            monitor.on_read_complete(1, read, history)
        assert excinfo.value.condition == "R2"
        assert excinfo.value.ops == [read, write]


class TestR4Online:
    def _two_writes(self, history):
        for seq in (1, 2):
            write = history.begin_write(0, float(seq), seq, Timestamp(seq, 0))
            write.respond(float(seq) + 0.5)

    def test_regressing_reads_caught_in_monotone_mode(self, history):
        self._two_writes(history)
        monitor = OnlineSpecMonitor(monotone=True)
        fresh = completed_read(history, 1, 3.0, 4.0, 2, Timestamp(2, 0))
        monitor.on_read_complete(1, fresh, history)
        stale = completed_read(history, 1, 5.0, 6.0, 1, Timestamp(1, 0))
        with pytest.raises(SpecViolation) as excinfo:
            monitor.on_read_complete(1, stale, history)
        violation = excinfo.value
        assert violation.condition == "R4"
        # Names both the earlier fresh read and the regressing one.
        assert violation.ops == [fresh, stale]

    def test_regression_tolerated_without_monotone_mode(self, history):
        self._two_writes(history)
        monitor = OnlineSpecMonitor(monotone=False)
        monitor.on_read_complete(
            1, completed_read(history, 1, 3.0, 4.0, 2, Timestamp(2, 0)),
            history,
        )
        monitor.on_read_complete(
            1, completed_read(history, 1, 5.0, 6.0, 1, Timestamp(1, 0)),
            history,
        )
        assert monitor.reads_checked == 2

    def test_r4_state_is_per_process(self, history):
        self._two_writes(history)
        monitor = OnlineSpecMonitor(monotone=True)
        monitor.on_read_complete(
            1, completed_read(history, 1, 3.0, 4.0, 2, Timestamp(2, 0)),
            history,
        )
        # A *different* process reading the older write is fine.
        monitor.on_read_complete(
            2, completed_read(history, 2, 5.0, 6.0, 1, Timestamp(1, 0)),
            history,
        )


class TestLiveness:
    def test_retry_storm_bounded(self):
        monitor = OnlineSpecMonitor(max_attempts=3)
        for attempts in (1, 2, 3):
            monitor.on_retry("X", "read", attempts)
        with pytest.raises(SpecViolation) as excinfo:
            monitor.on_retry("X", "read", 4)
        assert excinfo.value.condition == "liveness"
        assert monitor.retries_seen == 4

    def test_unbounded_retries_allowed_when_disabled(self):
        monitor = OnlineSpecMonitor(max_attempts=None)
        monitor.on_retry("X", "write", 10_000)

    def test_invalid_max_attempts_rejected(self):
        with pytest.raises(ValueError):
            OnlineSpecMonitor(max_attempts=0)

    @staticmethod
    def fake_deployment(queued, pending, overdue):
        class Scheduler:
            pass

        class FakeDeployment:
            scheduler = Scheduler()
            # The rule under test is the deployment's own.
            hung_ops = RegisterDeployment.hung_ops

        deployment = FakeDeployment()
        deployment.scheduler.pending = queued
        deployment.pending_ops = pending
        deployment.overdue_ops = overdue
        return deployment

    def test_finalize_flags_hung_ops(self):
        # Past an armed deadline: hung whether or not events are queued.
        for queued in (0, 5):
            with pytest.raises(SpecViolation) as excinfo:
                OnlineSpecMonitor().finalize(
                    self.fake_deployment(queued, pending=2, overdue=2)
                )
            assert excinfo.value.condition == "liveness"

    def test_finalize_flags_ops_pending_once_nothing_is_scheduled(self):
        with pytest.raises(SpecViolation) as excinfo:
            OnlineSpecMonitor().finalize(
                self.fake_deployment(0, pending=2, overdue=0)
            )
        assert "2 operation(s)" in str(excinfo.value)

    def test_finalize_ignores_ops_cut_off_with_events_queued(self):
        # A run stopped on purpose (a halt, a time cap) with messages
        # still in flight: its pending ops are not hung.
        OnlineSpecMonitor().finalize(
            self.fake_deployment(5, pending=2, overdue=0)
        )

    def test_finalize_passes_clean_deployment(self):
        OnlineSpecMonitor().finalize(
            self.fake_deployment(0, pending=0, overdue=0)
        )


def monitored_deployment(client_class, monitor, n=8, k=4, seed=3):
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(n, k),
        num_clients=2,
        delay_model=ConstantDelay(1.0),
        monotone=True,
        seed=seed,
        client_class=client_class,
        spec_monitor=monitor,
    )
    deployment.declare_register("X", writer=0, initial_value=0)
    return deployment


def write_read_workload(deployment, writes=6, reads=12):
    def writer():
        for value in range(1, writes + 1):
            yield deployment.handle(0, "X").write(value)
            yield Sleep(1.0)

    def reader():
        for _ in range(reads):
            yield deployment.handle(1, "X").read()
            yield Sleep(0.5)

    spawn(deployment.scheduler, writer(), label="writer")
    spawn(deployment.scheduler, reader(), label="reader")


class TestLiveDeployment:
    def test_clean_run_checks_every_operation(self):
        from repro.registers.client import QuorumRegisterClient

        monitor = OnlineSpecMonitor(monotone=True)
        deployment = monitored_deployment(QuorumRegisterClient, monitor)
        write_read_workload(deployment)
        deployment.run()
        monitor.finalize(deployment)
        assert monitor.reads_checked == 12
        assert monitor.writes_checked == 6

    def test_monitor_catches_regressing_client_live(self):
        # The deliberately-broken client bypasses the monotone cache and
        # returns the *oldest* reply once warmed up; the monitor must
        # abort the run at the first regressing read, naming both ops.
        monitor = OnlineSpecMonitor(monotone=True)
        deployment = monitored_deployment(
            RegressingClient.configured(2), monitor, seed=5
        )
        write_read_workload(deployment, writes=8, reads=16)
        with pytest.raises(SpecViolation) as excinfo:
            deployment.run()
        violation = excinfo.value
        assert violation.condition == "R4"
        assert violation.register == "X"
        assert len(violation.ops) == 2

    def test_monitor_requires_history_recording(self):
        with pytest.raises(ValueError):
            RegisterDeployment(
                ProbabilisticQuorumSystem(8, 4),
                num_clients=1,
                record_history=False,
                spec_monitor=OnlineSpecMonitor(),
            )

    def test_no_monitor_means_fast_path(self):
        from repro.registers.client import QuorumRegisterClient

        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(8, 4), num_clients=1,
        )
        deployment.declare_register("X", writer=0, initial_value=0)
        client = deployment.clients[0]
        assert isinstance(client, QuorumRegisterClient)
        assert client.spec_monitor is None


class TestWorkerIntegration:
    def test_violation_surfaces_in_task_payload(self):
        payload = execute_task(
            RunTask(
                kind="alg1",
                params={
                    "graph": {"kind": "chain", "n": 4},
                    "quorum": {"kind": "probabilistic", "n": 6, "k": 3},
                    "delay": {"kind": "exponential", "mean": 1.0},
                    "monotone": True,
                    "max_rounds": 20,
                    "max_sim_time": 200.0,
                    "check_spec_online": True,
                    "broken_client": {"kind": "regressing", "after": 2},
                },
                seed=3,
            )
        )
        violation = payload["spec_violation"]
        assert violation is not None
        assert violation["condition"] == "R4"
        assert len(violation["ops"]) == 2
        assert "read" in violation["message"]

    def test_clean_task_reports_none(self):
        payload = execute_task(
            RunTask(
                kind="alg1",
                params={
                    "graph": {"kind": "chain", "n": 4},
                    "quorum": {"kind": "probabilistic", "n": 6, "k": 3},
                    "delay": {"kind": "exponential", "mean": 1.0},
                    "monotone": True,
                    "max_rounds": 20,
                    "max_sim_time": 200.0,
                    # A deadline gives every op a settlement path, so the
                    # finalize()-time liveness check passes even if the
                    # sim-time budget truncates the run mid-operation.
                    "retry": {"interval": 1.0, "deadline": 20.0},
                    "check_spec_online": True,
                },
                seed=3,
            )
        )
        assert payload["spec_violation"] is None
        assert payload["converged"]
        assert payload["monitor"]["reads_checked"] > 0
