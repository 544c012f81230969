"""Tests for the fault-tolerance layer: retry policies, deadlines,
failure schedules, message loss, and the zero-hung-futures invariant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.task import RunTask, execute_task
from repro.membership import MembershipSchedule
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.client import OperationTimeout, RetryPolicy
from repro.registers.deployment import RegisterDeployment
from repro.sim.failures import (
    FailureEvent,
    FailureInjector,
    FailureSchedule,
    ScheduleError,
    Timeline,
)
from repro.sim.coroutines import spawn
from repro.sim.delays import ConstantDelay


def make_deployment(n, k, retry_policy, num_clients=1, seed=2, **kwargs):
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(n, k),
        num_clients=num_clients,
        delay_model=ConstantDelay(1.0),
        seed=seed,
        retry_policy=retry_policy,
        **kwargs,
    )
    deployment.declare_register("X", writer=0, initial_value=0)
    return deployment


class TestRetryPolicy:
    def test_backoff_growth_and_cap(self):
        policy = RetryPolicy(
            interval=1.0, backoff=2.0, jitter=0.0, max_interval=5.0
        )
        rng = np.random.default_rng(0)
        assert [policy.delay(a, rng) for a in range(4)] == [1.0, 2.0, 4.0, 5.0]

    def test_fixed_policy_never_grows(self):
        policy = RetryPolicy.fixed(3.0)
        rng = np.random.default_rng(0)
        assert [policy.delay(a, rng) for a in range(5)] == [3.0] * 5

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(interval=10.0, backoff=1.0, jitter=0.2)
        rng = np.random.default_rng(7)
        draws = [policy.delay(0, rng) for _ in range(50)]
        assert all(8.0 <= d <= 12.0 for d in draws)
        assert len(set(draws)) > 1  # actually jittered
        again = [
            policy.delay(0, np.random.default_rng(7)) for _ in range(1)
        ]
        assert again[0] == draws[0]  # same stream, same delays

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0.0},
            {"interval": -1.0},
            {"interval": 1.0, "backoff": 0.5},
            {"interval": 1.0, "jitter": 1.0},
            {"interval": 1.0, "jitter": -0.1},
            {"interval": 4.0, "max_interval": 2.0},
            {"interval": 1.0, "deadline": 0.0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestRetryPath:
    def test_retry_resends_only_to_unanswered_members(self):
        # k = n: the quorum is always all four servers, so after the
        # three live ones reply, every retry round must re-send exactly
        # one message (to the crashed member) — not four.
        deployment = make_deployment(4, 4, RetryPolicy.fixed(5.0))
        deployment.crash_server(0)
        deployment.scheduler.schedule_at(
            12.0, lambda: deployment.recover_server(0)
        )

        def proc():
            return (yield deployment.handle(0, "X").read())

        done = spawn(deployment.scheduler, proc())
        deployment.run(until=100.0)
        assert done.result() == 0
        retries = deployment.clients[0].retries
        assert retries == 3  # t = 5, 10, 15; reply lands at 17
        stats = deployment.network.stats
        assert stats.by_kind["read_query"] == 4 + retries

    def test_late_replies_complete_resampled_quorum(self):
        # Retry interval far below the round trip: the client resamples
        # quorums several times before any reply lands; the replies then
        # arrive "late" (for attempt 0) yet must still complete the
        # currently-sampled quorum.
        deployment = make_deployment(6, 3, RetryPolicy.fixed(0.5), seed=11)

        def proc():
            return (yield deployment.handle(0, "X").read())

        done = spawn(deployment.scheduler, proc())
        deployment.run(until=100.0)
        assert done.result() == 0
        assert deployment.clients[0].retries >= 1
        assert deployment.pending_ops == 0

    def test_retry_and_deadline_cancelled_on_completion(self):
        deployment = make_deployment(
            6, 3, RetryPolicy(interval=5.0, jitter=0.0, deadline=50.0)
        )

        def proc():
            return (yield deployment.handle(0, "X").read())

        done = spawn(deployment.scheduler, proc())
        deployment.run()
        assert done.result() == 0
        assert deployment.clients[0].retries == 0
        # Both timers were cancelled: the run drained at the reply time
        # (t = 2), never advancing to the retry (5) or deadline (50).
        assert deployment.scheduler.now == 2.0
        assert deployment.scheduler.pending == 0


class TestDeadlines:
    def test_deadline_rejects_future_with_operation_timeout(self):
        deployment = make_deployment(
            4, 2, RetryPolicy(interval=1.0, jitter=0.0, deadline=10.0)
        )
        for index in range(4):
            deployment.crash_server(index)

        def proc():
            return (yield deployment.handle(0, "X").read())

        done = spawn(deployment.scheduler, proc())
        deployment.run(until=100.0)
        assert done.done and done.failed
        with pytest.raises(OperationTimeout):
            done.result()
        client = deployment.clients[0]
        assert client.timeouts == 1
        assert client.pending_ops == 0
        assert client.hung_ops == 0
        assert deployment.scheduler.now == pytest.approx(10.0)

    def test_operation_timeout_catchable_in_coroutine(self):
        deployment = make_deployment(
            4, 2, RetryPolicy(interval=1.0, jitter=0.0, deadline=8.0)
        )
        for index in range(4):
            deployment.crash_server(index)

        def proc():
            try:
                yield deployment.handle(0, "X").write(1)
            except OperationTimeout:
                return "timed out"
            return "completed"

        done = spawn(deployment.scheduler, proc())
        deployment.run(until=100.0)
        assert done.result() == "timed out"

    def test_no_deadline_means_pending_counts_as_hung(self):
        deployment = make_deployment(4, 2, RetryPolicy.fixed(5.0))
        for index in range(4):
            deployment.crash_server(index)

        def proc():
            yield deployment.handle(0, "X").read()

        spawn(deployment.scheduler, proc())
        deployment.run(until=50.0)
        assert deployment.pending_ops == 1
        assert deployment.hung_ops == 1


class TestFailureSchedule:
    def test_events_kept_time_sorted(self):
        schedule = FailureSchedule().recover(10.0, [1]).crash(5.0, [1])
        assert [event.time for event in schedule.events] == [5.0, 10.0]

    def test_spec_round_trip(self):
        schedule = (
            FailureSchedule()
            .crash(5.0, [1, 2])
            .partition(8.0, [[0, 1], [2, 3]])
            .heal(12.0)
            .recover_all(20.0)
        )
        specs = schedule.to_specs()
        assert FailureSchedule.from_specs(specs).to_specs() == specs

    def test_install_applies_crash_and_recover(self, scheduler):
        injector = FailureInjector()
        FailureSchedule().outage(5.0, [3], 4.0).install(scheduler, injector)
        scheduler.run(until=6.0)
        assert injector.is_crashed(3)
        scheduler.run(until=10.0)
        assert not injector.is_crashed(3)

    def test_partition_and_heal(self, scheduler):
        injector = FailureInjector()
        schedule = (
            FailureSchedule().partition(2.0, [[0, 1], [2, 3]]).heal(8.0)
        )
        schedule.install(scheduler, injector)
        scheduler.run(until=3.0)
        assert not injector.can_deliver(0, 2)
        assert injector.can_deliver(0, 1)
        assert injector.can_deliver(0, 9)  # ungrouped node unaffected
        scheduler.run(until=9.0)
        assert injector.can_deliver(0, 2)

    def test_resolve_maps_scripted_indices(self, scheduler):
        injector = FailureInjector()
        FailureSchedule().crash(1.0, [3]).install(
            scheduler, injector, resolve=lambda index: 100 + index
        )
        scheduler.run(until=2.0)
        assert injector.is_crashed(103)
        assert not injector.is_crashed(3)

    def test_repeating_events_fire_until_cancelled(self, scheduler):
        injector = FailureInjector()
        schedule = FailureSchedule(
            [
                FailureEvent(5.0, "crash", nodes=(0,), every=5.0),
                FailureEvent(7.5, "recover", nodes=(0,), every=5.0),
            ]
        )
        handles = schedule.install(scheduler, injector)
        for time, down in [(6.0, True), (8.0, False), (11.0, True),
                           (13.0, False)]:
            scheduler.run(until=time)
            assert injector.is_crashed(0) is down
        handles[0].cancel()  # stop the crash chain; recoveries continue
        scheduler.run(until=30.0)
        assert not injector.is_crashed(0)

    def test_churn_builder_rotates_windows(self):
        schedule = FailureSchedule.churn(
            num_nodes=6, period=10.0, batch=2, outage=3.0, horizon=35.0
        )
        crashes = [e for e in schedule.events if e.action == "crash"]
        recovers = [e for e in schedule.events if e.action == "recover"]
        assert [(e.time, e.nodes) for e in crashes] == [
            (10.0, (0, 1)), (20.0, (2, 3)), (30.0, (4, 5)),
        ]
        assert [e.time for e in recovers] == [13.0, 23.0, 33.0]

    def test_churn_period_zero_is_empty(self):
        assert len(FailureSchedule.churn(6, 0.0, 2, 3.0, 100.0)) == 0

    @settings(max_examples=80, deadline=None)
    @given(times=st.lists(
        st.sampled_from([0.0, 1.0, 2.5, 2.5, 4.0, 7.0]), max_size=30
    ))
    def test_add_keeps_ties_in_insertion_order(self, times):
        """add-built == a stable sort by time of the same events: equal
        times apply in the order they were added."""
        events = [
            FailureEvent(time, "crash", nodes=(index,))
            for index, time in enumerate(times)
        ]
        schedule = FailureSchedule()
        for event in events:
            schedule.add(event)
        assert schedule.events == sorted(events, key=lambda e: e.time)

    @pytest.mark.parametrize("build", [
        lambda: FailureSchedule.churn(7, 5.0, 2, 12.0, 200.0),
        lambda: FailureSchedule.churn(6, 10.0, 2, 3.0, 100.0),
        lambda: MembershipSchedule.churn(16, period=6.25, batch=2,
                                         horizon=400.0),
    ], ids=["overlapping-outages", "disjoint-outages", "membership"])
    def test_churn_builders_match_a_stable_sort(self, monkeypatch, build):
        """A builder's timeline is its events stable-sorted by time — the
        specs appending and re-sorting on every add produced."""
        added = []
        insert = Timeline.add

        def recording_add(timeline, event):
            added.append(event)
            return insert(timeline, event)

        monkeypatch.setattr(Timeline, "add", recording_add)
        schedule = build()
        assert len(added) == len(schedule) > 10
        assert schedule.to_specs() == [
            event.to_spec()
            for event in sorted(added, key=lambda event: event.time)
        ]

    @pytest.mark.parametrize(
        "spec",
        [
            {"time": 1.0},  # no action
            {"action": "crash"},  # no time
            {"time": -1.0, "action": "crash"},
            {"time": 1.0, "action": "explode"},
            {"time": 1.0, "action": "crash", "every": -2.0},
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ScheduleError):
            FailureEvent.from_spec(spec)


class TestMessageLoss:
    def test_lossy_network_drops_and_retries_recover(self):
        deployment = make_deployment(
            6, 3, RetryPolicy(interval=2.0, jitter=0.0, max_interval=8.0),
            seed=3, loss_rate=0.4,
        )

        def proc():
            for value in range(1, 11):
                yield deployment.handle(0, "X").write(value)
                yield deployment.handle(0, "X").read()
            return "done"

        done = spawn(deployment.scheduler, proc())
        deployment.run(until=2000.0)
        assert done.result() == "done"
        stats = deployment.network.stats
        assert stats.dropped_by_reason["loss"] > 0
        assert stats.dropped_by_reason["fault"] == 0
        assert 0.0 < stats.drop_rate() < 1.0

    def test_loss_is_deterministic_per_seed(self):
        def run(seed):
            deployment = make_deployment(
                6, 3, RetryPolicy(interval=2.0, max_interval=8.0),
                seed=seed, loss_rate=0.3,
            )

            def proc():
                for value in range(5):
                    yield deployment.handle(0, "X").write(value)

            spawn(deployment.scheduler, proc())
            deployment.run(until=500.0)
            stats = deployment.network.stats
            return stats.sent, stats.dropped

        assert run(17) == run(17)

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_invalid_loss_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            make_deployment(4, 2, None, loss_rate=rate)


class TestChurnSurvival:
    def test_ops_survive_mid_operation_crashes(self):
        deployment = make_deployment(
            6, 2,
            RetryPolicy(interval=1.5, max_interval=6.0, jitter=0.1),
            seed=21,
        )
        deployment.install_schedule(
            FailureSchedule.churn(
                num_nodes=6, period=8.0, batch=2, outage=4.0, horizon=400.0
            )
        )

        def proc():
            for value in range(1, 31):
                yield deployment.handle(0, "X").write(value)
                yield deployment.handle(0, "X").read()
            return "done"

        done = spawn(deployment.scheduler, proc())
        deployment.run(until=2000.0)
        assert done.result() == "done"
        # The rotating outages caught operations mid-flight: retries
        # routed around them, and nothing is left dangling.
        assert deployment.total_retries > 0
        assert deployment.pending_ops == 0


class TestZeroHungFutures:
    def test_scripted_outage_settles_every_future(self):
        # Acceptance run: a total outage long enough to force deadline
        # rejections, partial recovery (ops complete while failures are
        # still active), then full recovery.  Every invoked future must
        # settle — resolve or reject — leaving zero hung operations.
        deployment = make_deployment(
            6, 2,
            RetryPolicy(interval=1.0, backoff=2.0, max_interval=8.0,
                        jitter=0.1, deadline=15.0),
            num_clients=2, seed=13,
        )
        deployment.install_schedule(
            FailureSchedule()
            .crash(10.0, range(6))
            .recover(35.0, [0, 1])
            .recover_all(60.0)
        )
        futures = []

        def proc(client_id):
            outcomes = []
            for index in range(12):
                client = deployment.clients[client_id]
                if client_id == 0 and index % 2:
                    fut = client.write("X", index)
                else:
                    fut = client.read("X")
                futures.append(fut)
                try:
                    yield fut
                    outcomes.append("ok")
                except OperationTimeout:
                    outcomes.append("timeout")
            return outcomes

        done0 = spawn(deployment.scheduler, proc(0))
        done1 = spawn(deployment.scheduler, proc(1))
        deployment.run(until=1000.0)
        assert done0.done and done1.done
        assert all(fut.done for fut in futures)
        assert deployment.pending_ops == 0
        assert deployment.hung_ops == 0
        assert deployment.total_timeouts > 0
        assert "timeout" in done0.result() + done1.result()
        assert "ok" in done0.result() + done1.result()


class TestRunnerUnderFaults:
    def test_alg1_restarts_iterations_and_converges(self):
        # Full-stack acceptance: Alg. 1 under a scripted total outage.
        # Operation deadlines reject mid-flight ops, the runner restarts
        # the affected iterations, and after recovery the computation
        # still converges with zero hung futures.
        result = execute_task(
            RunTask(
                kind="alg1",
                params={
                    "graph": {"kind": "chain", "n": 4},
                    "quorum": {"kind": "probabilistic", "n": 6, "k": 2},
                    "delay": {"kind": "exponential", "mean": 1.0},
                    "monotone": True,
                    "max_rounds": 200,
                    "retry": {
                        "interval": 1.0,
                        "max_interval": 8.0,
                        "deadline": 10.0,
                    },
                    "max_sim_time": 600.0,
                    "faults": {
                        "kind": "schedule",
                        "events": [
                            {"time": 5.0, "action": "crash",
                             "nodes": [0, 1, 2, 3, 4, 5]},
                            {"time": 40.0, "action": "recover_all"},
                        ],
                    },
                },
                seed=9,
            )
        )
        assert result["converged"]
        assert result["timeouts"] > 0
        assert result["retries"] > 0
        assert result["hung_ops"] == 0


class TestRepeatingScheduleRetryOverlap:
    def test_repeating_outages_overlap_inflight_retry_windows(self):
        # Repeating crash/recover cycles (period 8: down for t in [2,6),
        # up for [6,10), ...) against a 3-second retry interval: retries
        # routinely fire while an outage installed *after* the op began
        # is active.  With k = n the quorum is always all four servers,
        # so every retry round must re-send only to the members still
        # unanswered — never re-spray the full quorum — and every op must
        # settle once its window heals.
        deployment = make_deployment(4, 4, RetryPolicy.fixed(3.0), seed=5)
        deployment.install_schedule(
            FailureSchedule(
                [
                    FailureEvent(2.0, "crash", nodes=(0, 1), every=8.0),
                    FailureEvent(6.0, "recover", nodes=(0, 1), every=8.0),
                ]
            )
        )
        results = []

        def proc():
            for _ in range(15):
                results.append((yield deployment.handle(0, "X").read()))
            return "done"

        done = spawn(deployment.scheduler, proc())
        deployment.run(until=400.0)
        assert done.result() == "done"
        assert results == [0] * 15
        client = deployment.clients[0]
        assert client.retries > 0
        assert client.pending_ops == 0
        assert deployment.hung_ops == 0
        # Re-targeting accounting: beyond the 4 first-attempt queries per
        # read, each retry round may only have re-sent to the (at most
        # two) crashed members that had not answered.
        queries = deployment.network.stats.by_kind["read_query"]
        assert 15 * 4 < queries <= 15 * 4 + 2 * client.retries

    def test_monitor_liveness_clean_under_repeating_churn(self):
        # Same overlap shape through the worker path with the online
        # monitor armed: repeated outages degrade (retries, timeouts) but
        # never hang an op or trip the liveness check.
        result = execute_task(
            RunTask(
                kind="alg1",
                params={
                    "graph": {"kind": "chain", "n": 4},
                    "quorum": {"kind": "probabilistic", "n": 6, "k": 2},
                    "delay": {"kind": "exponential", "mean": 1.0},
                    "monotone": True,
                    "max_rounds": 60,
                    "max_sim_time": 400.0,
                    "retry": {
                        "interval": 1.5,
                        "max_interval": 6.0,
                        "deadline": 12.0,
                    },
                    "check_spec_online": True,
                    "faults": {
                        "kind": "schedule",
                        "events": [
                            {"time": 3.0, "action": "crash",
                             "nodes": [0, 1, 2], "every": 9.0},
                            {"time": 7.0, "action": "recover",
                             "nodes": [0, 1, 2], "every": 9.0},
                        ],
                    },
                },
                seed=11,
            )
        )
        assert result["spec_violation"] is None
        assert result["hung_ops"] == 0
        assert result["retries"] > 0
        # The repeating entries fired more often than the two scripted
        # events — the injected-dose counters see every repetition.
        assert result["faults_injected"]["crashes"] > 3
        assert result["faults_injected"]["recoveries"] > 3
