"""Tests for dynamic membership: schedules, views, clients, give-up.

Covers the reconfiguration stack end to end — the plain-data
:class:`MembershipSchedule` vocabulary, the :class:`ViewManager`'s
join/leave/state-transfer machinery, view-aware client dispatch with
stale-view nacks, the bounded :class:`QuorumUnreachable` give-up, the
worker payload shape (membership keys appear only when asked for), ddmin
shrinking of membership timelines, service-mode churn, and the churn
sweep's claims (every operation settles, the monitor stays clean across
view boundaries, [R3] holds in every grown view), quick by default and
at their recorded scale under ``REPRO_FULL=1``.
"""

import pytest

from repro import specs
from repro.adversary import KINDS as ADVERSARY_KINDS
from repro.analysis.theory import theorem1_survival_bound
from repro.chaos.shrink import shrink_violation
from repro.exec.task import RunTask, execute_task
from repro.exec.workers import alg1_task
from repro.experiments.results import full_scale
from repro.membership import (
    MembershipError,
    MembershipEvent,
    MembershipSchedule,
)
from repro.membership.schedule import KINDS as MEMBERSHIP_KINDS
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.client import (
    OperationTimeout,
    QuorumUnreachable,
    RetryPolicy,
)
from repro.registers.deployment import RegisterDeployment
from repro.service import ServiceConfig, run_service
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import ExponentialDelay
from repro.sim.rng import RngRegistry, derive_seed
from tests.conftest import assert_as_printed

TINY_PARAMS = {
    "graph": {"kind": "chain", "n": 5},
    "quorum": {"kind": "probabilistic", "n": 6, "k": 2},
    "delay": {"kind": "constant", "mean": 1.0},
    "monotone": True,
    "max_rounds": 60,
}


def make_deployment(n=4, k=2, seed=11, **kwargs):
    kwargs.setdefault("delay_model", ExponentialDelay(1.0))
    kwargs.setdefault("record_history", False)
    return RegisterDeployment(
        ProbabilisticQuorumSystem(n, k), num_clients=1, seed=seed, **kwargs
    )


class TestSchedule:
    def test_event_validation(self):
        with pytest.raises(MembershipError):
            MembershipEvent(-1.0, "join", nodes=(4,))
        with pytest.raises(MembershipError):
            MembershipEvent(1.0, "promote", nodes=(4,))
        with pytest.raises(MembershipError):
            MembershipEvent(1.0, "join", nodes=())
        with pytest.raises(MembershipError):
            MembershipEvent(1.0, "leave", nodes=(-2,))

    def test_spec_roundtrip(self):
        schedule = (
            MembershipSchedule().join(5.0, [4, 5]).leave(9.0, [0])
        )
        again = MembershipSchedule.from_specs(schedule.to_specs())
        assert again.to_specs() == schedule.to_specs()
        assert len(again) == 2

    def test_events_stay_time_sorted(self):
        schedule = MembershipSchedule().leave(9.0, [0]).join(2.0, [4])
        assert [event.time for event in schedule.events] == [2.0, 9.0]

    def test_same_time_replace_keeps_join_first(self):
        schedule = MembershipSchedule().replace(6.0, joining=[4], leaving=[0])
        assert [event.action for event in schedule.events] == ["join", "leave"]

    def test_churn_rotates_constant_view_size(self):
        schedule = MembershipSchedule.churn(
            num_servers=4, period=10.0, batch=2, horizon=35.0
        )
        # Cycles at t=10, 20, 30: each a join+leave pair.
        assert len(schedule) == 6
        joins = [e for e in schedule.events if e.action == "join"]
        leaves = [e for e in schedule.events if e.action == "leave"]
        assert [e.nodes for e in joins] == [(4, 5), (6, 7), (8, 9)]
        assert [e.nodes for e in leaves] == [(0, 1), (2, 3), (4, 5)]

    def test_churn_bad_batch_rejected(self):
        with pytest.raises(MembershipError, match="batch"):
            MembershipSchedule.churn(
                num_servers=4, period=10.0, batch=5, horizon=50.0
            )

    def test_churn_zero_period_is_empty(self):
        assert len(MembershipSchedule.churn(4, 0.0, batch=1, horizon=100.0)) == 0

    def test_build_dispatches_on_kind(self):
        def build(spec):
            return specs.build(
                "membership", MEMBERSHIP_KINDS, spec,
                num_servers=4, horizon=25.0,
            )

        churned = build({"kind": "churn", "period": 10.0})
        assert len(churned) == 4
        explicit = build(
            {"kind": "schedule",
             "events": [{"time": 3.0, "action": "join", "nodes": [4]}]}
        )
        assert len(explicit) == 1
        with pytest.raises(specs.SpecError, match="kind"):
            build({})
        with pytest.raises(specs.SpecError, match="unknown"):
            build({"kind": "osmosis"})


class TestInstall:
    def test_empty_schedule_installs_nothing(self):
        deployment = make_deployment()
        manager = deployment.install_membership(MembershipSchedule())
        assert manager is None
        assert deployment.membership is None
        # The static fast path: servers never grew view state.
        assert deployment.servers[0].view_state is None

    def test_double_install_rejected(self):
        deployment = make_deployment()
        deployment.install_membership(MembershipSchedule().join(5.0, [4]))
        with pytest.raises(ValueError, match="already installed"):
            deployment.install_membership(MembershipSchedule().join(9.0, [5]))

    def test_bad_manager_knobs_rejected(self):
        schedule = MembershipSchedule().join(5.0, [4])
        with pytest.raises(ValueError, match="drain"):
            make_deployment().install_membership(schedule, drain=-1.0)
        with pytest.raises(ValueError, match="transfer_retry"):
            make_deployment().install_membership(schedule, transfer_retry=0.0)
        with pytest.raises(ValueError, match="transfer_max_attempts"):
            make_deployment().install_membership(
                schedule, transfer_max_attempts=0
            )


def run_chained_ops(deployment, ops=10, register="r"):
    """Issue ``ops`` alternating write/read operations back to back.

    Returns the list of read results, in completion order.
    """
    client = deployment.clients[0]
    reads = []
    state = {"issued": 0}

    def issue(done=None):
        if done is not None and not done.failed and done in read_futures:
            reads.append(done.result())
        n = state["issued"]
        if n >= ops:
            return
        state["issued"] = n + 1
        if n % 2 == 0:
            future = client.write(register, n)
        else:
            future = client.read(register)
            read_futures.add(future)
        future.add_callback(issue)

    read_futures = set()
    issue()
    deployment.run()
    return reads


class TestJoinAndRetire:
    def test_join_transfers_state_and_serves(self):
        deployment = make_deployment(seed=424)
        deployment.declare_register("r", writer=0)
        manager = deployment.install_membership(
            MembershipSchedule().join(6.0, [4]).leave(14.0, [0]), drain=4.0
        )
        reads = run_chained_ops(deployment)
        assert manager.view_sizes() == [[0, 4, 2], [1, 5, 2], [2, 4, 2]]
        assert manager.state_transfers_completed == 1
        assert manager.state_transfers_incomplete == 0
        assert deployment.pending_ops == 0
        assert deployment.hung_ops == 0
        # Regular register semantics survived the reconfiguration: each
        # read (issued after write k completed) returns that write.
        assert reads == [0, 2, 4, 6, 8]
        # The retired replica really retired.
        state = deployment.servers[0].view_state
        assert state.retired and not state.retiring
        # The joiner caught up via state transfer and then served reads.
        joiner = deployment.servers[4]
        assert joiner.reads_served + joiner.writes_applied > 0

    def test_noop_events_are_skipped_not_installed(self):
        deployment = make_deployment()
        deployment.declare_register("r", writer=0)
        # Joining an existing member and retiring a non-member are no-ops.
        manager = deployment.install_membership(
            MembershipSchedule().join(2.0, [1]).leave(4.0, [9])
        )
        run_chained_ops(deployment, ops=4)
        assert manager.views_installed == 0
        assert manager.events_skipped == 2
        assert manager.view_sizes() == [[0, 4, 2]]

    def test_last_member_never_retires(self):
        deployment = make_deployment()
        deployment.declare_register("r", writer=0)
        manager = deployment.install_membership(
            MembershipSchedule().leave(2.0, [0, 1, 2, 3])
        )
        run_chained_ops(deployment, ops=4)
        assert manager.views_installed == 0
        assert manager.events_skipped == 1
        assert deployment.hung_ops == 0

    def test_stale_client_nacked_then_refreshes(self):
        from repro.sim.delays import ConstantDelay

        deployment = make_deployment(seed=5, delay_model=ConstantDelay(1.0))
        deployment.declare_register("r", writer=0)
        client = deployment.clients[0]
        deployment.install_membership(
            MembershipSchedule().leave(10.0, [0]), drain=0.0
        )
        futures = []
        # Issued just before view 1 activates at t=10 and delivered just
        # after: the surviving members nack the view-0 stamp, the client
        # refreshes and re-dispatches under view 1, and the op completes.
        deployment.scheduler.schedule_at(
            9.5, lambda: futures.append(client.write("r", "fresh"))
        )
        deployment.run()
        assert futures and not futures[0].failed
        assert client.stale_nacks > 0
        assert client.view_refreshes > 0
        assert deployment.pending_ops == 0
        assert deployment.hung_ops == 0

    def test_monitor_sees_view_changes(self):
        payload = execute_task(RunTask(
            kind="alg1",
            params={
                **TINY_PARAMS,
                "max_sim_time": 200.0,
                "retry": {"interval": 1.0, "jitter": 0.0, "deadline": 30.0},
                "check_spec_online": True,
                "membership": {
                    "kind": "schedule",
                    "events": [
                        {"time": 4.0, "action": "join", "nodes": [6]},
                    ],
                },
            },
            seed=3,
        ))
        assert payload["spec_violation"] is None
        assert payload["membership"]["views_installed"] == 1
        assert payload["monitor"]["views_seen"] == 1


class TestQuorumUnreachable:
    """Satellite: bounded give-up instead of retrying forever."""

    def policy(self, **kwargs):
        kwargs.setdefault("interval", 2.0)
        kwargs.setdefault("jitter", 0.0)
        return RetryPolicy(**kwargs)

    def test_max_attempts_gives_up_with_structured_error(self):
        deployment = make_deployment(retry_policy=self.policy(max_attempts=3))
        deployment.declare_register("r", writer=0)
        for index in range(deployment.num_servers):
            deployment.crash_server(index)
        future = deployment.clients[0].write("r", 1)
        deployment.run()
        assert future.failed
        error = future.exception
        assert isinstance(error, QuorumUnreachable)
        assert isinstance(error, OperationTimeout)  # shed like a timeout
        assert (error.register, error.kind) == ("r", "write")
        assert error.attempts == 3
        assert deployment.total_unreachable == 1
        assert deployment.total_timeouts == 0
        assert deployment.pending_ops == 0

    def test_without_max_attempts_deadline_still_governs(self):
        deployment = make_deployment(retry_policy=self.policy(deadline=9.0))
        deployment.declare_register("r", writer=0)
        for index in range(deployment.num_servers):
            deployment.crash_server(index)
        future = deployment.clients[0].read("r")
        deployment.run()
        assert future.failed
        assert isinstance(future.exception, OperationTimeout)
        assert not isinstance(future.exception, QuorumUnreachable)
        assert deployment.total_timeouts == 1
        assert deployment.total_unreachable == 0

    def test_max_attempts_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(interval=1.0, max_attempts=0)

    def test_worker_payload_reports_unreachable(self):
        payload = execute_task(RunTask(
            kind="alg1",
            params={
                **TINY_PARAMS,
                "max_sim_time": 120.0,
                "retry": {"interval": 2.0, "jitter": 0.0, "max_attempts": 2},
                "faults": {
                    "kind": "schedule",
                    "events": [
                        {"time": 1.0, "action": "crash", "nodes": [n]}
                        for n in range(6)
                    ],
                },
            },
            seed=1,
        ))
        assert not payload["converged"]
        assert payload["unreachable"] > 0
        assert payload["timeouts"] == 0


class TestViewChangeRacer:
    def test_inert_on_static_deployment(self):
        adversary = specs.build("adversary", ADVERSARY_KINDS, 
            {"kind": "view_change_racer", "drop_budget": 20, "window": 5.0}
        )
        deployment = make_deployment(adversary=adversary)
        deployment.declare_register("r", writer=0)
        run_chained_ops(deployment, ops=6)
        assert adversary.views_raced == 0
        assert adversary.drops == 0
        assert adversary.messages_seen > 0

    def test_races_installs_under_membership(self):
        adversary = specs.build("adversary", ADVERSARY_KINDS, 
            {"kind": "view_change_racer", "drop_budget": 20, "window": 5.0}
        )
        deployment = make_deployment(
            seed=424,
            adversary=adversary,
            retry_policy=RetryPolicy(interval=4.0, jitter=0.0),
        )
        deployment.declare_register("r", writer=0)
        manager = deployment.install_membership(
            MembershipSchedule().join(6.0, [4]).leave(14.0, [0]), drain=4.0
        )
        run_chained_ops(deployment)
        assert adversary.views_raced == manager.views_installed > 0
        assert adversary.drops > 0
        assert deployment.hung_ops == 0


class TestWorkerPayloadShape:
    """Membership keys appear in payloads only for tasks that asked."""

    def test_static_task_payload_has_no_membership_keys(self):
        payload = execute_task(
            RunTask(kind="alg1", params=TINY_PARAMS, seed=17)
        )
        assert "membership" not in payload
        assert "unreachable" not in payload

    def test_membership_task_payload_carries_accounting(self):
        payload = execute_task(RunTask(
            kind="alg1",
            params={
                **TINY_PARAMS,
                "max_sim_time": 200.0,
                "retry": {"interval": 1.0, "jitter": 0.0, "deadline": 30.0},
                "membership": {"kind": "churn", "period": 8.0, "batch": 1},
            },
            seed=17,
        ))
        membership = payload["membership"]
        assert membership["views_installed"] > 0
        assert membership["state_transfers_incomplete"] == 0
        assert membership["views"][0] == [0, 6, 2]
        assert payload["unreachable"] == 0
        assert payload["hung_ops"] == 0

    def test_membership_run_is_deterministic(self):
        params = {
            **TINY_PARAMS,
            "max_sim_time": 200.0,
            "retry": {"interval": 1.0, "jitter": 0.0, "deadline": 30.0},
            "membership": {"kind": "churn", "period": 8.0, "batch": 1},
        }
        first = execute_task(RunTask(kind="alg1", params=params, seed=17))
        second = execute_task(RunTask(kind="alg1", params=params, seed=17))
        assert first == second


class TestShrinkMembership:
    def test_irrelevant_membership_is_shrunk_away(self):
        # The broken client violates with or without reconfiguration, so
        # ddmin must strip the membership timeline out of the repro.
        task = RunTask(
            kind="alg1",
            params={
                **TINY_PARAMS,
                "max_rounds": 10,
                "max_sim_time": 200.0,
                "retry": {"interval": 1.0, "jitter": 0.0, "deadline": 30.0},
                "check_spec_online": True,
                "broken_client": {"kind": "regressing", "after": 2},
                "membership": {
                    "kind": "schedule",
                    "events": [
                        {"time": 4.0, "action": "join", "nodes": [6]},
                        {"time": 9.0, "action": "leave", "nodes": [0]},
                    ],
                },
            },
            seed=11,
        )
        report = shrink_violation(task, max_runs=80)
        assert report["violation"]["condition"] == "R4"
        assert "membership" not in report["task"]["params"]
        assert any(
            "membership" in step for step in report["shrink"]["reductions"]
        )


class TestMustFailControl:
    def test_regressing_client_is_caught_across_views(self, kernel_backend):
        # The deliberately broken client selects replies through the
        # production client's own helper; once views have changed (so
        # the replies it mis-ranks carry view stamps > 0) the online
        # monitor must still fire, on either kernel backend.
        payload = execute_task(RunTask(
            kind="alg1",
            params={
                **TINY_PARAMS,
                "max_sim_time": 200.0,
                "retry": {"interval": 1.0, "jitter": 0.0, "deadline": 30.0},
                "check_spec_online": True,
                "broken_client": {"kind": "regressing", "after": 12},
                "membership": {"kind": "churn", "period": 2.0, "batch": 1},
            },
            seed=11,
        ))
        assert payload["spec_violation"]["condition"] == "R4"
        assert payload["membership"]["views_installed"] >= 2
        assert payload["monitor"]["views_seen"] >= 2


class TestServiceChurn:
    def _config(self, **overrides):
        defaults = dict(
            seed=3,
            duration=90.0,
            arrivals={"kind": "poisson", "rate": 2.0},
            membership={"kind": "churn", "period": 30.0, "batch": 1},
        )
        defaults.update(overrides)
        return ServiceConfig(**defaults)

    def test_churned_service_stays_clean_and_deterministic(self):
        first = run_service(self._config())
        second = run_service(self._config())
        assert first.membership is not None
        assert first.membership["views_installed"] > 0
        assert first.membership["state_transfers_incomplete"] == 0
        assert first.hung_ops == 0
        assert first.snapshot_bytes == second.snapshot_bytes
        assert "membership:" in first.slo_table()

    def test_two_phase_under_churn_stays_clean_and_deterministic(self):
        # Two-phase writes are ordinary pending ops: view-stamped, and
        # re-dispatched by a stale-view nack in whichever round it hits.
        first = run_service(self._config(write_mode="two_phase"))
        second = run_service(self._config(write_mode="two_phase"))
        assert first.membership["views_installed"] > 0
        assert first.completed > 0
        assert first.hung_ops == first.counters["in_flight"] == 0
        assert first.snapshot_bytes == second.snapshot_bytes

    def test_static_service_result_has_no_membership(self):
        result = run_service(self._config(membership=None, duration=40.0))
        assert result.membership is None
        assert "membership:" not in result.slo_table()


# --- the SLO degradation curve under churn, at the recorded scale ----------

#: Churn periods swept (None = static baseline), at the recorded scale
#: (REPRO_FULL=1, 300 t per point) and the quick one (120 t).  Batch 1
#: throughout, so the churn rate is simply 1/period replacements per t.
CHURN_PERIODS = (None, 100.0, 50.0, 25.0, 12.5, 6.25, 3.125)
QUICK_PERIODS = (None, 30.0, 15.0, 7.5, 3.75)

#: Offered load for the sweep: high enough that churn-induced retries
#: and stale-view round trips eat real headroom.
ARRIVAL_RATE = 8.0

#: The monitored Alg. 1 companion run lives ~25 simulated time units (it
#: stops at convergence), so its churn periods are the service periods
#: scaled by this factor — same sweep shape, matched to its lifetime.
CORRECTNESS_TIMESCALE = 0.25

#: Per-view [R3] Monte Carlo: trials per view and tolerated estimator
#: noise above the bound (3 sigma at p=0.5 with 3000 trials is ~0.027).
R3_TRIALS = 3_000
QUICK_R3_TRIALS = 1_200
R3_MAX_LAG = 8
R3_SLACK = 0.03
#: View-growth ladder: joins grow the view through these sizes (the
#: paper's n=10 up to the hundreds).
R3_SIZES = (10, 40, 120, 320)
R3_QUORUM = 8


#: EXPERIMENTS.md's "Measured SLO degradation curve" at the recorded
#: scale, as printed: period -> (churn rate, p50, p99, shed %, stale
#: nacks, views installed), latencies over all operations.
RECORDED_CURVE = {
    None: ("0.00", "3.58", "11.08", "0", 0, 0),
    100.0: ("0.01", "3.61", "11.53", "0", 66, 6),
    50.0: ("0.02", "3.61", "11.08", "0", 154, 12),
    25.0: ("0.04", "3.65", "11.53", "0", 391, 24),
    12.5: ("0.08", "3.76", "12.24", "0", 829, 48),
    6.25: ("0.16", "4.03", "13.53", "0", 1986, 96),
    3.125: ("0.32", "4.28", "16.04", "0.3", 3087, 192),
}
#: The knee the record reads off that table: the first churn rate whose
#: p99 exceeds 1.4x the static one, or that sheds more than 1%.
RECORDED_KNEE = "0.32"


def churn_periods():
    return CHURN_PERIODS if full_scale() else QUICK_PERIODS


def churn_service_config(period):
    return ServiceConfig(
        seed=0,
        duration=300.0 if full_scale() else 120.0,
        arrivals={"kind": "poisson", "rate": ARRIVAL_RATE},
        membership=(
            None if period is None
            else {"kind": "churn", "period": period, "batch": 1}
        ),
    )


class TestChurnCurve:
    def test_every_churn_rate_settles_every_operation(self):
        periods = churn_periods()
        assert sum(period is not None for period in periods) >= 4
        knee = None
        for period in periods:
            result = run_service(churn_service_config(period))
            membership = result.membership or {}
            if full_scale():
                self.assert_recorded(period, result, membership)
                if period is None:
                    static_p99 = result.quantile("all", 0.99)
                elif knee is None and (
                    result.quantile("all", 0.99) > 1.4 * static_p99
                    or result.shed_fraction > 0.01
                ):
                    knee = 1.0 / period
            assert result.hung_ops == 0, (
                f"churn period {period}: {result.hung_ops} hung ops — every "
                f"operation must settle (complete, timeout or unreachable)"
            )
            if period is None:
                assert membership.get("views_installed", 0) == 0
            else:
                assert membership["views_installed"] > 0, (
                    f"churn period {period} installed no views"
                )
                assert membership["state_transfers_incomplete"] == 0, (
                    f"churn period {period} left transfers incomplete"
                )
        # The heaviest churn point, re-run, is byte-identical.
        again = run_service(churn_service_config(periods[-1]))
        assert again.snapshot_bytes == result.snapshot_bytes, (
            "same-seed churn runs must produce byte-identical snapshots"
        )
        if full_scale():
            assert knee is not None
            assert_as_printed(knee, RECORDED_KNEE, "knee")

    @staticmethod
    def assert_recorded(period, result, membership):
        """One row of the recorded curve, figure for figure."""
        rate, p50, p99, shed, nacks, views = RECORDED_CURVE[period]
        assert_as_printed(
            0.0 if period is None else 1.0 / period, rate, f"{period} rate"
        )
        assert_as_printed(result.quantile("all", 0.5), p50, f"{period} p50")
        assert_as_printed(result.quantile("all", 0.99), p99, f"{period} p99")
        assert_as_printed(
            100.0 * result.shed_fraction, shed, f"{period} shed %"
        )
        assert membership.get("stale_nacks", 0) == nacks
        assert membership.get("views_installed", 0) == views
        assert result.timeouts == result.unreachable == 0

    def test_monitor_stays_clean_across_view_boundaries(self):
        # Service mode records no history, so the same sweep runs Alg. 1
        # on a monitored deployment: every read is checked against the
        # write history across view boundaries (the monitor does not
        # reset its per-process watermarks on a view change).
        for period in churn_periods():
            membership = None
            if period is not None:
                membership = {
                    "kind": "churn",
                    "period": round(period * CORRECTNESS_TIMESCALE, 3),
                    "batch": 1,
                    "start": 3.0,
                }
            # The seed labels here and in the [R3] sweep are those the
            # recorded numbers were drawn under.
            payload = execute_task(alg1_task(
                (0, "bench-membership-correctness"),
                graph={"kind": "chain", "n": 5},
                quorum={"kind": "probabilistic", "n": 8, "k": 3},
                delay={"kind": "exponential", "mean": 1.0},
                monotone=True,
                max_rounds=15,
                max_sim_time=120.0,
                retry={"interval": 1.0, "backoff": 2.0, "jitter": 0.1,
                       "deadline": 30.0},
                check_spec_online=True,
                membership=membership,
            ))
            assert payload.get("spec_violation") is None, (
                f"[R2]/[R4] violation under churn period {period}"
            )
            assert payload.get("hung_ops", 0) == 0
            if period is not None:
                assert (payload.get("monitor") or {}).get("views_seen", 0) > 0, (
                    "monitor never observed a view change — the cross-view "
                    "check did not actually run"
                )

    def test_r3_bound_holds_in_every_grown_view(self):
        """Grow a real deployment 10 -> 320 members; check [R3] per view.

        The views come from an actual reconfiguration (joins with state
        transfers), so the bound is checked for exactly the (n, k) pairs
        the deployment installed: per view, a write quorum and
        ``R3_MAX_LAG`` overwrite quorums from that view's own quorum
        system, against k*((n-k)/n)^ell.
        """
        trials = R3_TRIALS if full_scale() else QUICK_R3_TRIALS
        schedule = MembershipSchedule()
        time, lower = 5.0, R3_SIZES[0]
        for size in R3_SIZES[1:]:
            schedule.join(time, range(lower, size))
            time, lower = time + 5.0, size
        deployment = make_deployment(
            R3_SIZES[0], R3_QUORUM, seed=0, record_history=True
        )
        deployment.declare_register("X", writer=0, initial_value=0)
        deployment.install_membership(schedule)

        def writer():
            for value in range(1, 2 * len(R3_SIZES) + 1):
                yield deployment.handle(0, "X").write(value)
                yield Sleep(2.5)

        spawn(deployment.scheduler, writer(), label="writer")
        deployment.run()
        manager = deployment.membership
        assert manager is not None
        views = manager.view_sizes()
        assert len(views) >= len(R3_SIZES), "view-growth ladder too short"
        assert manager.state_transfers_incomplete == 0
        for view_id, n, k in views:
            system = ProbabilisticQuorumSystem(n, k)
            rng = RngRegistry(
                derive_seed(0, "bench-membership-r3", view_id)
            ).stream("survival")
            survivals = [0] * (R3_MAX_LAG + 1)
            for _ in range(trials):
                write_quorum = system.quorum(rng)
                overwritten = set()
                for ell in range(R3_MAX_LAG + 1):
                    if write_quorum - overwritten:
                        survivals[ell] += 1
                    overwritten |= system.quorum(rng)
            worst_excess = max(
                survivals[ell] / trials - theorem1_survival_bound(n, k, ell)
                for ell in range(R3_MAX_LAG + 1)
            )
            assert worst_excess <= R3_SLACK, (
                f"[R3] bound violated in view {view_id} (n={n}, k={k}): "
                f"excess {worst_excess:.5f}"
            )
