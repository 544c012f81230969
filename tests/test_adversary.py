"""Tests for the adaptive adversary layer (repro.adversary)."""

import pytest

from repro import specs
from repro.adversary import (
    Adversary,
    CrashTargeterAdversary,
    PartitionOscillatorAdversary,
    RandomHostileAdversary,
    KINDS,
    StaleFavoringAdversary,
)
from repro.core.monitor import OnlineSpecMonitor
from repro.core.spec import (
    check_r4_monotone_reads,
    staleness_distribution,
)
from repro.experiments.results import full_scale
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.client import OperationTimeout, RetryPolicy
from repro.registers.deployment import RegisterDeployment
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import ExponentialDelay
from repro.sim.scheduler import Scheduler
from tests.conftest import assert_as_printed


def make_deployment(adversary=None, n=12, k=4, num_clients=3, seed=2,
                    monotone=False, spec_monitor=None):
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(n, k),
        num_clients=num_clients,
        delay_model=ExponentialDelay(1.0),
        monotone=monotone,
        seed=seed,
        # The deadline arms a settlement path for every op, so hung_ops
        # stays a real invariant even when a run is cut off mid-retry.
        retry_policy=RetryPolicy(
            interval=2.0, backoff=1.5, jitter=0.1, max_interval=8.0,
            deadline=30.0,
        ),
        adversary=adversary,
        spec_monitor=spec_monitor,
    )
    deployment.declare_register("X", writer=0, initial_value=0)
    return deployment


def run_workload(deployment, writes=40, horizon=None):
    def writer():
        for value in range(1, writes + 1):
            try:
                yield deployment.handle(0, "X").write(value)
            except OperationTimeout:
                pass
            yield Sleep(0.5)

    def reader(client_id):
        for _ in range(writes):
            try:
                yield deployment.handle(client_id, "X").read()
            except OperationTimeout:
                pass
            yield Sleep(0.5)

    spawn(deployment.scheduler, writer(), label="writer")
    for client_id in range(1, len(deployment.clients)):
        spawn(deployment.scheduler, reader(client_id),
              label=f"reader-{client_id}")
    deployment.run(until=horizon)


#: Equal interference budget for both hostile regimes of the adaptivity
#: comparison.  Both strategies spend it in full (the workload offers far
#: more reply traffic than budget), so it holds actual drops equal.
DROP_BUDGET = 200

#: EXPERIMENTS.md's mean read staleness, as printed, by writes per run
#: (120 at the recorded scale, 80 in tier-1): none, random_hostile,
#: stale_favoring.
RECORDED_STALENESS = {
    120: ("0.050", "0.0563", "0.0813"),
    80: ("0.050", "0.0625", "0.0688"),
}


def staleness_run(adversary_spec, num_writes):
    """One writer and four readers on n=12, k=4 (seed 7) under an
    adversary built from its spec (or none): mean read staleness, the
    adversary's drops and the hung ops.  Dropped replies are
    recoverable: retries resample quorums until the budget runs dry."""
    adversary = (
        specs.build("adversary", KINDS, adversary_spec)
        if adversary_spec is not None else None
    )
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(12, 4),
        num_clients=5,
        delay_model=ExponentialDelay(1.0),
        seed=7,
        retry_policy=RetryPolicy(
            interval=2.0, backoff=1.5, jitter=0.1, max_interval=8.0
        ),
        adversary=adversary,
    )
    deployment.declare_register("X", writer=0, initial_value=0)

    def writer():
        for value in range(1, num_writes + 1):
            yield deployment.handle(0, "X").write(value)
            yield Sleep(0.5)

    def reader(client_id):
        for _ in range(num_writes):
            yield deployment.handle(client_id, "X").read()
            yield Sleep(0.5)

    spawn(deployment.scheduler, writer(), label="writer")
    for index in range(1, 5):
        spawn(deployment.scheduler, reader(index), label=f"reader-{index}")
    deployment.run()
    staleness = staleness_distribution(deployment.space.history("X"))
    return {
        "mean_staleness": (
            sum(lag * n for lag, n in staleness.items())
            / sum(staleness.values())
        ),
        "drops": adversary.drops if adversary is not None else 0,
        "hung_ops": deployment.hung_ops,
    }


class TestFactory:
    def test_builds_every_strategy(self):
        cases = [
            {"kind": "stale_favoring", "drop_budget": 5},
            {"kind": "random_hostile", "drop_budget": 5, "drop_rate": 0.1},
            {"kind": "partition_oscillator", "duty": 0.4},
            {"kind": "crash_targeter", "k": 2, "period": 3.0},
        ]
        kinds = [
            type(specs.build("adversary", KINDS, spec)).name for spec in cases
        ]
        assert kinds == [
            "stale_favoring", "random_hostile",
            "partition_oscillator", "crash_targeter",
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="adversary spec: unknown kind 'nope'"):
            specs.build("adversary", KINDS, {"kind": "nope"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="'kind'"):
            specs.build("adversary", KINDS, {"drop_budget": 5})

    def test_horizon_injected_into_time_driven_strategies(self):
        oscillator = specs.build("adversary", KINDS, 
            {"kind": "partition_oscillator"}, horizon=50.0
        )
        targeter = specs.build("adversary", KINDS, {"kind": "crash_targeter"}, horizon=50.0)
        dropper = specs.build("adversary", KINDS, 
            {"kind": "stale_favoring"}, horizon=50.0
        )
        assert oscillator.horizon == 50.0
        assert targeter.horizon == 50.0
        assert not hasattr(dropper, "horizon")

    def test_explicit_horizon_wins(self):
        targeter = specs.build("adversary", KINDS, 
            {"kind": "crash_targeter", "horizon": 10.0}, horizon=50.0
        )
        assert targeter.horizon == 10.0

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "stale_favoring", "drop_budget": -1},
            {"kind": "random_hostile", "drop_rate": 1.5},
            {"kind": "partition_oscillator", "duty": 0.0},
            {"kind": "crash_targeter", "k": 0},
            {"kind": "crash_targeter", "period": 0.0},
        ],
    )
    def test_bad_knobs_rejected(self, spec):
        with pytest.raises(ValueError):
            specs.build("adversary", KINDS, spec)


class TestStaleFavoring:
    def test_tracks_freshest_holders_and_spends_budget(self):
        adversary = StaleFavoringAdversary(drop_budget=30)
        deployment = make_deployment(adversary)
        run_workload(deployment)
        assert adversary.drops == 30  # budget fully spent, never exceeded
        assert adversary.freshest_holders("X")  # learned protocol state
        # Adversary drops are attributed in the network accounting.
        stats = deployment.network.stats
        assert stats.dropped_by_reason["adversary"] == 30
        assert deployment.hung_ops == 0

    def test_rng_stream_is_derived_from_deployment(self):
        adversary = RandomHostileAdversary(drop_budget=10, drop_rate=0.5)
        assert adversary.rng is None
        make_deployment(adversary)
        assert adversary.rng is not None

    def test_runs_are_deterministic_per_seed(self):
        def fingerprint(seed):
            adversary = StaleFavoringAdversary(drop_budget=25)
            deployment = make_deployment(adversary, seed=seed)
            run_workload(deployment)
            stats = deployment.network.stats
            return (stats.sent, stats.delivered, stats.dropped,
                    adversary.summary())

        assert fingerprint(5) == fingerprint(5)
        assert fingerprint(5) != fingerprint(6)

    def test_adaptivity_beats_oblivious_at_equal_budget(self):
        # The measured value of adaptivity: at an equal (fully spent) drop
        # budget, dropping exactly the read replies that carry the freshest
        # timestamp keeps old writes alive longer than dropping by coin
        # flip, measured as mean read staleness.  Adversaries degrade
        # freshness, not liveness: every regime ends with zero hung ops.
        writes = 120 if full_scale() else 80
        none = staleness_run(None, writes)
        oblivious = staleness_run(
            {"kind": "random_hostile", "drop_budget": DROP_BUDGET,
             "drop_rate": 0.25},
            writes,
        )
        adaptive = staleness_run(
            {"kind": "stale_favoring", "drop_budget": DROP_BUDGET}, writes
        )
        assert adaptive["mean_staleness"] > oblivious["mean_staleness"], (
            f"adaptive {adaptive['mean_staleness']:.4f} <= "
            f"oblivious {oblivious['mean_staleness']:.4f}"
        )
        assert adaptive["mean_staleness"] > none["mean_staleness"]
        assert adaptive["drops"] == oblivious["drops"] == DROP_BUDGET
        for result in (none, oblivious, adaptive):
            assert result["hung_ops"] == 0
        for result, printed, regime in zip(
            (none, oblivious, adaptive), RECORDED_STALENESS[writes],
            ("none", "random_hostile", "stale_favoring"),
        ):
            assert_as_printed(result["mean_staleness"], printed, regime)


class TestPartitionOscillator:
    def test_period_derived_from_retry_policy(self):
        adversary = PartitionOscillatorAdversary(horizon=40.0)
        deployment = make_deployment(adversary)
        assert adversary.period == 2.0 * deployment.retry_policy.interval

    def test_oscillates_and_heals(self):
        adversary = PartitionOscillatorAdversary(
            period=5.0, duty=0.5, horizon=60.0
        )
        deployment = make_deployment(adversary)
        run_workload(deployment, writes=30, horizon=200.0)
        injector = deployment.failures
        assert adversary.partitions >= 2
        assert injector.partitions_installed == adversary.partitions
        assert injector.heals == injector.partitions_installed
        assert deployment.hung_ops == 0


class TestCrashTargeter:
    def test_strikes_freshest_holders_within_budget(self):
        adversary = CrashTargeterAdversary(k=2, period=6.0, horizon=60.0)
        deployment = make_deployment(adversary)
        run_workload(deployment, writes=30, horizon=200.0)
        injector = deployment.failures
        assert adversary.crashes > 0
        assert injector.crashes_injected == adversary.crashes
        # Victims are recovered before the next strike: never more than
        # k of the adversary's targets down at once.
        assert sum(map(injector.is_crashed, deployment.server_ids)) <= 2
        assert deployment.hung_ops == 0


class TestSpecUnderAdversaries:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "stale_favoring", "drop_budget": 40},
            {"kind": "random_hostile", "drop_budget": 40, "drop_rate": 0.3},
            {"kind": "partition_oscillator", "period": 5.0, "duty": 0.5,
             "horizon": 60.0},
            {"kind": "crash_targeter", "k": 2, "period": 6.0,
             "horizon": 60.0},
        ],
        ids=lambda spec: spec["kind"],
    )
    def test_monotone_client_satisfies_r4_under_every_strategy(self, spec):
        # [R4]/[R5]: whatever the adversary does, the Section 6.2
        # monotone client never shows a reader going back in time — both
        # online (monitor aborts the run on regression) and post hoc.
        monitor = OnlineSpecMonitor(monotone=True, max_attempts=200)
        deployment = make_deployment(
            specs.build("adversary", KINDS, spec), monotone=True, spec_monitor=monitor,
        )
        run_workload(deployment, writes=30, horizon=300.0)
        check_r4_monotone_reads(deployment.space.history("X"))
        assert monitor.reads_checked > 0


class TestBaseClass:
    def test_default_intercept_passes_everything(self):
        adversary = Adversary()
        assert adversary.intercept(0, 1, object(), "read_reply", 0.0) is None
        assert adversary.summary()["name"] == "oblivious"

    def test_attach_requires_deployment_rng(self):
        adversary = StaleFavoringAdversary()
        deployment = make_deployment(adversary)
        stream = deployment.rng.stream("adversary/stale_favoring")
        assert adversary.rng is stream


class TestRepeatingUntil:
    def test_schedule_repeating_stops_at_horizon(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_repeating(
            2.0, lambda: fired.append(scheduler.now), until=7.0
        )
        scheduler.run()
        assert fired == [2.0, 4.0, 6.0]
        assert scheduler.pending == 0

    def test_schedule_repeating_without_horizon_unchanged(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_repeating(2.0, lambda: fired.append(scheduler.now))
        scheduler.run(until=7.0)
        assert fired == [2.0, 4.0, 6.0]
        assert scheduler.pending == 1  # chain still alive

    def test_first_delay_past_horizon_never_fires(self):
        scheduler = Scheduler()
        fired = []
        handle = scheduler.schedule_repeating(
            5.0, lambda: fired.append(scheduler.now),
            first_delay=10.0, until=7.0,
        )
        scheduler.run()
        assert fired == []
        assert handle.cancelled
