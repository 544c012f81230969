"""Post-run collection: existing simulation counters → registry instruments.

The simulation kernel already counts everything the paper measures —
``MessageStats`` on the network, ``events_processed``/``pending`` on the
scheduler, per-server and per-client counters on the register layer.
These collectors read those counters *after* a run and populate a
:class:`~repro.obs.registry.MetricsRegistry`, which keeps the per-message
hot path free of any metrics call: enabling observability costs one pass
over already-maintained integers.  Each count is read from its one
record: the network's scalar ``MessageStats`` totals, the runner's
``Alg1Result``, the campaign's ``degradation`` tally.

Everything here is duck-typed on the objects' public counters, so this
module imports nothing from the simulation stack and can never create an
import cycle.
"""

from typing import Any


def collect_deployment(metrics: Any, deployment: Any) -> None:
    """Everything a :class:`RegisterDeployment` counts, in one pass.

    Message totals (the :class:`~repro.sim.metrics.MessageStats` scalars),
    scheduler throughput and end-of-run queue state, per-server replica
    counters (indexed by server *position*, stable across runs), and
    client-side operation / fault-tolerance aggregates.
    """
    stats = deployment.network.stats
    metrics.counter(
        "repro_messages_sent_total", "Messages sent on the simulated network."
    ).inc(stats.sent)
    metrics.counter(
        "repro_messages_delivered_total", "Messages delivered to a node."
    ).inc(stats.delivered)
    metrics.counter(
        "repro_messages_dropped_total",
        "Messages destroyed by crashes, partitions or lossy links.",
    ).inc(stats.dropped)
    scheduler = deployment.scheduler
    metrics.counter(
        "repro_scheduler_events_total",
        "Events executed by the discrete-event scheduler.",
    ).inc(scheduler.events_processed)
    metrics.gauge(
        "repro_scheduler_queue_depth",
        "Non-cancelled events still queued at collection time.",
    ).set(scheduler.pending)
    metrics.gauge(
        "repro_sim_time", "Simulated clock at collection time."
    ).set(scheduler.now)

    reads_served = metrics.counter(
        "repro_server_reads_served_total",
        "ReadQuery messages answered, per replica server.",
        labelnames=("server",),
    )
    writes_applied = metrics.counter(
        "repro_server_writes_applied_total",
        "WriteUpdate messages that installed a newer value, per server.",
        labelnames=("server",),
    )
    stale_updates = metrics.counter(
        "repro_server_stale_updates_total",
        "WriteUpdate messages ignored as stale (reordering), per server.",
        labelnames=("server",),
    )
    unknown_messages = metrics.counter(
        "repro_server_unknown_messages_total",
        "Messages of unknown kind silently dropped, per server.",
        labelnames=("server",),
    )
    for index, server in enumerate(deployment.servers):
        counters = server.metric_counters()
        reads_served.labels(index).inc(counters["reads_served"])
        writes_applied.labels(index).inc(counters["writes_applied"])
        stale_updates.labels(index).inc(counters["stale_updates_ignored"])
        unknown_messages.labels(index).inc(counters["unknown_messages_ignored"])

    ops = metrics.counter(
        "repro_ops_invoked_total",
        "Register operations invoked across all clients, by kind.",
        labelnames=("kind",),
    )
    ops.labels("read").inc(sum(c.reads_performed for c in deployment.clients))
    ops.labels("write").inc(
        sum(c.writes_performed for c in deployment.clients)
    )
    metrics.counter(
        "repro_ops_completed_total", "Operations that settled successfully."
    ).inc(sum(c.ops_completed for c in deployment.clients))
    metrics.counter(
        "repro_op_retries_total",
        "Quorum resamples by the retry/backoff layer.",
    ).inc(deployment.total_retries)
    metrics.counter(
        "repro_op_timeouts_total",
        "Operations rejected with OperationTimeout.",
    ).inc(deployment.total_timeouts)
    metrics.counter(
        "repro_ops_under_failure_total",
        "Operations completed while a crash or partition was active.",
    ).inc(deployment.total_ops_under_failure)
    metrics.counter(
        "repro_monotone_cache_hits_total",
        "Reads answered from the Section 6.2 monotone cache.",
    ).inc(sum(c.cache_hits for c in deployment.clients))
    metrics.gauge(
        "repro_ops_pending", "Operations still in flight at collection time."
    ).set(deployment.pending_ops)

    # Dynamic membership families exist only when a view manager is
    # installed, so metric exports of static deployments keep their
    # exact pre-membership shape (pooled/serial byte-equality included).
    membership = getattr(deployment, "membership", None)
    if membership is not None:
        events = metrics.counter(
            "repro_membership_events_total",
            "View-manager activity (installs, joins, transfers), by kind.",
            labelnames=("kind",),
        )
        for kind, count in sorted(membership.metric_counters().items()):
            events.labels(kind).inc(count)
        metrics.counter(
            "repro_membership_stale_nacks_total",
            "StaleViewNack replies received across all clients.",
        ).inc(deployment.total_stale_nacks)
        metrics.counter(
            "repro_membership_view_refreshes_total",
            "Client view refreshes (nack-, reply- or retry-triggered).",
        ).inc(deployment.total_view_refreshes)
        metrics.counter(
            "repro_ops_unreachable_total",
            "Operations abandoned with QuorumUnreachable.",
        ).inc(deployment.total_unreachable)
        metrics.gauge(
            "repro_membership_view_id",
            "Current view id at collection time.",
        ).set(membership.current_view.view_id)


def collect_chaos(metrics: Any, result: Any) -> None:
    """Campaign-level accounting for a chaos run (repro.chaos.campaign).

    Duck-typed on :class:`~repro.chaos.campaign.CampaignResult`: per-run
    pass/fail totals plus its ``degradation`` tally (retries, timeouts,
    message drops, hung operations) and the fault dose actually injected,
    so a chaos campaign exports through the same ``--metrics-out``
    pipeline as every other experiment.
    """
    metrics.counter(
        "repro_chaos_runs_total", "Chaos campaign runs executed."
    ).inc(len(result.records))
    metrics.counter(
        "repro_chaos_violations_total",
        "Chaos runs that raised a SpecViolation.",
    ).inc(len(result.violations))
    degradation = metrics.counter(
        "repro_chaos_degradation_total",
        "Aggregate degradation observed across the campaign, by kind.",
        labelnames=("kind",),
    )
    for kind, total in result.degradation.items():
        degradation.labels(kind).inc(total)
    dose = metrics.counter(
        "repro_chaos_faults_injected_total",
        "Faults actually injected across the campaign, by kind.",
        labelnames=("kind",),
    )
    totals: dict = {}
    for record in result.records:
        for kind, count in (record.get("faults_injected") or {}).items():
            totals[kind] = totals.get(kind, 0) + int(count)
    for kind in sorted(totals):
        dose.labels(kind).inc(totals[kind])


def collect_alg1(metrics: Any, runner: Any, result: Any) -> None:
    """Alg. 1 run-level accounting on top of the deployment collection."""
    collect_deployment(metrics, runner.deployment)
    metrics.counter(
        "repro_alg1_runs_total", "Alg. 1 executions collected."
    ).inc(1)
    metrics.counter(
        "repro_alg1_runs_converged_total",
        "Alg. 1 executions that reached the fixed point.",
    ).inc(1 if result.converged else 0)
    metrics.counter(
        "repro_alg1_rounds_total",
        "Completed rounds (every process finished an iteration) — the "
        "pseudocycle-progress measure compared against Corollary 7.",
    ).inc(result.rounds_completed)
    metrics.counter(
        "repro_alg1_iterations_total",
        "Process loop iterations across all processes.",
    ).inc(result.total_iterations)
    metrics.counter(
        "repro_alg1_regressions_total",
        "Convergence-monitor regressions (non-monotone observable state).",
    ).inc(result.regressions)
