"""Worker functions executed by the engine, plus the spec vocabulary.

Most experiments run the same shape of work — Alg. 1 on an APSP instance
over some quorum system with some delay model, possibly under fault
injection — so they share one generic worker, :func:`run_alg1_task`,
parameterised by small JSON "spec" dicts::

    graph:  {"kind": "chain", "n": 12}
            {"kind": "ring" | "complete", "n": ...}
            {"kind": "grid", "rows": r, "cols": c}
            {"kind": "random", "n": ..., "p": ..., "seed": ...}
    quorum: {"kind": "probabilistic", "n": ..., "k": ...}
            {"kind": "majority", "n": ...}
            {"kind": "grid", "rows": r, "cols": c}
            {"kind": "grid_square", "n": ...}
    delay:  {"kind": "constant" | "exponential", "mean": ...}
            {"kind": "uniform", "low": ..., "high": ...}
            {"kind": "lognormal", "mean": ..., "sigma": ...}
    faults: {"kind": "crash_batch", "time": t, "count": c, "side": s}
            {"kind": "churn", "period": p, "batch": b, "outage": d}
            {"kind": "schedule", "events": [{"time": t, "action": a,
                                             "nodes": [...], ...}, ...]}
    retry:  {"interval": i, "backoff": b, "max_interval": m,
             "jitter": j, "deadline": d, "max_attempts": a}
            (all but interval optional)
    membership: {"kind": "churn", "period": p, "batch": b}
            {"kind": "schedule", "events": [{"time": t,
                 "action": "join" | "leave", "nodes": [...]}, ...]}
            (either form takes optional "drain", "transfer_retry",
             "transfer_max_attempts" knobs)

plus the scalar param ``loss_rate`` (probabilistic message loss).  Fault
and membership specs address servers by *index*; the deployment maps
them to network node ids at install time.

Specs are plain data so tasks stay picklable and cache-keyable; workers
return plain dicts for the same reason.

The producer side lives here too: :func:`alg1_task` is the only place
that spells the ``alg1`` params dict, and :func:`run_cells` the only fold
from the engine's flat result list back to a cells × runs grid.
"""

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.adversary import build_adversary
from repro.apps.apsp import ApspACO
from repro.apps.graphs import (
    Graph,
    chain_graph,
    complete_graph,
    grid_graph,
    random_graph,
    ring_graph,
)
from repro.core.monitor import OnlineSpecMonitor
from repro.core.spec import SpecViolation
from repro.exec.cache import RunCache
from repro.exec.engine import run_many
from repro.exec.task import RunTask
from repro.iterative.runner import Alg1Runner
from repro.obs import runtime as obs_runtime
from repro.obs.core import Observability
from repro.registers.client import RetryPolicy
from repro.sim.failures import FailureSchedule
from repro.quorum.base import QuorumSystem
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.sim.delays import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    LogNormalDelay,
    UniformDelay,
)
from repro.sim.rng import RngRegistry, derive_seed


class SpecError(ValueError):
    """Raised on a malformed or unknown spec dict."""


#: The params :func:`run_alg1_task` reads beyond the five required ones.
_OPTIONAL_PARAMS = frozenset({
    "retry", "loss_rate", "max_sim_time", "faults", "membership",
    "adversary", "check_spec_online", "broken_client",
    "measure_pseudocycles",
})


def alg1_task(
    seed_path: Sequence[Any],
    *,
    graph: Dict[str, Any],
    quorum: Dict[str, Any],
    delay: Dict[str, Any],
    monotone: bool,
    max_rounds: int,
    **optional: Any,
) -> RunTask:
    """The one producer of ``alg1`` tasks (consumed by :func:`run_alg1_task`).

    ``seed_path`` is ``(base seed, *cell coordinates)``, hashed by
    :func:`repro.sim.rng.derive_seed`.  An optional param passed as None
    stays *absent* from the params, so a task's cache key does not depend
    on which knobs its experiment happens to know about.
    """
    unknown = set(optional) - _OPTIONAL_PARAMS
    if unknown:
        raise SpecError(f"unknown alg1 params: {sorted(unknown)}")
    params = {
        "graph": graph,
        "quorum": quorum,
        "delay": delay,
        "monotone": monotone,
        "max_rounds": max_rounds,
    }
    params.update(
        (key, value) for key, value in optional.items() if value is not None
    )
    return RunTask(kind="alg1", params=params, seed=derive_seed(*seed_path))


MakeTask = Callable[[Any, int], RunTask]


def cell_tasks(
    cells: Sequence[Hashable], runs: int, make_task: MakeTask
) -> List[RunTask]:
    """A sweep as a flat task list: ``make_task(cell, run)``, cell-major."""
    return [make_task(cell, run) for cell in cells for run in range(runs)]


def run_cells(
    cells: Sequence[Hashable],
    runs: int,
    make_task: MakeTask,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> Dict[Any, List[Any]]:
    """Run a cells × runs sweep; returns ``{cell: [result per run]}``.

    The one fold from the engine's flat, task-ordered result list back to
    the grid; the dict iterates in ``cells`` order.
    """
    cells = list(cells)
    results = run_many(cell_tasks(cells, runs, make_task), jobs=jobs, cache=cache)
    by_cell = {
        cell: results[index * runs:(index + 1) * runs]
        for index, cell in enumerate(cells)
    }
    if len(by_cell) != len(cells):
        raise ValueError(f"sweep cells must be distinct: {cells!r}")
    return by_cell


def _kind(spec: Dict[str, Any], what: str) -> str:
    try:
        return spec["kind"]
    except (TypeError, KeyError):
        raise SpecError(f"{what} spec must be a dict with a 'kind': {spec!r}")


def build_graph(spec: Dict[str, Any]) -> Graph:
    """Instantiate a graph from its spec."""
    kind = _kind(spec, "graph")
    if kind == "chain":
        return chain_graph(spec["n"])
    if kind == "ring":
        return ring_graph(spec["n"])
    if kind == "complete":
        return complete_graph(spec["n"])
    if kind == "grid":
        return grid_graph(spec["rows"], spec["cols"])
    if kind == "random":
        rng = RngRegistry(spec["seed"]).stream("random-graph")
        return random_graph(spec["n"], spec["p"], rng)
    raise SpecError(f"unknown graph kind {kind!r}")


def build_quorum(spec: Dict[str, Any]) -> QuorumSystem:
    """Instantiate a quorum system from its spec."""
    kind = _kind(spec, "quorum")
    if kind == "probabilistic":
        return ProbabilisticQuorumSystem(spec["n"], spec["k"])
    if kind == "majority":
        return MajorityQuorumSystem(spec["n"])
    if kind == "grid":
        return GridQuorumSystem(spec["rows"], spec["cols"])
    if kind == "grid_square":
        return GridQuorumSystem.square(spec["n"])
    raise SpecError(f"unknown quorum kind {kind!r}")


def build_delay(spec: Dict[str, Any]) -> DelayModel:
    """Instantiate a delay model from its spec."""
    kind = _kind(spec, "delay")
    if kind == "constant":
        return ConstantDelay(spec["mean"])
    if kind == "exponential":
        return ExponentialDelay(spec["mean"])
    if kind == "uniform":
        return UniformDelay(spec["low"], spec["high"])
    if kind == "lognormal":
        return LogNormalDelay(spec["mean"], sigma=spec["sigma"])
    raise SpecError(f"unknown delay kind {kind!r}")


def build_retry_policy(
    spec: Optional[Dict[str, Any]]
) -> Optional[RetryPolicy]:
    """Instantiate a retry policy from its (flat, kind-less) spec."""
    if spec is None:
        return None
    try:
        interval = spec["interval"]
    except (TypeError, KeyError):
        raise SpecError(
            f"retry spec must be a dict with an 'interval': {spec!r}"
        ) from None
    unknown = set(spec) - {
        "interval", "backoff", "max_interval", "jitter", "deadline",
        "max_attempts",
    }
    if unknown:
        raise SpecError(f"unknown retry spec keys: {sorted(unknown)}")
    try:
        return RetryPolicy(
            interval=interval,
            backoff=spec.get("backoff", 2.0),
            max_interval=spec.get("max_interval"),
            jitter=spec.get("jitter", 0.1),
            deadline=spec.get("deadline"),
            max_attempts=spec.get("max_attempts"),
        )
    except ValueError as error:
        raise SpecError(f"bad retry spec: {error}") from None


def build_failure_schedule(
    spec: Dict[str, Any], num_servers: int, horizon: float
) -> FailureSchedule:
    """Turn a faults spec into a scripted FailureSchedule.

    ``crash_batch`` and ``churn`` are canned timelines (the E-FAULT and
    E-EXT-CHURN shapes); ``schedule`` passes an explicit event list
    through, for arbitrary crash/recover/partition/heal scripts.
    """
    kind = _kind(spec, "faults")

    if kind == "crash_batch":
        # One batch at a fixed time, one-per-grid-row first (the strict
        # grid's worst case) — the E-FAULT schedule.  An optional
        # ``recover_time`` scripts the batch coming back up.
        side = spec["side"]
        servers = [
            ((index % side) * side + index // side) % num_servers
            for index in range(spec["count"])
        ]
        schedule = FailureSchedule().crash(spec["time"], servers)
        if spec.get("recover_time") is not None:
            schedule.recover(spec["recover_time"], servers)
        return schedule

    if kind == "churn":
        # A rotating window of ``batch`` servers goes down every
        # ``period`` for ``outage`` time units — the E-EXT-CHURN schedule,
        # expanded into an explicit timeline up to the run's time horizon.
        return FailureSchedule.churn(
            num_nodes=num_servers,
            period=spec["period"],
            batch=spec["batch"],
            outage=spec["outage"],
            horizon=horizon,
        )

    if kind == "schedule":
        return FailureSchedule.from_specs(spec["events"])

    raise SpecError(f"unknown faults kind {kind!r}")


def install_faults(runner: Alg1Runner, spec: Optional[Dict[str, Any]]) -> None:
    """Attach a fault-injection timeline to a runner before it starts."""
    if spec is None:
        return
    deployment = runner.deployment
    horizon = runner.max_sim_time
    if horizon is None:
        # No explicit cap: bound periodic timelines by the round budget's
        # generous default so schedule expansion stays finite.
        horizon = 100.0 * runner.max_rounds
    schedule = build_failure_schedule(spec, deployment.num_servers, horizon)
    deployment.install_schedule(schedule)


def build_membership_schedule(
    spec: Dict[str, Any], num_servers: int, horizon: float
) -> Any:
    """Turn a membership spec into a MembershipSchedule (lazy import).

    ``churn`` expands a rotating join/retire timeline up to the run's
    horizon (the membership analogue of fault churn); ``schedule``
    passes an explicit event list through.
    """
    from repro.membership import MembershipError, MembershipSchedule

    _kind(spec, "membership")  # normalise the missing-kind error path
    try:
        return MembershipSchedule.build(
            spec, num_initial=num_servers, horizon=horizon
        )
    except MembershipError as error:
        raise SpecError(str(error)) from None


def install_membership(
    runner: Alg1Runner, spec: Optional[Dict[str, Any]]
) -> Optional[Any]:
    """Attach a membership timeline to a runner; returns the ViewManager.

    None (or an empty explicit schedule) leaves the deployment on the
    static fast path and returns None.
    """
    if spec is None:
        return None
    deployment = runner.deployment
    horizon = runner.max_sim_time
    if horizon is None:
        horizon = 100.0 * runner.max_rounds
    schedule = build_membership_schedule(
        spec, deployment.num_servers, horizon
    )
    return deployment.install_membership(
        schedule, **schedule.install_knobs(spec)
    )


def build_broken_client(spec: Optional[Dict[str, Any]]) -> Optional[type]:
    """Instantiate a deliberately-broken client class from its spec.

    Currently: ``{"kind": "regressing", "after": N}`` — reads regress
    after N correct ones (see :mod:`repro.chaos.broken`).  Used by chaos
    campaigns to validate that the violation pipeline actually fires.
    """
    if spec is None:
        return None
    kind = _kind(spec, "broken_client")
    if kind == "regressing":
        from repro.chaos.broken import RegressingClient

        return RegressingClient.configured(int(spec.get("after", 3)))
    raise SpecError(f"unknown broken_client kind {kind!r}")


def run_alg1_task(task: RunTask) -> Dict[str, Any]:
    """Execute one Alg. 1 run described by ``task.params``.

    Recognised params: ``graph``, ``quorum``, ``delay`` (specs, above),
    ``monotone``, ``max_rounds``, and optionally
    ``retry`` (a policy spec), ``loss_rate``, ``max_sim_time``,
    ``faults``, ``membership`` (a membership timeline spec, see
    :func:`build_membership_schedule`), ``adversary`` (a strategy spec,
    see :func:`repro.adversary.build_adversary`), ``check_spec_online``
    (attach an :class:`~repro.core.monitor.OnlineSpecMonitor`; forces
    history recording), ``broken_client`` (see
    :func:`build_broken_client`) and ``measure_pseudocycles`` (which
    forces history recording to reconstruct the update sequence).

    The payload always carries a ``spec_violation`` key: None on a clean
    run, the violation's structured :meth:`~repro.core.spec.SpecViolation.payload`
    when online monitoring aborted the run.
    """
    params = task.params
    measure_pcs = bool(params.get("measure_pseudocycles", False))
    check_online = bool(params.get("check_spec_online", False))
    monitor = (
        OnlineSpecMonitor(monotone=params["monotone"]) if check_online else None
    )
    # The adversary's time-driven strategies bound their repeating chains
    # by the run's horizon, mirroring the Alg1Runner max_sim_time default.
    horizon = params.get("max_sim_time")
    if horizon is None and params.get("retry") is not None:
        horizon = 100.0 * params["max_rounds"]
    adversary = (
        build_adversary(params["adversary"], horizon)
        if params.get("adversary") is not None
        else None
    )
    # Each task collects into its own fresh registry and ships the
    # snapshot home in the payload: identical for serial and pooled
    # execution (worker processes never inherit the parent's session),
    # and cached payloads replay their metrics on a hit.  Spans cannot
    # cross the process boundary, so a span recorder is only picked up
    # from the active session when the task runs in-process.
    active = obs_runtime.active()
    obs = Observability(spans=active.spans if active is not None else None)
    runner = Alg1Runner(
        ApspACO(build_graph(params["graph"])),
        build_quorum(params["quorum"]),
        monotone=params["monotone"],
        delay_model=build_delay(params["delay"]),
        seed=task.seed,
        max_rounds=params["max_rounds"],
        retry_policy=build_retry_policy(params.get("retry")),
        loss_rate=params.get("loss_rate", 0.0),
        max_sim_time=params.get("max_sim_time"),
        record_history=measure_pcs or check_online,
        observability=obs,
        spec_monitor=monitor,
        adversary=adversary,
        client_class=build_broken_client(params.get("broken_client")),
    )
    install_faults(runner, params.get("faults"))
    membership = install_membership(runner, params.get("membership"))
    violation: Optional[SpecViolation] = None
    result = None
    try:
        result = runner.run(check_spec=False)
    except SpecViolation as caught:
        violation = caught
    deployment = runner.deployment
    # A run the monitor aborted reports the state the simulation reached
    # at the violating event, so degradation stays comparable.
    out: Dict[str, Any] = {
        "converged": result.converged if result is not None else False,
        "rounds": (
            result.rounds if result is not None
            else runner.tracker.rounds_completed
        ),
        "total_iterations": runner.tracker.total_iterations,
        "sim_time": deployment.scheduler.now,
        "messages": deployment.network.stats.sent,
        "regressions": runner.monitor.regressions,
        "cache_hits": sum(c.cache_hits for c in deployment.clients),
        "retries": deployment.total_retries,
        "timeouts": deployment.total_timeouts,
        "messages_dropped": deployment.network.stats.dropped,
        "ops_under_failure": deployment.total_ops_under_failure,
    }
    out["hung_ops"] = deployment.hung_ops
    # Membership and give-up accounting appear only for tasks that asked
    # for them, so payloads of schedule-free tasks keep their exact
    # pre-membership shape (cached payloads stay interchangeable with
    # fresh ones).
    if membership is not None:
        out["membership"] = {
            **membership.metric_counters(),
            "views": membership.view_sizes(),
            "stale_nacks": deployment.total_stale_nacks,
            "view_refreshes": deployment.total_view_refreshes,
        }
    if membership is not None or (
        (params.get("retry") or {}).get("max_attempts") is not None
    ):
        out["unreachable"] = deployment.total_unreachable
    out["spec_violation"] = (
        violation.payload() if violation is not None else None
    )
    if adversary is not None:
        out["adversary"] = adversary.summary()
    if check_online:
        out["monitor"] = {
            "reads_checked": monitor.reads_checked,
            "writes_checked": monitor.writes_checked,
            "retries_seen": monitor.retries_seen,
            "timeouts_seen": monitor.timeouts_seen,
        }
        if membership is not None:
            out["monitor"]["views_seen"] = monitor.views_seen
    out["faults_injected"] = {
        "crashes": deployment.failures.crashes_injected,
        "recoveries": deployment.failures.recoveries,
        "partitions": deployment.failures.partitions_installed,
        "heals": deployment.failures.heals,
    }
    out["metrics"] = obs.metrics.snapshot()
    if measure_pcs and violation is None:
        from repro.iterative.trace import measure_pseudocycles

        out["pseudocycles"] = measure_pseudocycles(runner)
    return out
