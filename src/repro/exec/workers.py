"""Worker functions executed by the engine.

Most experiments run the same shape of work — Alg. 1 on an APSP instance
over some quorum system with some delay model, possibly under fault
injection — so they share one generic worker, :func:`run_alg1_task`,
parameterised by plain-data specs: ``graph``, ``quorum``, ``delay``,
``faults``, ``membership``, ``adversary`` and ``broken_client`` are
``{"kind": ...}`` dicts over the family ``KINDS`` tables listed in
:mod:`repro.specs`, and ``retry`` holds
:class:`~repro.registers.client.RetryPolicy`'s arguments.  Fault and
membership specs address servers by *index*; the deployment maps them to
network node ids at install time.

Specs are plain data so tasks stay picklable and cache-keyable; workers
return plain dicts for the same reason.

The producer side lives here too: :func:`alg1_task` is the only place
that spells the ``alg1`` params dict, and :func:`run_cells` the only fold
from the engine's flat result list back to a cells × runs grid.
"""

from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence

from repro import quorum as quorum_systems
from repro import specs
from repro.adversary import strategies
from repro.apps import graphs
from repro.apps.apsp import ApspACO
from repro.core.monitor import OnlineSpecMonitor
from repro.core.spec import SpecViolation
from repro.exec.cache import RunCache
from repro.exec.engine import run_many
from repro.exec.task import RunTask
from repro.iterative.runner import Alg1Runner
from repro.membership import schedule as membership_schedule
from repro.obs import runtime as obs_runtime
from repro.obs.core import Observability
from repro.obs.registry import MetricsRegistry
from repro.registers.client import RetryPolicy
from repro.registers.deployment import collector_held
from repro.sim import delays, failures
from repro.sim.rng import derive_seed


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
        raise specs.SpecError(f"unknown alg1 params: {sorted(unknown)}")
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


def build_alg1(params: Mapping[str, Any]) -> Dict[str, Any]:
    """The objects an ``alg1`` task's spec params describe, by param name.

    Every spec goes through :func:`repro.specs.build`, so a malformed one
    raises :class:`~repro.specs.SpecError` here, before anything is
    simulated.  Fault,
    membership and adversary timelines are bounded by the run's horizon;
    an absent optional spec builds None.
    """
    from repro.chaos import broken  # the chaos package imports this module

    quorum_system = specs.build("quorum", quorum_systems.KINDS, params["quorum"])
    context = {
        "num_servers": quorum_system.n,
        "horizon": Alg1Runner.run_horizon(
            params["max_rounds"], params.get("max_sim_time")
        ),
    }
    built = {
        "graph": specs.build("graph", graphs.KINDS, params["graph"]),
        "quorum": quorum_system,
        "delay": specs.build("delay", delays.KINDS, params["delay"]),
    }
    for name, kinds in (
        ("retry", RetryPolicy),
        ("faults", failures.KINDS),
        ("membership", membership_schedule.KINDS),
        ("adversary", strategies.KINDS),
        ("broken_client", broken.KINDS),
    ):
        spec = params.get(name)
        built[name] = (
            None if spec is None else specs.build(name, kinds, spec, **context)
        )
    return built


def run_alg1_task(task: RunTask) -> Dict[str, Any]:
    """Execute one Alg. 1 run described by ``task.params``.

    Recognised params: ``graph``, ``quorum``, ``delay`` (specs, above),
    ``monotone``, ``max_rounds``, and optionally ``retry``, ``faults``,
    ``membership``, ``adversary``, ``broken_client`` (specs, see
    :func:`build_alg1`), ``loss_rate``, ``max_sim_time``,
    ``check_spec_online`` (attach an
    :class:`~repro.core.monitor.OnlineSpecMonitor`; forces history
    recording) and ``measure_pseudocycles`` (which forces history
    recording to reconstruct the update sequence).

    The payload always carries a ``spec_violation`` key: None on a clean
    run, the violation's structured :meth:`~repro.core.spec.SpecViolation.payload`
    when online monitoring aborted the run.

    The cyclic collector is held off for the whole task — build, run,
    payload and ``close`` — and the caller's setting restored on exit
    (:func:`~repro.registers.deployment.collector_held`).
    """
    with collector_held():
        return _alg1_payload(task)


def _alg1_payload(task: RunTask) -> Dict[str, Any]:
    params = task.params
    measure_pcs = bool(params.get("measure_pseudocycles", False))
    check_online = bool(params.get("check_spec_online", False))
    monitor = (
        OnlineSpecMonitor(monotone=params["monotone"]) if check_online else None
    )
    # The network binds the adversary when it is built, so every spec is
    # built before the runner.
    built = build_alg1(params)
    # Each task collects into its own fresh registry and ships the
    # snapshot home in the payload: identical for serial and pooled
    # execution (worker processes never inherit the parent's session),
    # and cached payloads replay their metrics on a hit.  Spans cannot
    # cross the process boundary, so a span recorder is only picked up
    # from the active session when the task runs in-process.
    active = obs_runtime.active()
    obs = Observability(
        MetricsRegistry(), active.spans if active is not None else None
    )
    runner = Alg1Runner(
        ApspACO(built["graph"]),
        built["quorum"],
        monotone=params["monotone"],
        delay_model=built["delay"],
        seed=task.seed,
        max_rounds=params["max_rounds"],
        retry_policy=built["retry"],
        loss_rate=params.get("loss_rate", 0.0),
        max_sim_time=params.get("max_sim_time"),
        record_history=measure_pcs or check_online,
        observability=obs,
        spec_monitor=monitor,
        adversary=built["adversary"],
        client_class=built["broken_client"],
    )
    deployment = runner.deployment
    if built["faults"] is not None:
        deployment.install_schedule(built["faults"])
    # None (or an empty explicit schedule) leaves the deployment on the
    # static fast path.
    membership = (
        deployment.install_membership(built["membership"])
        if built["membership"] is not None
        else None
    )
    violation: Optional[Dict[str, Any]] = None
    try:
        result = runner.run(check_spec=False)
    except SpecViolation as caught:
        # The payload only: the exception's traceback holds this frame.
        violation = caught.payload()
        # An aborted run reports the state the simulation reached at the
        # violating event, so degradation stays comparable.
        result = runner.result()
    # The 11 counts, in field order, without the per-process breakdown.
    out: Dict[str, Any] = {
        key: value for key, value in vars(result).items()
        if key not in ("iterations_by_process", "rounds_completed")
    }
    out["hung_ops"] = deployment.hung_ops
    # Membership and give-up accounting appear only for tasks that asked
    # for them, so payloads of schedule-free tasks keep their exact
    # pre-membership shape (cached payloads stay interchangeable with
    # fresh ones).
    if membership is not None:
        out["membership"] = membership.summary()
    if membership is not None or (
        (params.get("retry") or {}).get("max_attempts") is not None
    ):
        out["unreachable"] = deployment.total_unreachable
    out["spec_violation"] = violation
    if built["adversary"] is not None:
        out["adversary"] = built["adversary"].summary()
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
    deployment.close()
    return out
