"""E-FAULT: iterative convergence under replica-server crashes.

Section 4's availability analysis is static; this experiment exercises it
dynamically: an APSP computation is running when a batch of replica
servers crashes.  Clients retry stalled operations with fresh random
quorums (exponential backoff + jitter), so the probabilistic system keeps
converging as long as at least k replicas survive — whereas a strict grid
system stalls forever once every row is hit (its quorums are fixed).

Beyond the convergence comparison, :func:`degradation_table` drives a
*scripted* crash/recover timeline (crash at ``crash_time``, recover at
``recover_time``) with per-operation deadlines and optional message loss,
and reports the degradation counters — retries, timeouts, drops,
operations completed under failure — that the fault-tolerance layer
surfaces through :class:`~repro.iterative.runner.Alg1Result`.  With
deadlines armed, every invoked operation either resolves or rejects with
``OperationTimeout``: the ``hung_ops`` column asserts zero hung futures
at the end of each run.
"""

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.exec.cache import RunCache
from repro.exec.task import RunTask
from repro.exec.workers import alg1_task, run_cells
from repro.experiments.registry import FAULT_FLAGS, Experiment, each, grid
from repro.experiments.results import ResultTable
from repro.quorum.base import QuorumSystem
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem


@dataclass
class FaultToleranceConfig:
    """Parameters for the crash experiment."""

    num_vertices: int = 12
    num_servers: int = 16
    quorum_size: int = 4
    crash_counts: tuple = (0, 2, 4, 8)
    crash_time: float = 30.0
    # Crashed servers come back at this time in the scripted
    # degradation runs (None = they stay down).
    recover_time: Optional[float] = 250.0
    # Retry policy: start fast, back off, but cap the interval — with a
    # heavy crash set a client may need ~C(n,k)/C(alive,k) resamples to
    # hit an all-alive quorum, and uncapped doubling would push the
    # tail of that geometric past the sim-time budget.
    retry_interval: float = 2.0
    retry_backoff: float = 1.5
    retry_max_interval: float = 12.0
    # Per-operation deadline for the degradation runs: long enough to
    # ride out several backed-off retries, short enough that a dead
    # system rejects operations instead of hanging them.
    operation_deadline: float = 120.0
    loss_rate: float = 0.0
    max_rounds: int = 400
    # Hard stop: a stalled grid run never closes rounds, so the cap must
    # be on simulated time.  Healthy runs finish well under t = 300.
    max_sim_time: float = 1200.0
    seed: int = 51

    @classmethod
    def paper_scale(cls) -> "FaultToleranceConfig":
        return cls(num_vertices=16, num_servers=16,
                   crash_counts=(0, 2, 4, 8, 11))

    @classmethod
    def scaled_down(cls) -> "FaultToleranceConfig":
        return cls(num_vertices=8, crash_counts=(0, 2, 6), max_rounds=250)


def _quorum_spec(system: QuorumSystem) -> Dict[str, Any]:
    """A data spec for the quorum systems this experiment compares."""
    if isinstance(system, ProbabilisticQuorumSystem):
        return {"kind": "probabilistic", "n": system.n, "k": system.quorum_size}
    if isinstance(system, GridQuorumSystem):
        return {"kind": "grid", "rows": system.rows, "cols": system.cols}
    raise TypeError(f"no spec mapping for {type(system).__name__}")


def _task(
    config: FaultToleranceConfig,
    seed_path: Tuple[Any, ...],
    quorum: Dict[str, Any],
    faults: Dict[str, Any],
    deadline: Optional[float] = None,
    loss_rate: Optional[float] = None,
) -> RunTask:
    """The workload both tables share: a monotone APSP chain with capped
    backoff retries, under ``faults``."""
    retry: Dict[str, Any] = {
        "interval": config.retry_interval,
        "backoff": config.retry_backoff,
        "max_interval": config.retry_max_interval,
    }
    if deadline is not None:
        retry["deadline"] = deadline
    return alg1_task(
        (config.seed, *seed_path),
        graph={"kind": "chain", "n": config.num_vertices},
        quorum=quorum,
        delay={"kind": "exponential", "mean": 1.0},
        monotone=True,
        max_rounds=config.max_rounds,
        retry=retry,
        max_sim_time=config.max_sim_time,
        faults=faults,
        loss_rate=loss_rate,
    )


def _grid_side(config: FaultToleranceConfig) -> int:
    return max(1, int(config.num_servers ** 0.5))


def crash_task(
    config: FaultToleranceConfig,
    system: QuorumSystem,
    crashes: int,
    label: str = "prob",
) -> RunTask:
    """One run: crash ``crashes`` servers at ``crash_time``.

    Servers are crashed one-per-grid-row first (the strict grid's worst
    case) so the comparison is fair against its availability bound.
    """
    return _task(
        config,
        ("fault", label, crashes),
        _quorum_spec(system),
        {
            "kind": "crash_batch",
            "time": config.crash_time,
            "count": crashes,
            "side": _grid_side(config),
        },
    )


def degradation_task(
    config: FaultToleranceConfig, crashes: int, label: str = "degrade"
) -> RunTask:
    """One scripted crash→recover run with deadlines (and optional loss).

    The timeline crashes ``crashes`` servers at ``crash_time`` and — when
    ``recover_time`` is set — recovers the same batch later, exercising
    the full fault-tolerance layer: backoff retries while degraded,
    deadline rejections when every quorum choice is dead, implicit repair
    after recovery.
    """
    side = _grid_side(config)
    servers = [
        ((index % side) * side + index // side) % config.num_servers
        for index in range(crashes)
    ]
    events = [{"time": config.crash_time, "action": "crash", "nodes": servers}]
    if config.recover_time is not None:
        events.append(
            {"time": config.recover_time, "action": "recover",
             "nodes": servers}
        )
    return _task(
        config,
        ("degradation", label, crashes),
        {
            "kind": "probabilistic",
            "n": config.num_servers,
            "k": config.quorum_size,
        },
        {"kind": "schedule", "events": events},
        deadline=config.operation_deadline,
        loss_rate=config.loss_rate if config.loss_rate > 0.0 else None,
    )


def _crash_sweep(config: FaultToleranceConfig):
    """(quorum system label, crash count) cells of the comparison table."""
    side = _grid_side(config)
    systems = {
        "prob": ProbabilisticQuorumSystem(
            config.num_servers, config.quorum_size
        ),
        "grid": GridQuorumSystem(side, side),
    }
    cells = [
        (label, crashes)
        for crashes in config.crash_counts
        for label in systems
    ]

    def make_task(cell, run: int) -> RunTask:
        label, crashes = cell
        return crash_task(config, systems[label], crashes, label=label)

    return cells, 1, make_task


def _degradation_sweep(config: FaultToleranceConfig):
    return (
        config.crash_counts,
        1,
        lambda crashes, run: degradation_task(config, crashes),
    )


def fault_tolerance_table(
    config: FaultToleranceConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """Probabilistic (with retry) vs strict grid under growing crash sets."""
    side = _grid_side(config)
    table = ResultTable(
        f"Crashes mid-run — APSP chain {config.num_vertices}, "
        f"n={config.num_servers}, crash at t={config.crash_time} "
        f"(probabilistic k={config.quorum_size} with retry vs grid "
        f"{side}x{side})",
        [
            "crashes",
            "prob_converged",
            "prob_rounds",
            "prob_retries",
            "grid_converged",
            "grid_rounds",
        ],
    )
    results = run_cells(*_crash_sweep(config), jobs=jobs, cache=cache)
    for crashes in config.crash_counts:
        (prob,), (grid,) = results["prob", crashes], results["grid", crashes]
        table.add_row(
            crashes,
            prob["converged"],
            prob["rounds"],
            prob["retries"],
            grid["converged"],
            grid["rounds"],
        )
    return table


def degradation_table(
    config: FaultToleranceConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """Degradation metrics under a scripted crash→recover timeline."""
    recover = (
        f"recover at t={config.recover_time}"
        if config.recover_time is not None
        else "no recovery"
    )
    loss = (
        f", loss={config.loss_rate:.0%}" if config.loss_rate > 0.0 else ""
    )
    table = ResultTable(
        f"Graceful degradation — probabilistic k={config.quorum_size}, "
        f"n={config.num_servers}, crash at t={config.crash_time}, "
        f"{recover}, op deadline {config.operation_deadline}{loss}",
        [
            "crashes",
            "converged",
            "rounds",
            "retries",
            "timeouts",
            "messages_dropped",
            "ops_under_failure",
            "hung_ops",
        ],
    )
    results = run_cells(*_degradation_sweep(config), jobs=jobs, cache=cache)
    for crashes, (result,) in results.items():
        table.add_row(
            crashes,
            result["converged"],
            result["rounds"],
            result["retries"],
            result["timeouts"],
            result["messages_dropped"],
            result["ops_under_failure"],
            result["hung_ops"],
        )
    return table


EXPERIMENT = Experiment(
    FaultToleranceConfig,
    ("fault_tolerance", "fault_degradation"),
    each(fault_tolerance_table, degradation_table),
    grid(_crash_sweep, _degradation_sweep),
    FAULT_FLAGS,
)
