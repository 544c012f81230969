"""E-EXT-CHURN: convergence under continuous replica churn.

Beyond E-FAULT's one-shot crash batch, real replicated systems see
*churn*: servers leave and rejoin continuously.  The probabilistic quorum
register needs no membership protocol to ride this out — fresh random
quorums plus client retry (exponential backoff with jitter) route around
whoever is currently down, and a recovering replica is repaired
implicitly the next time a write quorum includes it (its stale timestamp
loses to newer ones, so it never poisons reads).

The experiment runs the paper's APSP workload while a scripted
:class:`~repro.sim.failures.FailureSchedule` cycles a fraction of the
replicas down and up, sweeping the churn rate, optionally with
probabilistic message loss layered on top; the table surfaces the
degradation counters (retries, timeouts, ops completed under failure)
alongside the convergence cost.
"""

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Optional, Tuple

from repro.exec.cache import RunCache
from repro.exec.task import RunTask
from repro.exec.workers import alg1_task, run_cells
from repro.experiments.registry import FAULT_FLAGS, Experiment, each, grid
from repro.experiments.results import ResultTable


@dataclass
class ChurnConfig:
    """Parameters for the churn experiment."""

    num_vertices: int = 10
    num_servers: int = 16
    quorum_size: int = 4
    down_fraction: float = 0.25
    churn_periods: Tuple[float, ...] = (0.0, 40.0, 20.0, 10.0)
    outage_duration: float = 5.0
    retry_interval: float = 4.0
    # Per-operation deadline; None disables rejection (legacy behaviour).
    operation_deadline: Optional[float] = 200.0
    loss_rate: float = 0.0
    max_rounds: int = 400
    max_sim_time: float = 3000.0
    runs: int = 2
    seed: int = 81

    @classmethod
    def paper_scale(cls) -> "ChurnConfig":
        # A 16-vertex chain over the 16 replicas, like E-FAULT's paper
        # scale, so the two fault experiments are read side by side.
        return cls(num_vertices=16, runs=3)

    @classmethod
    def scaled_down(cls) -> "ChurnConfig":
        return cls(num_vertices=8, churn_periods=(0.0, 20.0), runs=1)


def churn_task(config: ChurnConfig, period: float, run: int = 0) -> RunTask:
    """One APSP run with a churn cycle every ``period`` time units.

    ``period`` 0 disables churn.  Each cycle crashes a rotating window of
    ``down_fraction``·n servers for ``outage_duration``, then recovers
    them (the engine worker expands the schedule).
    """
    batch = max(1, int(config.down_fraction * config.num_servers))
    retry: Dict[str, Any] = {"interval": config.retry_interval}
    if config.operation_deadline is not None:
        retry["deadline"] = config.operation_deadline
    return alg1_task(
        (config.seed, "churn", period, run),
        graph={"kind": "chain", "n": config.num_vertices},
        quorum={
            "kind": "probabilistic",
            "n": config.num_servers,
            "k": config.quorum_size,
        },
        delay={"kind": "exponential", "mean": 1.0},
        monotone=True,
        max_rounds=config.max_rounds,
        retry=retry,
        max_sim_time=config.max_sim_time,
        faults={
            "kind": "churn",
            "period": period,
            "batch": batch,
            "outage": config.outage_duration,
        },
        loss_rate=config.loss_rate if config.loss_rate > 0.0 else None,
    )


def churn_sweep(config: ChurnConfig):
    """One cell per churn period, ``runs`` runs each."""
    return config.churn_periods, config.runs, partial(churn_task, config)


def churn_table(
    config: ChurnConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """Rounds, wall-clock and degradation counters vs churn rate."""
    loss = f", loss={config.loss_rate:.0%}" if config.loss_rate > 0.0 else ""
    table = ResultTable(
        f"Replica churn — APSP chain {config.num_vertices}, "
        f"n={config.num_servers}, k={config.quorum_size}, "
        f"{int(config.down_fraction * 100)}% down for "
        f"{config.outage_duration} per cycle{loss}",
        [
            "churn_period",
            "all_converged",
            "mean_rounds",
            "mean_sim_time",
            "mean_retries",
            "mean_timeouts",
            "mean_ops_under_failure",
            "hung_ops",
        ],
    )
    by_period = run_cells(*churn_sweep(config), jobs=jobs, cache=cache)
    for period, group in by_period.items():
        table.add_row(
            period if period > 0 else float("inf"),
            all(r["converged"] for r in group),
            sum(r["rounds"] for r in group) / len(group),
            sum(r["sim_time"] for r in group) / len(group),
            sum(r["retries"] for r in group) / len(group),
            sum(r["timeouts"] for r in group) / len(group),
            sum(r["ops_under_failure"] for r in group) / len(group),
            sum(r["hung_ops"] for r in group),
        )
    return table


EXPERIMENT = Experiment(
    ChurnConfig, ("churn",), each(churn_table), grid(churn_sweep), FAULT_FLAGS
)
