"""E-EXT-LAT: operation latency vs quorum size.

The flip side of the paper's load story: a quorum operation waits for its
slowest member, so read/write latency grows with k (like mean·H_k under
exponential delays) while per-server load shrinks (k/n).  This extension
experiment measures both from one workload and tabulates the trade-off —
the practical reason to prefer k = Θ(√n) over larger "safer" quorums
even before the message-count argument of Section 6.4.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analysis.latency import (
    expected_max_of_exponentials,
    latency_summary,
    merged_latencies,
)
from repro.exec.cache import RunCache
from repro.exec.task import RunTask, execute_task
from repro.exec.workers import run_cells
from repro.experiments.registry import Experiment, each, grid
from repro.experiments.results import ResultTable
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.deployment import RegisterDeployment
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import ExponentialDelay
from repro.sim.rng import derive_seed


@dataclass
class LatencyConfig:
    """Parameters for the latency/load trade-off measurement."""

    num_servers: int = 25
    quorum_sizes: Tuple[int, ...] = (1, 2, 5, 10, 15, 25)
    num_clients: int = 4
    ops_per_client: int = 150
    mean_delay: float = 1.0
    seed: int = 61

    @classmethod
    def paper_scale(cls) -> "LatencyConfig":
        return cls()

    @classmethod
    def scaled_down(cls) -> "LatencyConfig":
        return cls(num_servers=16, quorum_sizes=(1, 4, 8, 16),
                   ops_per_client=60)


def latency_task(config: LatencyConfig, k: int) -> RunTask:
    """The k-sized-quorum workload as an engine task."""
    return RunTask(
        kind="latency",
        params={
            "num_servers": config.num_servers,
            "k": k,
            "num_clients": config.num_clients,
            "ops_per_client": config.ops_per_client,
            "mean_delay": config.mean_delay,
        },
        seed=derive_seed(config.seed, "latency", k),
    )


def latency_sweep(config: LatencyConfig):
    """One workload per quorum size."""
    return config.quorum_sizes, 1, lambda k, run: latency_task(config, k)


def run_latency_task(task: RunTask) -> dict:
    """Worker: run a read/write workload at quorum size k; summarise
    latencies (needs the recorded history, so it runs where the
    deployment lives)."""
    params = task.params
    k = params["k"]
    mean_delay = params["mean_delay"]
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(params["num_servers"], k),
        num_clients=params["num_clients"],
        delay_model=ExponentialDelay(mean_delay),
        monotone=True,
        seed=task.seed,
    )
    deployment.declare_register("X", writer=0, initial_value=0)

    def writer():
        for value in range(params["ops_per_client"]):
            yield deployment.handle(0, "X").write(value)
            yield Sleep(1.0)

    def reader(cid):
        for _ in range(params["ops_per_client"]):
            yield deployment.handle(cid, "X").read()
            yield Sleep(1.0)

    spawn(deployment.scheduler, writer())
    for cid in range(1, params["num_clients"]):
        spawn(deployment.scheduler, reader(cid))
    deployment.run()

    reads, writes = merged_latencies([deployment.space.history("X")])
    read_stats = latency_summary(reads)
    write_stats = latency_summary(writes)
    # Each server's load: the requests it answered (Section 4).
    served = [
        server.reads_served + server.writes_applied
        + server.stale_updates_ignored
        for server in deployment.servers
    ]
    total = sum(served)
    return {
        "k": k,
        "read_mean": read_stats["mean"],
        "read_p95": read_stats["p95"],
        "write_mean": write_stats["mean"],
        "analytic_floor": 2.0 * mean_delay if k == 1
        else expected_max_of_exponentials(mean_delay, k),
        "busiest_server_share": max(served) / total if total else 0.0,
    }


def measure_latency(config: LatencyConfig, k: int) -> dict:
    """Run the quorum-size-k workload in-process; returns its table row."""
    return execute_task(latency_task(config, k))


def latency_table(
    config: LatencyConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """The latency/load trade-off table across quorum sizes."""
    table = ResultTable(
        f"Latency vs load across quorum sizes "
        f"(n={config.num_servers}, exponential delays, mean "
        f"{config.mean_delay})",
        [
            "k",
            "read_mean",
            "read_p95",
            "write_mean",
            "analytic_floor",
            "busiest_server_share",
        ],
    )
    by_k = run_cells(*latency_sweep(config), jobs=jobs, cache=cache)
    table.add_dict_rows([row for (row,) in by_k.values()])
    return table


EXPERIMENT = Experiment(
    LatencyConfig, ("latency",), each(latency_table), grid(latency_sweep)
)
