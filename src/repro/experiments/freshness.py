"""E-THM4: the distribution of Y vs the Geometric(q) bound of [R5].

Theorem 4 says the monotone probabilistic quorum algorithm satisfies [R5]
with q = 1 - C(n-k,k)/C(n,k): the number of reads Y a process needs after
a write until it sees that write (or a later one) is dominated by a
geometric with success probability q.  Two estimators again:

* quorum-level Monte Carlo: count fresh quorum draws until one intersects
  the write's quorum — the exact event analysed in the proof;
* register-level: run a monotone deployment and extract Y samples from
  the recorded history via :func:`repro.core.spec.freshness_wait_samples`.

The empirical mean of Y should be *below* 1/q (the proof ignores ways a
reader can catch up without quorum overlap — the very slack the paper
blames for the gap between the Figure 2 bound and measurements).
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.theory import q_exact
from repro.core.spec import estimate_r5_geometric_parameter, freshness_wait_samples
from repro.exec.cache import RunCache
from repro.exec.engine import run_many
from repro.exec.task import RunTask
from repro.experiments.registry import Experiment, each
from repro.experiments.results import ResultTable
from repro.experiments.survival import _mc_shards
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.deployment import RegisterDeployment
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import ExponentialDelay
from repro.sim.rng import RngRegistry, derive_seed


@dataclass
class FreshnessConfig:
    """Parameters for the freshness-wait experiment."""

    num_servers: int = 34
    quorum_size: int = 4
    trials: int = 20_000
    seed: int = 13

    @classmethod
    def paper_scale(cls) -> "FreshnessConfig":
        return cls(num_servers=34, quorum_size=4, trials=100_000)

    @classmethod
    def scaled_down(cls) -> "FreshnessConfig":
        return cls(trials=2_000)


def freshness_mc_tasks(config: FreshnessConfig) -> List[RunTask]:
    """The Monte Carlo as independently seeded fixed-size shards."""
    return [
        RunTask(
            kind="freshness_mc",
            params={
                "num_servers": config.num_servers,
                "quorum_size": config.quorum_size,
                "trials": trials,
                "shard": shard,
            },
            seed=derive_seed(config.seed, "freshness-mc", shard),
        )
        for shard, trials in enumerate(_mc_shards(config.trials))
    ]


def run_freshness_mc_task(task: RunTask) -> List[int]:
    """One Monte Carlo shard; returns its Y samples in draw order."""
    params = task.params
    system = ProbabilisticQuorumSystem(
        params["num_servers"], params["quorum_size"]
    )
    rng = RngRegistry(task.seed).stream("freshness")
    samples = []
    cap = 100 * params["num_servers"]  # safety net; never hit in practice
    for _ in range(params["trials"]):
        write_quorum = system.quorum(rng)
        count = 1
        while not (system.quorum(rng) & write_quorum) and count < cap:
            count += 1
        samples.append(count)
    return samples


def quorum_level_wait_samples(
    config: FreshnessConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> List[int]:
    """Monte Carlo samples of Y: draws until a quorum overlaps the write's."""
    shards = run_many(freshness_mc_tasks(config), jobs=jobs, cache=cache)
    return [y for shard in shards for y in shard]


def freshness_register_task(
    config: FreshnessConfig, num_writes: int = 120
) -> RunTask:
    """The register-level measurement as a single engine task."""
    return RunTask(
        kind="freshness_register",
        params={
            "num_servers": config.num_servers,
            "quorum_size": config.quorum_size,
            "num_writes": num_writes,
        },
        seed=derive_seed(config.seed, "freshness-register"),
    )


def run_freshness_register_task(task: RunTask) -> List[int]:
    """Worker: Y samples from a real monotone register deployment."""
    params = task.params
    num_writes = params["num_writes"]
    system = ProbabilisticQuorumSystem(
        params["num_servers"], params["quorum_size"]
    )
    deployment = RegisterDeployment(
        system,
        num_clients=2,
        delay_model=ExponentialDelay(1.0),
        monotone=True,
        seed=task.seed,
    )
    deployment.declare_register("X", writer=0, initial_value=0)

    def writer():
        for value in range(1, num_writes + 1):
            yield deployment.handle(0, "X").write(value)
            yield Sleep(3.0)  # several reads happen per write interval

    def reader():
        for _ in range(num_writes * 4):
            yield deployment.handle(1, "X").read()
            yield Sleep(0.7)

    spawn(deployment.scheduler, writer(), label="writer")
    spawn(deployment.scheduler, reader(), label="reader")
    deployment.run()
    return freshness_wait_samples(deployment.space.history("X"))


def register_level_wait_samples(
    config: FreshnessConfig,
    num_writes: int = 120,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> List[int]:
    """Y samples from a real monotone register deployment."""
    task = freshness_register_task(config, num_writes)
    (samples,) = run_many([task], jobs=jobs, cache=cache)
    return samples


def freshness_tasks(config: FreshnessConfig) -> List[RunTask]:
    """Everything the table submits: the MC shards, then the register run."""
    return freshness_mc_tasks(config) + [freshness_register_task(config)]


def freshness_table(
    config: FreshnessConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """E-THM4 summary: analytic q vs the two empirical estimates."""
    q = q_exact(config.num_servers, config.quorum_size)
    *shards, reg_samples = run_many(
        freshness_tasks(config), jobs=jobs, cache=cache
    )
    mc_samples = [y for shard in shards for y in shard]
    table = ResultTable(
        f"Theorem 4 — freshness waits "
        f"(n={config.num_servers}, k={config.quorum_size})",
        ["quantity", "analytic", "quorum_mc", "register_measured"],
    )
    table.add_row(
        "q (success prob.)",
        q,
        estimate_r5_geometric_parameter(mc_samples),
        estimate_r5_geometric_parameter(reg_samples) if reg_samples else float("nan"),
    )
    table.add_row(
        "E[Y] (expected reads)",
        1.0 / q,
        float(np.mean(mc_samples)),
        float(np.mean(reg_samples)) if reg_samples else float("nan"),
    )
    table.add_row(
        "max Y observed",
        float("nan"),
        max(mc_samples),
        max(reg_samples) if reg_samples else float("nan"),
    )
    return table


def empirical_tail(samples: List[int], r: int) -> float:
    """Pr[Y >= r] from samples."""
    if not samples:
        raise ValueError("no samples")
    return sum(1 for y in samples if y >= r) / len(samples)


EXPERIMENT = Experiment(
    FreshnessConfig, ("freshness",), each(freshness_table), freshness_tasks
)
