"""E-THM1: write-survival probability vs the Theorem 1 bound.

Theorem 1's proof shows the probability that at least one replica in a
write's quorum still holds that write's value after ℓ subsequent writes is
at most k·((n-k)/n)^ℓ.  Two estimators:

* a direct quorum-level Monte Carlo (`quorum_level_survival`): sample a
  write quorum and ℓ later write quorums and check whether any member of
  the first escaped them all — this is exactly the event the proof bounds;
* a register-level measurement (`register_level_survival`): run an actual
  deployment with a writer and readers and derive per-lag survival from
  the recorded history via :func:`repro.core.spec.write_survival_counts`.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.theory import (
    theorem1_survival_bound,
    theorem1_survival_exact,
)
from repro.core.spec import write_survival_counts
from repro.exec.cache import RunCache
from repro.exec.engine import run_many
from repro.exec.task import RunTask
from repro.experiments.registry import Experiment, each
from repro.experiments.results import ResultTable
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.deployment import RegisterDeployment
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import ExponentialDelay
from repro.sim.rng import RngRegistry, derive_seed

#: Monte Carlo trials per engine task.  Fixed (never derived from the job
#: count) so the shard boundaries — and therefore every number — are the
#: same no matter how many workers execute them.
MC_SHARD_TRIALS = 5_000


@dataclass
class SurvivalConfig:
    """Parameters for the survival experiment."""

    num_servers: int = 34
    quorum_size: int = 6
    max_lag: int = 12
    trials: int = 20_000
    seed: int = 7

    @classmethod
    def paper_scale(cls) -> "SurvivalConfig":
        return cls(num_servers=34, quorum_size=6, max_lag=15,
                   trials=100_000)

    @classmethod
    def scaled_down(cls) -> "SurvivalConfig":
        # Smaller n and k so the per-lag decay rate (n-k)/n bites within
        # few lags; keeps the Monte Carlo trials cheap.
        return cls(num_servers=16, quorum_size=4, max_lag=10, trials=2_000)


def _mc_shards(trials: int, shard_trials: int = MC_SHARD_TRIALS) -> List[int]:
    """Split a trial budget into fixed-size shards (last one may be short)."""
    shards = []
    remaining = trials
    while remaining > 0:
        take = min(shard_trials, remaining)
        shards.append(take)
        remaining -= take
    return shards


def survival_mc_tasks(config: SurvivalConfig) -> List[RunTask]:
    """The quorum-level Monte Carlo as independently seeded shards."""
    return [
        RunTask(
            kind="survival_mc",
            params={
                "num_servers": config.num_servers,
                "quorum_size": config.quorum_size,
                "max_lag": config.max_lag,
                "trials": trials,
                "shard": shard,
            },
            seed=derive_seed(config.seed, "survival-mc", shard),
        )
        for shard, trials in enumerate(_mc_shards(config.trials))
    ]


def run_survival_mc_task(task: RunTask) -> List[int]:
    """One Monte Carlo shard; returns survival counts per lag 0..max_lag."""
    params = task.params
    system = ProbabilisticQuorumSystem(
        params["num_servers"], params["quorum_size"]
    )
    rng = RngRegistry(task.seed).stream("survival")
    max_lag = params["max_lag"]
    survivals = [0] * (max_lag + 1)
    for _ in range(params["trials"]):
        write_quorum = system.quorum(rng)
        overwritten: set = set()
        for ell in range(max_lag + 1):
            if write_quorum - overwritten:
                survivals[ell] += 1
            overwritten |= system.quorum(rng)
    return survivals


def quorum_level_survival(
    config: SurvivalConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> Dict[int, float]:
    """Monte Carlo Pr[some replica of W's quorum survives ℓ later writes]."""
    return _survival_fractions(
        config, run_many(survival_mc_tasks(config), jobs=jobs, cache=cache)
    )


def _survival_fractions(
    config: SurvivalConfig, shard_counts: List[List[int]]
) -> Dict[int, float]:
    """Fold per-shard survival counts into a per-lag probability."""
    return {
        ell: sum(shard[ell] for shard in shard_counts) / config.trials
        for ell in range(config.max_lag + 1)
    }


def survival_register_task(
    config: SurvivalConfig, num_readers: int = 4, num_writes: int = 200
) -> RunTask:
    """The register-level measurement as a single engine task."""
    return RunTask(
        kind="survival_register",
        params={
            "num_servers": config.num_servers,
            "quorum_size": config.quorum_size,
            "max_lag": config.max_lag,
            "num_readers": num_readers,
            "num_writes": num_writes,
        },
        seed=derive_seed(config.seed, "survival-register"),
    )


def run_survival_register_task(task: RunTask) -> List[List[int]]:
    """Worker: run the deployment; returns [lag, survivals, trials] rows."""
    params = task.params
    num_writes = params["num_writes"]
    num_readers = params["num_readers"]
    system = ProbabilisticQuorumSystem(
        params["num_servers"], params["quorum_size"]
    )
    deployment = RegisterDeployment(
        system,
        num_clients=1 + num_readers,
        delay_model=ExponentialDelay(1.0),
        monotone=False,
        seed=task.seed,
    )
    deployment.declare_register("X", writer=0, initial_value=0)

    def writer():
        for value in range(1, num_writes + 1):
            yield deployment.handle(0, "X").write(value)
            yield Sleep(0.5)

    def reader(client_id: int):
        for _ in range(num_writes):
            yield deployment.handle(client_id, "X").read()
            yield Sleep(0.5)

    spawn(deployment.scheduler, writer(), label="writer")
    for r in range(1, num_readers + 1):
        spawn(deployment.scheduler, reader(r), label=f"reader-{r}")
    deployment.run()
    counts = write_survival_counts(
        deployment.space.history("X"), max_ell=params["max_lag"]
    )
    return [[ell, s, t] for ell, (s, t) in sorted(counts.items())]


def register_level_survival(
    config: SurvivalConfig,
    num_readers: int = 4,
    num_writes: int = 200,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> Dict[int, Tuple[int, int]]:
    """Per-lag (survivals, trials) from a real register deployment run."""
    task = survival_register_task(config, num_readers, num_writes)
    (rows,) = run_many([task], jobs=jobs, cache=cache)
    return {ell: (s, t) for ell, s, t in rows}


def survival_tasks(config: SurvivalConfig) -> List[RunTask]:
    """Everything the table submits: the MC shards, then the register run."""
    return survival_mc_tasks(config) + [survival_register_task(config)]


def survival_table(
    config: SurvivalConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """The E-THM1 comparison table: measured vs bound and exact value per
    lag ℓ."""
    # One engine invocation for everything: the MC shards and the
    # register-level run execute side by side.
    *shard_counts, register_rows = run_many(
        survival_tasks(config), jobs=jobs, cache=cache
    )
    monte_carlo = _survival_fractions(config, shard_counts)
    register = {ell: (s, t) for ell, s, t in register_rows}
    table = ResultTable(
        f"Theorem 1 — write survival probability "
        f"(n={config.num_servers}, k={config.quorum_size})",
        ["ell", "bound_k_frac", "exact", "quorum_mc", "register_measured"],
    )
    for ell in range(config.max_lag + 1):
        bound = theorem1_survival_bound(
            config.num_servers, config.quorum_size, ell
        )
        reg = register.get(ell)
        reg_value = reg[0] / reg[1] if reg and reg[1] else float("nan")
        exact = theorem1_survival_exact(
            config.num_servers, config.quorum_size, ell
        )
        table.add_row(ell, bound, exact, monte_carlo[ell], reg_value)
    return table


def check_bound_holds(
    config: SurvivalConfig, slack: float = 0.02
) -> List[int]:
    """Lags at which the Monte Carlo estimate exceeds the bound + slack
    (should be empty — used by the tests)."""
    measured = quorum_level_survival(config)
    violations = []
    for ell, probability in measured.items():
        bound = theorem1_survival_bound(
            config.num_servers, config.quorum_size, ell
        )
        if probability > bound + slack:
            violations.append(ell)
    return violations


EXPERIMENT = Experiment(
    SurvivalConfig, ("survival",), each(survival_table), survival_tasks
)
