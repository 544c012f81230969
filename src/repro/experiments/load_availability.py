"""E-LOADAVAIL: Section 4's load/availability comparison.

The paper reviews Naor-Wool: a strict quorum system can have optimal load
Θ(1/√n) *or* availability Ω(n), never both; Malkhi et al. break the
trade-off with probabilistic quorums.  The table here puts every
implemented system side by side — analytic load, Monte Carlo load,
availability, and the Naor-Wool lower bound — so the trade-off (and its
probabilistic escape) is visible in one screen.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.theory import naor_wool_load_lower_bound
from repro.experiments.registry import Experiment
from repro.experiments.results import ResultTable
from repro.quorum.analysis import empirical_load, failure_probability
from repro.quorum.base import QuorumSystem
from repro.quorum.fpp import FppQuorumSystem
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.quorum.singleton import SingletonQuorumSystem
from repro.quorum.tree import TreeQuorumSystem
from repro.sim.rng import RngRegistry


@dataclass
class LoadAvailabilityConfig:
    """Parameters for the load/availability table."""

    num_servers: int = 31        # 31 = 2^5-1 (tree) and close to 5^2+5+1=31 (FPP order 5)
    trials: int = 4000
    seed: int = 23
    crash_probability: float = 0.25
    #: The n sweep of :func:`tradeoff_sweep`.
    tradeoff_n_values: Tuple[int, ...] = (16, 36, 64)

    @classmethod
    def paper_scale(cls) -> "LoadAvailabilityConfig":
        return cls(num_servers=63, trials=20_000,
                   tradeoff_n_values=(16, 36, 64, 144))

    @classmethod
    def scaled_down(cls) -> "LoadAvailabilityConfig":
        """The defaults: analytic plus a small Monte Carlo, seconds as is."""
        return cls()


def build_systems(n: int) -> Dict[str, QuorumSystem]:
    """Every implemented quorum system instantiated near size n.

    Structured systems constrain n (grids need composites, FPPs need
    q²+q+1, trees need 2^d−1), so each is built at the largest feasible
    size <= n and the table reports its actual n.
    """
    systems: Dict[str, QuorumSystem] = {}
    k_opt = max(1, math.ceil(math.sqrt(n)))
    systems["probabilistic (k=sqrt n)"] = ProbabilisticQuorumSystem(n, k_opt)
    systems["majority"] = MajorityQuorumSystem(n)
    systems["singleton"] = SingletonQuorumSystem(n)
    side = max(1, math.isqrt(n))
    systems["grid"] = GridQuorumSystem(side, side)
    order = FppQuorumSystem.largest_order_for(n)
    if order is not None:
        systems["projective plane"] = FppQuorumSystem(order)
    tree_n = 1
    while 2 * tree_n + 1 <= n:
        tree_n = 2 * tree_n + 1
    if tree_n >= 3:
        systems["tree"] = TreeQuorumSystem(tree_n)
    return systems


def load_availability_experiment(
    config: LoadAvailabilityConfig,
) -> ResultTable:
    """The E-LOADAVAIL table."""
    rng = RngRegistry(config.seed).stream("load-availability")
    systems = build_systems(config.num_servers)
    table = ResultTable(
        f"Section 4 — load and availability (target n={config.num_servers}, "
        f"{config.trials} Monte Carlo accesses, crash prob. "
        f"{config.crash_probability})",
        [
            "system",
            "n",
            "quorum_size",
            "strict",
            "naor_wool_bound",
            "analytic_load",
            "empirical_load",
            "availability",
            "failure_prob",
        ],
    )
    for name in sorted(systems):
        system = systems[name]
        table.add_row(
            name,
            system.n,
            system.quorum_size,
            system.is_strict,
            naor_wool_load_lower_bound(system.n, system.quorum_size),
            system.analytic_load(),
            empirical_load(system, rng, config.trials),
            system.availability(),
            failure_probability(
                system, config.crash_probability, rng, config.trials
            ),
        )
    return table


def tradeoff_sweep(
    n_values: List[int], seed: int = 29, trials: int = 2000
) -> ResultTable:
    """Load × availability across n: the trade-off curve the paper cites.

    For each n: the probabilistic system at k=⌈√n⌉ (optimal load AND Θ(n)
    availability) vs majority (Θ(n) availability, load ≈ 1/2) vs grid
    (optimal load, O(√n) availability).
    """
    rng = RngRegistry(seed).stream("tradeoff")
    table = ResultTable(
        "Naor-Wool trade-off sweep: load and availability vs n",
        [
            "n",
            "prob_load",
            "prob_avail",
            "majority_load",
            "majority_avail",
            "grid_load",
            "grid_avail",
        ],
    )
    for n in n_values:
        prob = ProbabilisticQuorumSystem(n, max(1, math.ceil(math.sqrt(n))))
        majority = MajorityQuorumSystem(n)
        side = max(1, math.isqrt(n))
        grid = GridQuorumSystem(side, side)
        table.add_row(
            n,
            empirical_load(prob, rng, trials),
            prob.availability(),
            empirical_load(majority, rng, trials),
            majority.availability(),
            empirical_load(grid, rng, trials),
            grid.availability(),
        )
    return table


# Analytic plus in-process Monte Carlo: nothing goes to the engine.
EXPERIMENT = Experiment(
    LoadAvailabilityConfig,
    ("load_availability_0", "load_availability_1"),
    lambda config, jobs, cache: [
        load_availability_experiment(config),
        tradeoff_sweep(config.tradeoff_n_values),
    ],
)
