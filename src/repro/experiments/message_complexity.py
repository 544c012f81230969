"""E-MSG: the message-complexity comparison of Section 6.4.

Two regimes, each compared analytically (Eqns 1-3) *and* by measurement
(running Alg. 1 and counting actual messages):

* **high availability** — probabilistic quorums at k = ⌈√n⌉ vs the
  majority system at k = ⌊n/2⌋+1.  The paper: Θ(mp√n) vs Θ(mpn), so the
  ratio grows as Θ(√n) in the probabilistic system's favour.
* **optimal load** — probabilistic at k = ⌈√n⌉ vs a strict grid system of
  the same quorum size.  The paper: same asymptotic message complexity
  (within the constant c_n ∈ (1,2)), but availability Θ(n) vs O(√n).
"""

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.messages import (
    high_availability_comparison,
    optimal_load_comparison,
)
from repro.apps.apsp import ApspACO
from repro.apps.graphs import chain_graph
from repro.exec.cache import RunCache
from repro.exec.engine import run_many
from repro.exec.task import RunTask
from repro.experiments.results import ResultTable
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.sim.rng import derive_seed


@dataclass
class MessageComplexityConfig:
    """Parameters for the message-complexity measurement."""

    num_vertices: int = 16       # m = p = number of vertices
    num_servers: int = 16        # n replicas (grid-friendly square)
    max_rounds: int = 250
    seed: int = 5
    #: The n sweep of the analytic (Eqns 1-3) tables.
    analytic_n_values: Tuple[int, ...] = (16, 64, 256, 1024)

    @classmethod
    def paper_scale(cls) -> "MessageComplexityConfig":
        return cls()

    @classmethod
    def scaled_down(cls) -> "MessageComplexityConfig":
        return cls(num_vertices=9, num_servers=9, max_rounds=150,
                   analytic_n_values=(16, 64, 256))


def _measure_task(
    config: MessageComplexityConfig,
    label: str,
    quorum_spec: Dict[str, Any],
    monotone: bool,
) -> RunTask:
    return RunTask(
        kind="alg1",
        params={
            "graph": {"kind": "chain", "n": config.num_vertices},
            "quorum": quorum_spec,
            "delay": {"kind": "constant", "mean": 1.0},
            "monotone": monotone,
            "max_rounds": config.max_rounds,
        },
        seed=derive_seed(config.seed, "messages", label),
    )


def analytic_tables(n_values: List[int], m: int, p: int) -> List[ResultTable]:
    """The two Section 6.4 regime tables from Eqns 1-3, over an n sweep."""
    availability = ResultTable(
        f"Section 6.4 (analytic) — high-availability regime (m={m}, p={p}): "
        "probabilistic k=⌈√n⌉ vs strict majority",
        [
            "n",
            "k_probabilistic",
            "k_majority",
            "M_prob",
            "M_str_majority",
            "strict_over_prob",
        ],
    )
    for n in n_values:
        row = high_availability_comparison(n, m, p)
        availability.add_row(
            row["n"],
            row["k_probabilistic"],
            row["k_majority"],
            row["M_prob"],
            row["M_str_majority"],
            row["strict_over_prob"],
        )
    load = ResultTable(
        f"Section 6.4 (analytic) — optimal-load regime (m={m}, p={p}): "
        "probabilistic vs strict grid at k=⌈√n⌉",
        [
            "n",
            "k",
            "M_prob",
            "M_str_optimal_load",
            "prob_over_strict",
            "availability_probabilistic",
            "availability_strict_grid",
        ],
    )
    for n in n_values:
        row = optimal_load_comparison(n, m, p)
        load.add_row(
            row["n"],
            row["k"],
            row["M_prob"],
            row["M_str_optimal_load"],
            row["prob_over_strict"],
            row["availability_probabilistic"],
            row["availability_strict_grid"],
        )
    return [availability, load]


def measured_table(
    config: MessageComplexityConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """Measured Alg. 1 message counts for the three implementations.

    Uses the monotone client for the probabilistic system (the paper's
    recommended configuration) and the plain client for strict systems
    (monotonicity is automatic when all quorums intersect).
    """
    n = config.num_servers
    k_prob = max(1, math.ceil(math.sqrt(n)))
    systems = [
        (
            "probabilistic k=sqrt(n)",
            ProbabilisticQuorumSystem(n, k_prob),
            {"kind": "probabilistic", "n": n, "k": k_prob},
            True,
        ),
        (
            "strict majority",
            MajorityQuorumSystem(n),
            {"kind": "majority", "n": n},
            False,
        ),
        (
            "strict grid",
            GridQuorumSystem.square(n),
            {"kind": "grid_square", "n": n},
            False,
        ),
    ]
    table = ResultTable(
        f"Section 6.4 (measured) — APSP chain m=p={config.num_vertices}, "
        f"n={n} servers",
        [
            "system",
            "quorum_size",
            "availability",
            "converged",
            "rounds",
            "messages",
            "messages_per_round",
            "messages_per_pseudocycle",
        ],
    )
    tasks = [
        _measure_task(config, label, spec, monotone)
        for label, _, spec, monotone in systems
    ]
    results = run_many(tasks, jobs=jobs, cache=cache)
    pseudocycles = ApspACO(chain_graph(config.num_vertices)).contraction_depth() or 1
    for (label, system, _, _), result in zip(systems, results):
        rounds = result["rounds"]
        table.add_row(
            label,
            system.quorum_size,
            system.availability(),
            result["converged"],
            rounds,
            result["messages"],
            result["messages"] / rounds if rounds else 0.0,
            result["messages"] / pseudocycles,
        )
    return table
