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
from typing import List, Optional, Tuple

from repro.analysis.messages import (
    high_availability_comparison,
    optimal_load_comparison,
)
from repro.apps.apsp import ApspACO
from repro.apps.graphs import chain_graph
from repro.exec.cache import RunCache
from repro.exec.task import RunTask
from repro.exec.workers import alg1_task, run_cells
from repro.experiments.registry import Experiment, grid
from repro.experiments.results import ResultTable
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem


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


def _systems(config: MessageComplexityConfig):
    """label -> (quorum system, its spec, monotone client?) for the three
    implementations measured.

    The monotone client for the probabilistic system (the paper's
    recommended configuration), the plain client for strict systems
    (monotonicity is automatic when all quorums intersect).
    """
    n = config.num_servers
    k_prob = max(1, math.ceil(math.sqrt(n)))
    return {
        "probabilistic k=sqrt(n)": (
            ProbabilisticQuorumSystem(n, k_prob),
            {"kind": "probabilistic", "n": n, "k": k_prob},
            True,
        ),
        "strict majority": (
            MajorityQuorumSystem(n), {"kind": "majority", "n": n}, False,
        ),
        "strict grid": (
            GridQuorumSystem.square(n), {"kind": "grid_square", "n": n}, False,
        ),
    }


def measured_sweep(config: MessageComplexityConfig):
    """One run per measured system."""
    systems = _systems(config)

    def make_task(label: str, run: int) -> RunTask:
        _, quorum, monotone = systems[label]
        return alg1_task(
            (config.seed, "messages", label),
            graph={"kind": "chain", "n": config.num_vertices},
            quorum=quorum,
            delay={"kind": "constant", "mean": 1.0},
            monotone=monotone,
            max_rounds=config.max_rounds,
        )

    return list(systems), 1, make_task


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
    """Measured Alg. 1 message counts for the three implementations."""
    n = config.num_servers
    systems = _systems(config)
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
    results = run_cells(*measured_sweep(config), jobs=jobs, cache=cache)
    pseudocycles = ApspACO(chain_graph(config.num_vertices)).contraction_depth() or 1
    for label, (result,) in results.items():
        system = systems[label][0]
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


EXPERIMENT = Experiment(
    MessageComplexityConfig,
    ("messages_0", "messages_1", "messages_2"),
    lambda config, jobs, cache: [
        *analytic_tables(config.analytic_n_values, m=34, p=34),
        measured_table(config, jobs=jobs, cache=cache),
    ],
    grid(measured_sweep),
)
