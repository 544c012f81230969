"""E-COR7: measured rounds per pseudocycle vs the Theorem 5 bound.

Figure 2 only reports rounds to convergence; the quantity Theorem 5 and
Corollary 7 actually bound is *rounds per pseudocycle*.  This experiment
reconstructs each execution's update sequence from its register
histories (:mod:`repro.iterative.trace`), extracts the [B1]/[B2]
pseudocycles, and compares the measured ratio against both the exact
1/q (Theorem 5 with Theorem 4's q) and Corollary 7's looser
1/(1-((n-k)/n)^k).

The paper's Section 7 notes the bound is loose because "a read could
obtain a value more recent than a given write without having to overlap
any of that write's replicas" — the measured column quantifies exactly
how loose.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.theory import (
    corollary7_rounds_per_pseudocycle_bound,
    expected_rounds_upper_bound,
    q_exact,
)
from repro.exec.cache import RunCache
from repro.exec.task import RunTask
from repro.exec.workers import alg1_task, run_cells
from repro.experiments.registry import Experiment, each, grid
from repro.experiments.results import ResultTable


@dataclass
class PseudocycleConfig:
    """Parameters for the rounds-per-pseudocycle measurement."""

    num_vertices: int = 16
    num_servers: int = 16
    quorum_sizes: Tuple[int, ...] = (1, 2, 3, 4, 6, 8)
    runs: int = 3
    max_rounds: int = 300
    seed: int = 41

    @classmethod
    def paper_scale(cls) -> "PseudocycleConfig":
        return cls(num_vertices=34, num_servers=34,
                   quorum_sizes=(1, 2, 3, 4, 6, 8, 12), runs=5)

    @classmethod
    def scaled_down(cls) -> "PseudocycleConfig":
        return cls(num_vertices=10, num_servers=10,
                   quorum_sizes=(1, 2, 4), runs=2)


def pseudocycle_sweep(config: PseudocycleConfig):
    """Quorum sizes × runs, with in-worker pseudocycle measurement (the
    trace reconstruction needs the register histories, so it must happen
    where the run executed)."""

    def make_task(k: int, run: int) -> RunTask:
        return alg1_task(
            (config.seed, "pseudocycles", k, run),
            graph={"kind": "chain", "n": config.num_vertices},
            quorum={"kind": "probabilistic", "n": config.num_servers, "k": k},
            delay={"kind": "constant", "mean": 1.0},
            monotone=True,
            max_rounds=config.max_rounds,
            measure_pseudocycles=True,
        )

    return config.quorum_sizes, config.runs, make_task


def measure(
    config: PseudocycleConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> List[dict]:
    """One row per quorum size: measured ratio and the two bounds."""
    rows = []
    by_k = run_cells(*pseudocycle_sweep(config), jobs=jobs, cache=cache)
    for k, results in by_k.items():
        ratios = [
            result["rounds"] / result["pseudocycles"]
            for result in results
            if result["converged"] and result["pseudocycles"] > 0
        ]
        q = q_exact(config.num_servers, k)
        rows.append(
            {
                "k": k,
                "measured_rounds_per_pc": (
                    sum(ratios) / len(ratios) if ratios else float("nan")
                ),
                "theorem5_bound": expected_rounds_upper_bound(q),
                "corollary7_bound": corollary7_rounds_per_pseudocycle_bound(
                    config.num_servers, k
                ),
            }
        )
    return rows


def pseudocycle_table(
    config: PseudocycleConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """The E-COR7 table."""
    table = ResultTable(
        f"Corollary 7 — measured rounds per pseudocycle vs bounds "
        f"(chain {config.num_vertices}, n={config.num_servers}, monotone)",
        ["k", "measured_rounds_per_pc", "theorem5_bound", "corollary7_bound"],
    )
    table.add_dict_rows(measure(config, jobs=jobs, cache=cache))
    return table


EXPERIMENT = Experiment(
    PseudocycleConfig,
    ("pseudocycles",),
    each(pseudocycle_table),
    grid(pseudocycle_sweep),
)
