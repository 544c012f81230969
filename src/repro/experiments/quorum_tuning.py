"""E-EXT-TUNE: tuning the constant in k = c·√n.

Malkhi, Reiter and Wright recommend k = c·√n, where the non-intersection
probability is at most e^{-c²}.  This extension experiment sweeps c and
reports, side by side, the analytic intersection probability, the
Theorem 4 success parameter q, the Corollary 7 convergence bound, and
*measured* rounds-to-convergence for the paper's APSP workload — showing
where extra replicas stop buying convergence speed (the knee near c ≈ 1).
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.theory import (
    corollary7_rounds_per_pseudocycle_bound,
    q_exact,
)
from repro.exec.cache import RunCache
from repro.exec.task import RunTask
from repro.exec.workers import alg1_task, run_cells
from repro.experiments.registry import Experiment, each, grid
from repro.experiments.results import ResultTable
from repro.quorum.probabilistic import ProbabilisticQuorumSystem


@dataclass
class TuningConfig:
    """Parameters for the c-sweep."""

    num_vertices: int = 16
    num_servers: int = 36
    c_values: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
    runs: int = 3
    max_rounds: int = 300
    seed: int = 71

    @classmethod
    def paper_scale(cls) -> "TuningConfig":
        return cls(num_vertices=34, num_servers=64, runs=5)

    @classmethod
    def scaled_down(cls) -> "TuningConfig":
        return cls(num_vertices=10, num_servers=16,
                   c_values=(0.25, 0.5, 1.0, 2.0), runs=2)


def _distinct_cells(config: TuningConfig) -> List[Tuple[float, int]]:
    """(c, k) pairs with duplicate k dropped (distinct c can collapse)."""
    n = config.num_servers
    cells = []
    seen_k = set()
    for c in config.c_values:
        k = min(n, max(1, math.ceil(c * math.sqrt(n))))
        if k in seen_k:
            continue
        seen_k.add(k)
        cells.append((c, k))
    return cells


def tuning_sweep(config: TuningConfig):
    """One cell per distinct quorum size, ``runs`` runs each."""

    def make_task(k: int, run: int) -> RunTask:
        return alg1_task(
            (config.seed, "tuning", k, run),
            graph={"kind": "chain", "n": config.num_vertices},
            quorum={"kind": "probabilistic", "n": config.num_servers, "k": k},
            delay={"kind": "constant", "mean": 1.0},
            monotone=True,
            max_rounds=config.max_rounds,
        )

    return [k for _, k in _distinct_cells(config)], config.runs, make_task


def tuning_rows(
    config: TuningConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> List[dict]:
    """One row per c: analytic properties plus measured rounds."""
    n = config.num_servers
    by_k = run_cells(*tuning_sweep(config), jobs=jobs, cache=cache)
    rows = []
    for c, k in _distinct_cells(config):
        rounds = [r["rounds"] for r in by_k[k] if r["converged"]]
        rows.append(
            {
                "c": c,
                "k": k,
                "intersection_prob": 1.0
                - ProbabilisticQuorumSystem(n, k).non_intersection_probability(),
                "q": q_exact(n, k),
                "cor7_bound": corollary7_rounds_per_pseudocycle_bound(n, k),
                "mean_rounds": (
                    sum(rounds) / len(rounds) if rounds else float("nan")
                ),
                "load": k / n,
            }
        )
    return rows


def tuning_table(
    config: TuningConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """The E-EXT-TUNE table."""
    table = ResultTable(
        f"Tuning k = c·sqrt(n): convergence vs load "
        f"(n={config.num_servers}, chain {config.num_vertices}, monotone)",
        ["c", "k", "intersection_prob", "q", "cor7_bound", "mean_rounds",
         "load"],
    )
    table.add_dict_rows(tuning_rows(config, jobs=jobs, cache=cache))
    return table


EXPERIMENT = Experiment(
    TuningConfig, ("quorum_tuning",), each(tuning_table), grid(tuning_sweep)
)
