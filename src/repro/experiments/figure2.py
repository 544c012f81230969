"""E-FIG2 / E-COR7: the paper's Figure 2 — quorum size vs rounds.

The paper's setup (Section 7): APSP on a directed 34-vertex unit-weight
chain (d = 33, so M = 6 pseudocycles), 34 replica servers, p = 34
processes (process i owns row i), quorum sizes 1..18 (from 18 up all
quorums of 34 servers intersect), four variants — {monotone, non-monotone}
× {synchronous, asynchronous} — seven runs per point, and the Corollary 7
upper bound M / (1 - ((n-k)/n)^k) for the monotone case.

Non-monotone runs at small quorum sizes may hit the round cap without
converging; like the paper's open squares, those means are *lower bounds*
and are flagged in the output.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.theory import corollary6_rounds_bound, q_lower_bound
from repro.apps.apsp import ApspACO
from repro.apps.graphs import chain_graph
from repro.exec.cache import RunCache
from repro.exec.task import RunTask
from repro.exec.workers import alg1_task, cell_tasks, run_cells
from repro.experiments.registry import Experiment
from repro.experiments.results import ResultTable

VARIANTS: Tuple[Tuple[str, bool, bool], ...] = (
    # (label, monotone, synchronous)
    ("monotone/sync", True, True),
    ("monotone/async", True, False),
    ("non-monotone/sync", False, True),
    ("non-monotone/async", False, False),
)


@dataclass
class Figure2Config:
    """Parameters of the Figure 2 sweep; defaults are the paper's."""

    num_vertices: int = 34
    num_servers: int = 34
    quorum_sizes: Tuple[int, ...] = tuple(range(1, 19))
    runs_per_point: int = 7
    max_rounds: int = 250
    base_seed: int = 2001
    mean_delay: float = 1.0
    variants: Tuple[Tuple[str, bool, bool], ...] = VARIANTS

    @classmethod
    def paper_scale(cls) -> "Figure2Config":
        """The paper's own parameters (the defaults); ``--full`` runs it."""
        return cls()

    @classmethod
    def scaled_down(cls) -> "Figure2Config":
        """A minutes-scale version preserving the figure's shape."""
        return cls(
            num_vertices=12,
            num_servers=12,
            quorum_sizes=(1, 2, 3, 4, 6, 7),
            runs_per_point=3,
            max_rounds=120,
        )


@dataclass
class Figure2Point:
    """One (variant, quorum size) cell of the figure."""

    variant: str
    quorum_size: int
    rounds: List[int] = field(default_factory=list)
    converged: List[bool] = field(default_factory=list)

    @property
    def mean_rounds(self) -> float:
        return sum(self.rounds) / len(self.rounds) if self.rounds else math.nan

    @property
    def all_converged(self) -> bool:
        return all(self.converged)

    @property
    def is_lower_bound(self) -> bool:
        """True when some run hit the cap — the mean underestimates, like
        the open squares in the paper's figure."""
        return not self.all_converged


def corollary7_curve(config: Figure2Config, pseudocycles: int) -> Dict[int, float]:
    """The analytic bound M / (1 - ((n-k)/n)^k) per quorum size."""
    return {
        k: corollary6_rounds_bound(
            pseudocycles, q_lower_bound(config.num_servers, k)
        )
        for k in config.quorum_sizes
    }


def figure2_sweep(config: Figure2Config):
    """The figure as a grid: one (label, monotone, synchronous, k) cell
    per point, ``runs_per_point`` runs each.

    Seeds are hash-derived from the base seed and the cell's coordinates
    (:func:`repro.sim.rng.derive_seed`), so every run's randomness is
    independent of execution order and of the other cells.
    """
    cells = [
        (label, monotone, synchronous, k)
        for label, monotone, synchronous in config.variants
        for k in config.quorum_sizes
    ]

    def make_task(cell, run: int) -> RunTask:
        label, monotone, synchronous, k = cell
        return alg1_task(
            (config.base_seed, "figure2", label, k, run),
            graph={"kind": "chain", "n": config.num_vertices},
            quorum={"kind": "probabilistic", "n": config.num_servers, "k": k},
            delay={
                "kind": "constant" if synchronous else "exponential",
                "mean": config.mean_delay,
            },
            monotone=monotone,
            max_rounds=config.max_rounds,
        )

    return cells, config.runs_per_point, make_task


def figure2_tasks(config: Figure2Config) -> List[RunTask]:
    """The sweep as a flat task list: one task per (variant, k, run)."""
    return cell_tasks(*figure2_sweep(config))


def run_figure2(
    config: Figure2Config,
    progress=None,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> List[Figure2Point]:
    """Run the full sweep; returns one point per (variant, quorum size).

    ``jobs``/``cache`` are forwarded to :func:`repro.exec.engine.run_many`;
    results are bit-identical for every job count.
    """
    points: List[Figure2Point] = []
    by_cell = run_cells(*figure2_sweep(config), jobs=jobs, cache=cache)
    for (label, _, _, k), results in by_cell.items():
        points.append(
            Figure2Point(
                label,
                k,
                [result["rounds"] for result in results],
                [result["converged"] for result in results],
            )
        )
        if progress is not None:
            for run, result in enumerate(results):
                progress(label, k, run, result)
    return points


def figure2_table(
    config: Figure2Config, points: List[Figure2Point]
) -> ResultTable:
    """The figure as a table: one row per quorum size, one column per
    variant, plus the Corollary 7 bound — the series of Figure 2."""
    graph = chain_graph(config.num_vertices)
    pseudocycles = ApspACO(graph).contraction_depth()
    bound = corollary7_curve(config, pseudocycles)
    by_cell = {(p.variant, p.quorum_size): p for p in points}
    labels = [label for label, _, _ in config.variants]
    table = ResultTable(
        f"Figure 2 — quorum size vs rounds (n={config.num_servers}, "
        f"chain of {config.num_vertices}, M={pseudocycles}, "
        f"{config.runs_per_point} runs/point; '>=' marks round-cap lower bounds)",
        ["k", "cor7_bound"] + labels,
    )
    for k in config.quorum_sizes:
        row: List[object] = [k, bound[k]]
        for label in labels:
            point = by_cell.get((label, k))
            if point is None or not point.rounds:
                row.append("-")
            else:
                mean = point.mean_rounds
                row.append(f">={mean:.2f}" if point.is_lower_bound else f"{mean:.2f}")
        table.add_row(*row)
    return table


EXPERIMENT = Experiment(
    Figure2Config,
    ("figure2",),
    lambda config, jobs, cache: [
        figure2_table(config, run_figure2(config, jobs=jobs, cache=cache))
    ],
    figure2_tasks,
)
