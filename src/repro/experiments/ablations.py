"""E-ABL-*: ablations of the design choices DESIGN.md calls out.

1. **Monotone cache** (E-ABL-MONO): the Section 6.2 modification toggled
   on/off on the same workload — isolates how much of the convergence
   speedup comes from the per-client timestamp cache.
2. **Delay distribution** (E-ABL-DELAY): the paper claims sync ≈ async
   because the round structure averages delays out; we stress this with
   uniform and heavy-tailed lognormal delays.
3. **Topology** (E-ABL-TOPO): APSP convergence is M = ⌈log₂ d⌉
   pseudocycles; varying the input graph's diameter d should shift rounds
   proportionally to M.
"""

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro import specs
from repro.apps.apsp import ApspACO
from repro.apps.graphs import KINDS as GRAPH_KINDS
from repro.exec.cache import RunCache
from repro.exec.task import RunTask
from repro.exec.workers import alg1_task, run_cells
from repro.experiments.registry import Experiment, each, grid
from repro.experiments.results import ResultTable
from repro.sim.rng import derive_seed


@dataclass
class AblationConfig:
    """Shared parameters for the ablation experiments."""

    num_vertices: int = 16
    num_servers: int = 16
    quorum_size: int = 3
    runs: int = 3
    max_rounds: int = 250
    seed: int = 31

    @classmethod
    def paper_scale(cls) -> "AblationConfig":
        return cls(num_vertices=34, num_servers=34, runs=5)

    @classmethod
    def scaled_down(cls) -> "AblationConfig":
        return cls(num_vertices=10, num_servers=10, runs=2, max_rounds=150)


_SYNC_DELAY = {"kind": "constant", "mean": 1.0}

#: One ablation table's grid: cell label -> (graph spec, monotone, k,
#: delay spec), each run ``config.runs`` times.
Cells = Dict[str, Tuple[Dict[str, Any], bool, int, Dict[str, Any]]]


def _monotone_cells(config: AblationConfig) -> Cells:
    chain = {"kind": "chain", "n": config.num_vertices}
    sizes = {1, 2, config.quorum_size, config.num_servers // 2}
    cells: Cells = {}
    for k in sorted(k for k in sizes if k >= 1):
        cells[f"mono-k{k}"] = (chain, True, k, _SYNC_DELAY)
        cells[f"plain-k{k}"] = (chain, False, k, _SYNC_DELAY)
    return cells


def _delay_cells(config: AblationConfig) -> Cells:
    chain = {"kind": "chain", "n": config.num_vertices}
    models = {
        "constant (sync)": _SYNC_DELAY,
        "exponential": {"kind": "exponential", "mean": 1.0},
        "uniform [0.5, 1.5]": {"kind": "uniform", "low": 0.5, "high": 1.5},
        "lognormal (heavy tail)": {
            "kind": "lognormal", "mean": 1.0, "sigma": 1.2,
        },
    }
    return {
        label: (chain, True, config.quorum_size, delay)
        for label, delay in models.items()
    }


def _topology_cells(config: AblationConfig) -> Cells:
    n = config.num_vertices
    graphs = {
        "chain": {"kind": "chain", "n": n},
        "ring": {"kind": "ring", "n": n},
        "grid": {"kind": "grid", "rows": max(2, n // 4), "cols": 4},
        "random p=0.2": {
            "kind": "random",
            "n": n,
            "p": 0.2,
            "seed": derive_seed(config.seed, "ablation-topology-graph"),
        },
        "complete": {"kind": "complete", "n": n},
    }
    return {
        label: (graph, True, config.quorum_size, _SYNC_DELAY)
        for label, graph in graphs.items()
    }


def _sweep(stream: str, cells_of: Callable[[AblationConfig], Cells]):
    """The sweep(config) of one ablation table, seeded under ``stream``."""

    def sweep(config: AblationConfig):
        cells = cells_of(config)

        def make_task(label: str, run: int) -> RunTask:
            graph, monotone, k, delay = cells[label]
            return alg1_task(
                (config.seed, stream, label, run),
                graph=graph,
                quorum={
                    "kind": "probabilistic", "n": config.num_servers, "k": k,
                },
                delay=delay,
                monotone=monotone,
                max_rounds=config.max_rounds,
            )

        return list(cells), config.runs, make_task

    return sweep


_monotone_sweep = _sweep("ablation-mono", _monotone_cells)
_delay_sweep = _sweep("ablation-delay", _delay_cells)
_topology_sweep = _sweep("ablation-topo", _topology_cells)


def _mean_rounds(
    sweep, config: AblationConfig, jobs: Optional[int], cache: Optional[RunCache]
) -> Dict[str, Tuple[float, bool]]:
    """Run one table's sweep; fold each cell into (mean rounds, all
    converged)."""
    by_cell = run_cells(*sweep(config), jobs=jobs, cache=cache)
    return {
        label: (
            sum(r["rounds"] for r in group) / len(group),
            all(r["converged"] for r in group),
        )
        for label, group in by_cell.items()
    }


def monotone_ablation(
    config: AblationConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """E-ABL-MONO: cache on vs off across quorum sizes."""
    means = _mean_rounds(_monotone_sweep, config, jobs, cache)
    table = ResultTable(
        f"Ablation — monotone cache (chain {config.num_vertices}, "
        f"n={config.num_servers})",
        ["k", "monotone_rounds", "plain_rounds", "plain_over_monotone"],
    )
    for k in sorted({cell[2] for cell in _monotone_cells(config).values()}):
        mono, _ = means[f"mono-k{k}"]
        plain, converged = means[f"plain-k{k}"]
        ratio = plain / mono if mono else float("nan")
        table.add_row(k, mono, f"{plain}" if converged else f">={plain}", ratio)
    return table


def delay_ablation(
    config: AblationConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """E-ABL-DELAY: delay distribution sweep (monotone registers)."""
    means = _mean_rounds(_delay_sweep, config, jobs, cache)
    table = ResultTable(
        f"Ablation — delay distribution (chain {config.num_vertices}, "
        f"n={config.num_servers}, k={config.quorum_size}, monotone)",
        ["delay_model", "mean_rounds", "all_converged"],
    )
    for label, (mean, converged) in means.items():
        table.add_row(label, mean, converged)
    return table


def topology_ablation(
    config: AblationConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """E-ABL-TOPO: rounds vs the pseudocycle bound M = ⌈log₂ d⌉."""
    means = _mean_rounds(_topology_sweep, config, jobs, cache)
    graphs = {
        label: specs.build("graph", GRAPH_KINDS, cell[0])
        for label, cell in _topology_cells(config).items()
    }
    table = ResultTable(
        f"Ablation — input topology (~{config.num_vertices} vertices, "
        f"n={config.num_servers} servers, k={config.quorum_size}, monotone)",
        ["topology", "vertices", "diameter_d", "M_bound", "mean_rounds"],
    )
    for label, (mean, converged) in means.items():
        graph = graphs[label]
        table.add_row(
            label,
            graph.n,
            graph.hop_diameter(),
            ApspACO(graph).contraction_depth(),
            mean if converged else float("nan"),
        )
    return table


EXPERIMENT = Experiment(
    AblationConfig,
    ("ablations_0", "ablations_1", "ablations_2"),
    each(monotone_ablation, delay_ablation, topology_ablation),
    grid(_monotone_sweep, _delay_sweep, _topology_sweep),
)
