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
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.apsp import ApspACO
from repro.exec.cache import RunCache
from repro.exec.engine import run_many
from repro.exec.task import RunTask
from repro.exec.workers import build_graph
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


def _ablation_tasks(
    config: AblationConfig,
    stream: str,
    cells: List[Tuple[Any, Dict[str, Any], bool, int]],
) -> List[RunTask]:
    """Expand (cell_id, graph_spec, monotone, k) cells × delay × runs into
    tasks for one ablation table.  ``cells`` entries may override the
    delay spec via a 5th element."""
    tasks: List[RunTask] = []
    for cell in cells:
        cell_id, graph_spec, monotone, k = cell[:4]
        delay_spec = cell[4] if len(cell) > 4 else {"kind": "constant", "mean": 1.0}
        for run in range(config.runs):
            tasks.append(
                RunTask(
                    kind="alg1",
                    params={
                        "graph": graph_spec,
                        "quorum": {
                            "kind": "probabilistic",
                            "n": config.num_servers,
                            "k": k,
                        },
                        "delay": delay_spec,
                        "monotone": monotone,
                        "max_rounds": config.max_rounds,
                    },
                    seed=derive_seed(config.seed, stream, str(cell_id), run),
                )
            )
    return tasks


def _collect_means(
    results: List[dict], runs: int
) -> List[Tuple[float, bool]]:
    """Fold a flat result list (runs-per-cell contiguous) into per-cell
    (mean rounds, all converged) pairs."""
    cells = []
    for start in range(0, len(results), runs):
        group = results[start : start + runs]
        mean = sum(r["rounds"] for r in group) / len(group)
        cells.append((mean, all(r["converged"] for r in group)))
    return cells


def monotone_ablation(
    config: AblationConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """E-ABL-MONO: cache on vs off across quorum sizes."""
    chain_spec = {"kind": "chain", "n": config.num_vertices}
    sizes = [
        k
        for k in sorted({1, 2, config.quorum_size, config.num_servers // 2})
        if k >= 1
    ]
    cells = []
    for k in sizes:
        cells.append((f"mono-k{k}", chain_spec, True, k))
        cells.append((f"plain-k{k}", chain_spec, False, k))
    results = run_many(
        _ablation_tasks(config, "ablation-mono", cells), jobs=jobs, cache=cache
    )
    means = _collect_means(results, config.runs)
    table = ResultTable(
        f"Ablation — monotone cache (chain {config.num_vertices}, "
        f"n={config.num_servers})",
        ["k", "monotone_rounds", "plain_rounds", "plain_over_monotone"],
    )
    for index, k in enumerate(sizes):
        mono, _ = means[2 * index]
        plain, converged = means[2 * index + 1]
        ratio = plain / mono if mono else float("nan")
        table.add_row(k, mono, f"{plain}" if converged else f">={plain}", ratio)
    return table


def delay_ablation(
    config: AblationConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """E-ABL-DELAY: delay distribution sweep (monotone registers)."""
    chain_spec = {"kind": "chain", "n": config.num_vertices}
    models: List[Tuple[str, Dict[str, Any]]] = [
        ("constant (sync)", {"kind": "constant", "mean": 1.0}),
        ("exponential", {"kind": "exponential", "mean": 1.0}),
        ("uniform [0.5, 1.5]", {"kind": "uniform", "low": 0.5, "high": 1.5}),
        ("lognormal (heavy tail)", {"kind": "lognormal", "mean": 1.0, "sigma": 1.2}),
    ]
    cells = [
        (label, chain_spec, True, config.quorum_size, spec)
        for label, spec in models
    ]
    results = run_many(
        _ablation_tasks(config, "ablation-delay", cells), jobs=jobs, cache=cache
    )
    means = _collect_means(results, config.runs)
    table = ResultTable(
        f"Ablation — delay distribution (chain {config.num_vertices}, "
        f"n={config.num_servers}, k={config.quorum_size}, monotone)",
        ["delay_model", "mean_rounds", "all_converged"],
    )
    for (label, _), (mean, converged) in zip(models, means):
        table.add_row(label, mean, converged)
    return table


def topology_ablation(
    config: AblationConfig,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> ResultTable:
    """E-ABL-TOPO: rounds vs the pseudocycle bound M = ⌈log₂ d⌉."""
    n = config.num_vertices
    topologies: List[Tuple[str, Dict[str, Any]]] = [
        ("chain", {"kind": "chain", "n": n}),
        ("ring", {"kind": "ring", "n": n}),
        ("grid", {"kind": "grid", "rows": max(2, n // 4), "cols": 4}),
        (
            "random p=0.2",
            {
                "kind": "random",
                "n": n,
                "p": 0.2,
                "seed": derive_seed(config.seed, "ablation-topology-graph"),
            },
        ),
        ("complete", {"kind": "complete", "n": n}),
    ]
    cells = [
        (label, spec, True, config.quorum_size) for label, spec in topologies
    ]
    results = run_many(
        _ablation_tasks(config, "ablation-topo", cells), jobs=jobs, cache=cache
    )
    means = _collect_means(results, config.runs)
    table = ResultTable(
        f"Ablation — input topology (~{n} vertices, n={config.num_servers} "
        f"servers, k={config.quorum_size}, monotone)",
        ["topology", "vertices", "diameter_d", "M_bound", "mean_rounds"],
    )
    for (label, spec), (mean, converged) in zip(topologies, means):
        graph = build_graph(spec)
        table.add_row(
            label,
            graph.n,
            graph.hop_diameter(),
            ApspACO(graph).contraction_depth(),
            mean if converged else float("nan"),
        )
    return table
