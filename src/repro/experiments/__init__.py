"""Experiment harnesses: one module per paper artifact (see DESIGN.md §4).

Each module exposes a config dataclass with ``paper_scale()`` and
``scaled_down()`` sizes, the sweep it submits (cells × runs, one engine
task per point), a formatter producing the table/series the paper
reports, and an ``EXPERIMENT`` declaration tying the three together.
:data:`EXPERIMENTS` collects the declarations — the one list the CLI, the
benchmarks and the docs (:func:`describe`) iterate.  ``REPRO_FULL=1`` in
the environment switches benchmark invocations to full paper scale.
"""

from repro.experiments import (
    ablations,
    churn,
    fault_tolerance,
    figure2,
    freshness,
    latency,
    load_availability,
    message_complexity,
    pseudocycles,
    quorum_tuning,
    survival,
)
from repro.experiments.registry import Experiment
from repro.experiments.results import ResultTable, full_scale

#: command name -> its :class:`Experiment`, in the order ``all`` runs them.
EXPERIMENTS = {
    "ablations": ablations.EXPERIMENT,
    "churn": churn.EXPERIMENT,
    "fault": fault_tolerance.EXPERIMENT,
    "figure2": figure2.EXPERIMENT,
    "freshness": freshness.EXPERIMENT,
    "latency": latency.EXPERIMENT,
    "load": load_availability.EXPERIMENT,
    "messages": message_complexity.EXPERIMENT,
    "pseudocycles": pseudocycles.EXPERIMENT,
    "survival": survival.EXPERIMENT,
    "tuning": quorum_tuning.EXPERIMENT,
}


def describe() -> str:
    """The registry as the markdown table README.md and EXPERIMENTS.md
    carry (a test keeps the three in step)."""
    lines = [
        "| command | config | output stems | tasks (default / `--full`) |",
        "|---|---|---|---|",
    ]
    for name, experiment in EXPERIMENTS.items():
        sizes = " / ".join(
            "in process" if experiment.tasks is None
            else str(len(experiment.tasks(experiment.config(full))))
            for full in (False, True)
        )
        stems = ", ".join(f"`{stem}`" for stem in experiment.stems)
        lines.append(
            f"| `{name}` | `{experiment.config_class.__name__}` | "
            f"{stems} | {sizes} |"
        )
    return "\n".join(lines)


__all__ = ["EXPERIMENTS", "Experiment", "ResultTable", "describe", "full_scale"]
