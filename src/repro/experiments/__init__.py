"""Experiment harnesses: one module per paper artifact (see DESIGN.md §4).

Each module exposes a config dataclass with ``paper_scale()`` and
``scaled_down()`` sizes, the sweep it submits (cells × runs, one engine
task per point), a formatter producing the table/series the paper
reports, and an ``EXPERIMENT`` declaration tying the three together.
:data:`EXPERIMENTS` collects the declarations — the one list the CLI, the
benchmarks and the docs iterate.  ``REPRO_FULL=1`` in
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


__all__ = ["EXPERIMENTS", "Experiment", "ResultTable", "full_scale"]
