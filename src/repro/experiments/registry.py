"""What one registered experiment is.

Every artifact module ends in an ``EXPERIMENT = Experiment(...)``
declaration; :data:`repro.experiments.EXPERIMENTS` collects them, and the
CLI's artifact commands and ``all``, the ``benchmarks/bench_*.py``
modules and the documentation tables all iterate that one mapping.
"""

import dataclasses
from typing import Any, Callable, List, Mapping, Optional, Tuple

from repro.exec.cache import RunCache
from repro.exec.task import RunTask
from repro.exec.workers import cell_tasks
from repro.experiments.results import ResultTable, full_scale

#: ``build(config, jobs, cache)`` -> one table per output stem, in order.
Build = Callable[[Any, Optional[int], Optional[RunCache]], List[ResultTable]]

#: The fault-model CLI flags (argparse dests) and the config fields they set.
FAULT_FLAGS = {"loss_rate": "loss_rate", "op_deadline": "operation_deadline"}


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One paper artifact: its configuration, tables and engine tasks."""

    config_class: type
    #: Output file stems, one per table (``--output DIR`` writes
    #: ``DIR/<stem>.txt`` and ``.csv``).
    stems: Tuple[str, ...]
    build: Build
    #: Every engine task ``build`` submits, in submission order; None for
    #: an artifact computed in process (analytic, in-line Monte Carlo).
    tasks: Optional[Callable[[Any], List[RunTask]]] = None
    #: CLI flag (argparse dest) -> the config field it overrides.
    overrides: Mapping[str, str] = dataclasses.field(default_factory=dict)

    def config(self, full: Optional[bool] = None, **flags: Any) -> Any:
        """The configuration to run at.

        ``paper_scale()`` when ``full`` — by default, when ``REPRO_FULL=1``
        — else ``scaled_down()``; then every flag this experiment declares
        in ``overrides`` and that is not None replaces its field.
        """
        scale = full_scale() if full is None else full
        config = (
            self.config_class.paper_scale() if scale
            else self.config_class.scaled_down()
        )
        changes = {
            field: flags[flag]
            for flag, field in self.overrides.items()
            if flags.get(flag) is not None
        }
        return dataclasses.replace(config, **changes)

    def tables(
        self,
        config: Any,
        jobs: Optional[int] = None,
        cache: Optional[RunCache] = None,
    ) -> List[Tuple[str, ResultTable]]:
        """Regenerate the artifact: ``[(output stem, table)]``."""
        return list(zip(self.stems, self.build(config, jobs, cache)))


def each(*table_functions: Callable[..., ResultTable]) -> Build:
    """A Build calling each ``table_function(config, jobs=, cache=)``."""
    return lambda config, jobs, cache: [
        build(config, jobs=jobs, cache=cache) for build in table_functions
    ]


def grid(*sweeps: Callable[[Any], tuple]) -> Callable[[Any], List[RunTask]]:
    """The tasks of ``sweep(config) -> (cells, runs, make_task)`` grids,
    sweep after sweep — what ``run_cells(*sweep(config))`` submits."""
    return lambda config: [
        task for sweep in sweeps for task in cell_tasks(*sweep(config))
    ]
