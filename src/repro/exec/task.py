"""Picklable run descriptors for the parallel execution engine.

A :class:`RunTask` is a pure-data description of one independent
simulation or Monte Carlo shard: an experiment *kind* (a key into
:data:`WORKER_REGISTRY`), a JSON-serialisable parameter mapping, and the
derived root seed for every random draw in the run.  Because a task is
data only, it can be pickled to a worker process, hashed into a stable
cache key, and re-executed bit-identically anywhere.
"""

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping

#: kind -> "module.path:function" resolved lazily in the executing process.
#: Lazy dotted paths keep this module import-light (workers import the sim
#: stack; experiment modules import this one) and make tasks picklable as
#: plain data.
WORKER_REGISTRY: Dict[str, str] = {
    "alg1": "repro.exec.workers:run_alg1_task",
    "latency": "repro.experiments.latency:run_latency_task",
    "survival_mc": "repro.experiments.survival:run_survival_mc_task",
    "survival_register": "repro.experiments.survival:run_survival_register_task",
    "freshness_mc": "repro.experiments.freshness:run_freshness_mc_task",
    "freshness_register": "repro.experiments.freshness:run_freshness_register_task",
    # Engine self-test kinds (repro.exec.testing): trivial workers that
    # report where they ran or deliberately kill their pool worker.  Used
    # by the pool tests and the CI crash-recovery smoke; never cached by
    # real experiments.
    "exec_probe": "repro.exec.testing:run_probe_task",
    "exec_crash": "repro.exec.testing:run_crash_task",
}


class UnknownTaskKind(KeyError):
    """Raised when a task names a kind absent from the registry."""


@dataclass(frozen=True)
class RunTask:
    """One independent unit of experimental work.

    ``params`` must contain only JSON-serialisable values (numbers, bools,
    strings, None, and nested lists/dicts of those) — it is both the
    worker's input and part of the on-disk cache key.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def descriptor(self) -> Dict[str, Any]:
        """The canonical JSON-ready form of this task."""
        return {"kind": self.kind, "params": dict(self.params), "seed": self.seed}

    def canonical(self) -> str:
        """A canonical string encoding (sorted keys, no whitespace)."""
        try:
            return json.dumps(
                self.descriptor(), sort_keys=True, separators=(",", ":")
            )
        except TypeError as error:
            raise TypeError(
                f"RunTask params must be JSON-serialisable: {error}"
            ) from None


def task_key(task: RunTask) -> str:
    """A stable content hash of the task, used as its cache key."""
    return hashlib.blake2b(
        task.canonical().encode("utf-8"), digest_size=16
    ).hexdigest()


def resolve_worker(kind: str) -> Callable[[RunTask], Any]:
    """Import and return the worker function for ``kind``."""
    try:
        dotted = WORKER_REGISTRY[kind]
    except KeyError:
        raise UnknownTaskKind(
            f"unknown task kind {kind!r}; known: {sorted(WORKER_REGISTRY)}"
        ) from None
    module_name, _, attribute = dotted.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attribute)


def execute_task(task: RunTask) -> Any:
    """Execute one task in the current process and return its result.

    This is the function worker processes run; results must be
    JSON-serialisable so they can be cached and shipped back cheaply.
    """
    return resolve_worker(task.kind)(task)
