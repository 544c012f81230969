"""The persistent warm worker pool behind :func:`repro.exec.engine.run_many`.

The engine used to build a fresh ``ProcessPoolExecutor`` per call and
tear it down afterwards, so every sweep paid full interpreter + import
start-up for each worker — on the scaled-down sweeps that overhead alone
erased the parallel win (the 0.982× BENCH_parallel record).  This module
keeps **one** pool alive for the life of the process:

* ``get_pool(workers)`` returns the warm pool, creating it on first use
  and recycling it only when the requested worker count changes;
* workers are initialised exactly once (a hermetic observability
  state, the ``REPRO_POOL_WORKER`` marker) and then reused across every
  subsequent ``run_many`` call;
* the kernel backend is never fixed at pool creation: every chunk
  dispatched carries the parent's requested backend and the worker
  re-syncs before executing (see :func:`run_chunk`), so a later
  ``--kernel`` / ``select_backend`` / ``REPRO_KERNEL`` change reaches
  warm workers and the pool stays warm across backend switches;
* ``shutdown_pool()`` is the explicit lifecycle exit, also registered
  with ``atexit`` so a CLI run or test session never leaks processes;
* after a worker crash (``BrokenProcessPool``) the engine calls
  ``shutdown_pool()`` — the broken executor is discarded and the next
  sweep builds a fresh one.

Chunk execution lives here too: :func:`run_chunk` runs a list of
:class:`~repro.exec.task.RunTask` objects and returns their payloads
whole — each task's metrics snapshot travels inside its payload, in the
chunk's one result pickle.
"""

import atexit
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from repro.exec.task import RunTask, execute_task
from repro.sim import kernel

#: Environment marker present only inside pool worker processes.  The
#: deliberate-crash self-test worker keys off it so the engine's serial
#: re-run of a crashed sweep completes instead of crashing the parent.
POOL_WORKER_ENV = "REPRO_POOL_WORKER"

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: int = 0
_pool_generation: int = 0


def is_pool_worker() -> bool:
    """True inside a process spawned by this module's pool."""
    return os.environ.get(POOL_WORKER_ENV) == "1"


def _initialize_worker() -> None:
    """One-time per-worker setup, run at pool creation.

    Marks the process as a pool worker and clears any observability
    session inherited through fork — worker metrics travel home inside
    the result payloads, never through an inherited session object.  The
    kernel backend is left to :func:`run_chunk`'s per-chunk re-sync.
    """
    os.environ[POOL_WORKER_ENV] = "1"
    from repro.obs import runtime as obs_runtime

    obs_runtime.deactivate()


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The warm pool, sized to ``workers`` processes.

    Reused verbatim while the requested size is unchanged; a different
    size recycles the pool (the only lifecycle event that loses warmth —
    backend changes re-sync in place, see :func:`run_chunk`).
    """
    global _pool, _pool_workers, _pool_generation
    if workers < 1:
        raise ValueError(f"pool needs at least one worker, got {workers}")
    if _pool is not None and _pool_workers != workers:
        shutdown_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_initialize_worker,
        )
        _pool_workers = workers
        _pool_generation += 1
    return _pool


def shutdown_pool(wait: bool = True) -> None:
    """Explicitly terminate the warm pool (idempotent)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=wait)
        _pool = None
        _pool_workers = 0


def pool_info() -> Dict[str, Any]:
    """Lifecycle diagnostics: is a pool warm, how big, which generation."""
    return {
        "alive": _pool is not None,
        "workers": _pool_workers,
        "generation": _pool_generation,
    }


atexit.register(shutdown_pool)


# --------------------------------------------------------------------- #
# Chunk execution (runs inside pool workers)
# --------------------------------------------------------------------- #


def run_chunk(tasks: Sequence[RunTask], backend: str) -> List[Any]:
    """Execute one chunk of tasks; the pool's only entry point.

    Returns each task's payload whole, its ``"metrics"`` snapshot inside.
    ``backend`` re-syncs a warm worker whose kernel backend differs from
    the parent's: ``select_backend`` is a cheap global write and the
    backend is consulted lazily per simulation, so syncing per chunk
    keeps the pool warm across ``--kernel`` changes.
    """
    kernel.sync_worker_backend(backend)
    return [execute_task(task) for task in tasks]


def warn(message: str) -> None:
    """One-line engine warning on stderr (kept here for easy monkeypatching)."""
    print(f"repro.exec: {message}", file=sys.stderr)
