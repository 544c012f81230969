"""The parallel run engine: fan independent tasks out over processes.

Every experiment in this reproduction is an embarrassingly parallel sweep
of self-contained simulations — each task carries its own derived seed, so
execution order and placement cannot change any number.  ``run_many``
exploits that: it executes a task list serially (``jobs=1``) or over the
**persistent warm worker pool** (:mod:`repro.exec.pool`), returns results
**in task order**, and is bit-identical either way.

Parallel execution streams: tasks are submitted in compact chunks and
results are consumed **as each chunk completes** — every finished task is
cache-written immediately, so a worker crash (``BrokenProcessPool``)
mid-sweep loses nothing that already ran.  The engine then recycles the
broken pool, warns on stderr, and finishes the remaining tasks serially
in-process; the sweep's results are identical to an undisturbed run.

Worker metrics snapshots travel home inside their task's payload, in the
chunk's result pickle — the same payload a serial run or a cache hit
returns — and are folded into the active observability session **in
task order**, which is what keeps pooled metrics output byte-identical
to serial.

Job-count resolution, in priority order: the explicit ``jobs`` argument,
the ``REPRO_JOBS`` environment variable, then the caller's default
(library calls default to serial; the CLI defaults to
:func:`default_jobs`).
"""

import math
import os
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.exec import pool as exec_pool
from repro.exec.cache import MISS, RunCache
from repro.exec.task import RunTask, execute_task
from repro.obs import runtime as obs_runtime
from repro.sim import kernel

#: Ceiling for the automatic CLI default — beyond this, per-process
#: startup and result pickling dominate for the scaled-down sweeps.
MAX_DEFAULT_JOBS = 8

ProgressFn = Callable[[int, RunTask, Any], None]


def default_jobs(cap: int = MAX_DEFAULT_JOBS) -> int:
    """``os.cpu_count()`` capped — the CLI's default worker count."""
    return max(1, min(os.cpu_count() or 1, cap))


def resolve_jobs(jobs: Optional[int] = None, default: int = 1) -> int:
    """Resolve a job count from the argument, ``REPRO_JOBS``, or default."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    return max(1, int(default))


def _chunksize(pending: int, jobs: int) -> int:
    """Amortise IPC overhead while keeping the pool load-balanced: about
    four waves of chunks per worker."""
    return max(1, math.ceil(pending / (jobs * 4)))


def run_many(
    tasks: Iterable[RunTask],
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    progress: Optional[ProgressFn] = None,
) -> List[Any]:
    """Execute ``tasks`` and return their results in task order.

    :param jobs: worker processes; ``None`` consults ``REPRO_JOBS`` and
        falls back to serial in-process execution.  Results are identical
        for every value — parallelism is purely a wall-clock optimisation.
    :param cache: optional :class:`RunCache`; hits skip execution entirely
        and fresh results are written back as they complete.
    :param progress: called as ``progress(index, task, result)`` once per
        task, in task order.
    """
    task_list: Sequence[RunTask] = list(tasks)
    results: List[Any] = [None] * len(task_list)
    pending_indices: List[int] = []
    for index, task in enumerate(task_list):
        if cache is not None:
            hit = cache.get(task)
            if hit is not MISS:
                results[index] = hit
                continue
        pending_indices.append(index)

    jobs_resolved = resolve_jobs(jobs)
    if pending_indices:
        if jobs_resolved <= 1 or len(pending_indices) == 1:
            _run_serial(task_list, pending_indices, results, cache)
        else:
            _run_pooled(
                task_list, pending_indices, results, cache, jobs_resolved
            )

    _merge_metrics(results)
    if progress is not None:
        for index, task in enumerate(task_list):
            progress(index, task, results[index])
    return results


def _run_serial(
    task_list: Sequence[RunTask],
    pending_indices: Sequence[int],
    results: List[Any],
    cache: Optional[RunCache],
) -> None:
    """In-process execution with incremental cache writes."""
    for index in pending_indices:
        result = execute_task(task_list[index])
        results[index] = result
        if cache is not None:
            cache.put(task_list[index], result)


def _run_pooled(
    task_list: Sequence[RunTask],
    pending_indices: Sequence[int],
    results: List[Any],
    cache: Optional[RunCache],
    jobs: int,
) -> None:
    """Warm-pool execution: chunked submit, streaming consumption and
    crash recovery.  Payloads come home whole, metrics snapshots inside."""
    workers = min(jobs, len(pending_indices))
    chunk = _chunksize(len(pending_indices), workers)
    chunks = [
        pending_indices[start:start + chunk]
        for start in range(0, len(pending_indices), chunk)
    ]
    backend = kernel.requested_backend()
    done: set = set()
    absorbed: set = set()

    def _absorb(future: Future, chunk_indices: Sequence[int],
                chunk_results: List[Any]) -> None:
        if future in absorbed:
            return
        absorbed.add(future)
        for index, result in zip(chunk_indices, chunk_results):
            results[index] = result
            if cache is not None:
                cache.put(task_list[index], result)
            done.add(index)

    executor = exec_pool.get_pool(jobs)
    futures: Dict[Future, List[int]] = {}
    try:
        for chunk_indices in chunks:
            futures[executor.submit(
                exec_pool.run_chunk,
                [task_list[index] for index in chunk_indices],
                backend,
            )] = chunk_indices
        not_done = set(futures)
        while not_done:
            finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in finished:
                _absorb(future, futures[future], future.result())
    except BrokenProcessPool:
        # A worker died (segfault, OOM kill, os._exit).  Everything
        # already streamed in is safe; salvage any chunks that finished
        # but were not yet consumed, then fall back to serial execution
        # for the rest.
        for future, chunk_indices in futures.items():
            if (
                future.done()
                and not future.cancelled()
                and future.exception() is None
            ):
                _absorb(future, chunk_indices, future.result())
        exec_pool.shutdown_pool(wait=True)  # no live workers to join
        remaining = [index for index in pending_indices if index not in done]
        exec_pool.warn(
            f"worker process died mid-sweep; {len(done)} "
            f"completed result(s) kept, re-running {len(remaining)} "
            f"remaining task(s) serially"
        )
        _run_serial(task_list, remaining, results, cache)
    except BaseException:
        # A genuine task error (or KeyboardInterrupt): stop feeding the
        # pool, keep it alive for the next sweep, propagate.
        for future in futures:
            future.cancel()
        raise


def _merge_metrics(results: Sequence[Any]) -> None:
    """Fold worker metric snapshots into the active observability session.

    Every snapshot arrives under its payload's ``"metrics"`` key, whether
    the task ran serially, in a pool worker or came from the cache.
    Merging happens here, in **task order**, which keeps the aggregate
    registry bit-deterministic regardless of pool scheduling — float
    sums round identically only when added in the same order.
    """
    session = obs_runtime.active()
    if session is None or session.metrics is None:
        return
    for result in results:
        if isinstance(result, dict):
            snapshot = result.get("metrics")
            if isinstance(snapshot, dict):
                session.metrics.merge_snapshot(snapshot)
