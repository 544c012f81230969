"""Engine self-test workers: observe placement, or kill a pool worker.

These tiny task kinds exist so the pool's lifecycle guarantees are
testable through the public ``run_many`` API instead of by poking
executor internals:

* ``exec_probe`` reports where and how the task ran — process id, pool
  membership, and the worker's *requested* kernel backend.  Two sweeps
  returning the same pids prove warm reuse; a backend change visible in
  the second sweep's probes proves per-chunk re-sync.
* ``exec_crash`` calls ``os._exit`` when (and only when) it executes
  inside a pool worker, breaking the pool mid-sweep.  The engine's
  recovery path then re-runs the lost tasks serially in the parent,
  where the same task completes normally and returns a payload — which
  is exactly what the crash-recovery tests and the CI smoke assert.

Both also emit a small metrics snapshot, so the pool tests exercise the
metrics path end to end; ``exec_probe``'s ``params['series']`` pads it
with that many labelled counter series.
"""

import os
from typing import Any, Dict

from repro.exec.pool import is_pool_worker
from repro.exec.task import RunTask
from repro.obs.registry import MetricsRegistry
from repro.sim import kernel


def _base_payload(task: RunTask, series: int = 0) -> Dict[str, Any]:
    metrics = MetricsRegistry()
    metrics.counter(
        "repro_exec_selftest_runs_total", "Engine self-test executions."
    ).inc()
    if series:
        padding = metrics.counter(
            "repro_exec_selftest_series_total", "Snapshot padding series.",
            labelnames=("series",),
        )
        for index in range(series):
            padding.labels(f"s{index}").inc(task.seed + index)
    metrics.histogram(
        "repro_exec_selftest_seed", "Self-test seed distribution."
    ).observe(float(task.seed))
    return {
        "seed": task.seed,
        "pid": os.getpid(),
        "pool_worker": is_pool_worker(),
        "backend": kernel.requested_backend(),
        "metrics": metrics.snapshot(),
    }


def run_probe_task(task: RunTask) -> Dict[str, Any]:
    """Report execution placement; optionally burn ``params['spin']`` loops
    and pad the snapshot with ``params['series']`` series."""
    spin = int(task.params.get("spin", 0))
    acc = 0
    for i in range(spin):
        acc += i * i
    payload = _base_payload(task, int(task.params.get("series", 0)))
    payload["spin"] = acc
    return payload


def run_crash_task(task: RunTask) -> Dict[str, Any]:
    """Kill the hosting *pool worker*; complete normally anywhere else.

    ``params['crash_seeds']`` (default: every seed) selects which tasks
    die, so one sweep can mix healthy tasks with a single worker-killer.
    """
    crash_seeds = task.params.get("crash_seeds")
    should_crash = crash_seeds is None or task.seed in crash_seeds
    if should_crash and is_pool_worker():
        # A hard exit, not an exception: this simulates a segfaulting or
        # OOM-killed worker, the failure mode BrokenProcessPool reports.
        os._exit(17)
    return _base_payload(task)
