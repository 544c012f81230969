"""Perf record for the parallel run engine: serial vs warm-pool fan-out.

Runs the Figure 2 sweep at ``jobs=1`` and then up a small jobs ladder
(``jobs=2`` and ``jobs=default_jobs()``), checks every pooled run is
bit-identical to serial (the engine's core guarantee), and writes the
measured wall-clock record to ``benchmarks/output/BENCH_parallel.json``.

Honesty rules for the record:

- The warm pool is spun up *before* each timed pooled run, so the
  numbers measure steady-state sweep cost, not one-time worker startup.
- A run on a single-CPU box is flagged ``degenerate``: fan-out can only
  add overhead there, so the speedup number is an overhead measurement,
  not a speedup claim.  Dashboards should filter on the flag.
- A degenerate run REFUSES to overwrite a non-degenerate checked-in
  record: a 1-CPU box must never erase the only real speedup number the
  repo has.

Speedup assertions scale with the hardware: >= 1.6x at ``jobs=2`` on
any multi-core box, >= 2.5x at the default fan-out on >= 4 CPUs.
"""

import json
import os
import time

from repro.exec.engine import default_jobs, run_many
from repro.exec.pool import shutdown_pool
from repro.exec.task import RunTask
from repro.experiments import EXPERIMENTS
from repro.experiments.figure2 import run_figure2
from repro.experiments.results import full_scale

MIN_CPUS_FOR_SPEEDUP = 4
MIN_SPEEDUP = 2.5
MIN_SPEEDUP_TWO_JOBS = 1.6


def _points_fingerprint(points):
    return [(p.variant, p.quorum_size, p.rounds, p.converged) for p in points]


def _prewarm(jobs):
    """Bring the warm pool to steady state before the timed run."""
    run_many(
        [RunTask("exec_probe", {}, seed=seed) for seed in range(jobs)],
        jobs=jobs,
    )


def _existing_record(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _is_degenerate_record(record):
    # Pre-ladder records carry no "degenerate" flag; classify them by
    # the recorded cpu_count instead.
    return bool(record.get("degenerate", record.get("cpu_count", 1) < 2))


def test_parallel_speedup(output_dir):
    config = EXPERIMENTS["figure2"].config()
    cpus = os.cpu_count() or 1
    degenerate = cpus < 2
    ladder_jobs = sorted({2, default_jobs()} - {1})

    try:
        start = time.perf_counter()
        serial = run_figure2(config, jobs=1)
        serial_seconds = time.perf_counter() - start
        serial_fingerprint = _points_fingerprint(serial)

        ladder = []
        for jobs in ladder_jobs:
            _prewarm(jobs)
            start = time.perf_counter()
            parallel = run_figure2(config, jobs=jobs)
            seconds = time.perf_counter() - start
            assert _points_fingerprint(parallel) == serial_fingerprint
            ladder.append(
                {
                    "jobs": jobs,
                    "seconds": round(seconds, 3),
                    "speedup": round(serial_seconds / seconds, 3)
                    if seconds
                    else 0.0,
                }
            )
    finally:
        shutdown_pool()

    top = ladder[-1]
    record = {
        "benchmark": "figure2 sweep, serial vs warm-worker-pool fan-out",
        "full_scale": full_scale(),
        "cpu_count": cpus,
        "degenerate": degenerate,
        "jobs": top["jobs"],
        "ladder": ladder,
        "tasks": len(config.variants)
        * len(config.quorum_sizes)
        * config.runs_per_point,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": top["seconds"],
        "speedup": top["speedup"],
        "results_identical": True,
    }
    print()
    print(json.dumps(record, indent=2, sort_keys=True))

    path = output_dir / "BENCH_parallel.json"
    existing = _existing_record(path)
    if degenerate and existing is not None and not _is_degenerate_record(existing):
        print(
            "refusing to overwrite the non-degenerate BENCH_parallel.json "
            f"record (cpu_count {existing.get('cpu_count')}) with a "
            f"degenerate run from a {cpus}-CPU box"
        )
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")

    by_jobs = {entry["jobs"]: entry for entry in ladder}
    if cpus >= 2 and 2 in by_jobs:
        assert by_jobs[2]["speedup"] >= MIN_SPEEDUP_TWO_JOBS, (
            f"expected >= {MIN_SPEEDUP_TWO_JOBS}x speedup with 2 jobs on "
            f"{cpus} CPUs, measured {by_jobs[2]['speedup']:.2f}x"
        )
    if cpus >= MIN_CPUS_FOR_SPEEDUP and top["jobs"] >= MIN_CPUS_FOR_SPEEDUP:
        assert top["speedup"] >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x speedup with {top['jobs']} jobs on "
            f"{cpus} CPUs, measured {top['speedup']:.2f}x"
        )
