"""One workload in one fresh process: set-up, timed repeats, traced run.

``run.py`` starts this file as a subprocess (``OMP_NUM_THREADS=1``,
``PYTHONHASHSEED=0``, ``PYTHONPATH=<checkout>/src``) and reads the JSON
document it prints as its last line.  Set-up always runs: force-rebuild
the C extension, import ``repro``, make the inputs from the seed, one
small untimed warm-up call per backend (which also spawns and warms the
pool where the workload uses one).  Then the phases asked for:

* ``measure`` — interleaved python/native repeats of the timed call,
  tracing off, for ``--seconds``; every repeat's output is compared with
  the first.
* ``trace``   — one run per backend under cProfile, folded into layers
  (after a short ``measure`` if none was asked for, and for a pooled
  workload after untraced repeats of its serial in-process form, which is
  what a profiler can see).
* ``probes``  — the workload-independent layer probes.

Exit codes: 0 with a document (its ``malfunctions`` list says whether the
outputs were correct); non-zero without one when the extension cannot be
built or a backend other than the requested one would be timed.
"""

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BACKENDS = ("python", "native")
PHASES = ("measure", "trace", "probes")
OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: Repeat pairs: at least this many however long they take, and no more
#: than MAX_PAIRS however short.
MIN_PAIRS, MIN_PAIRS_QUICK, MAX_PAIRS = 3, 2, 15
#: Tasks of a pooled sweep re-run serially for the pooled == serial check
#: when ``trace`` (which runs all of them serially) is not asked for.
SERIAL_CHECK_TASKS = 40


def die(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def build_extension() -> None:
    """Force-rebuild the C extension in place, as a source checkout does."""
    try:
        built = subprocess.run(
            [sys.executable, "-m", "repro._native.build"],
            stdout=subprocess.DEVNULL,
        )
    except OSError as error:
        die(f"cannot start the extension build: {error}")
    if built.returncode != 0:
        die("the native extension failed to build; refusing to benchmark")


def environment(args) -> Dict[str, Any]:
    """What ROADMAP says the older BENCH files fail to record."""
    import numpy
    from repro._native import load_kernel
    from repro.sim import kernel

    module = load_kernel()
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).parent,
        ).stdout.strip()
    except OSError:
        revision = ""
    return {
        "kernel_info": kernel.kernel_info(),
        "kernel_abi": module.KERNEL_ABI,
        "have_fast_rng": module.HAVE_FAST_RNG,
        "cpu_count": os.cpu_count(),
        "git_revision": revision or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "quick": args.quick,
    }


def quartiles(values: List[float]) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live pool workers."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def untraced(call: Callable[[], Any]) -> Tuple[Any, float, None]:
    started = time.perf_counter()
    result = call()
    return result, time.perf_counter() - started, None


class Bench:
    """One workload's inputs plus the bookkeeping every phase shares."""

    def __init__(self, args, scratch: Path) -> None:
        import workloads

        self.workload = workloads.WORKLOADS[args.workload]
        self.scratch = scratch
        self.quick = args.quick
        self.inputs = self.workload.inputs(args.seed, args.quick)
        self.inputs_digest = workloads.inputs_digest(self.inputs)
        self.malfunctions: List[str] = []
        #: The first summary seen; every later one must equal it.
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def call(
        self, backend: str, run: Callable, summarise: Callable,
        inputs: Any = None, timer: Callable = untraced,
    ) -> Tuple[float, Any, Any]:
        """One call on ``backend``: (wall, summary, profile stats or None).

        The backend honesty guard lives here: ``use_backend`` soft-falls
        back to python when the extension is missing, which would time
        python twice and call one of them native.
        """
        from repro.sim import kernel

        inputs = self.inputs if inputs is None else inputs
        gc.collect()
        with kernel.use_backend(backend):
            if kernel.selected_backend() != backend:
                die(f"asked to time {backend!r} but {kernel.selected_backend()!r} "
                    f"is selected ({kernel.native_import_error()})")
            raw, wall, stats = timer(lambda: run(inputs, self.scratch))
        return wall, summarise(inputs, raw), stats

    def check(self, label: str, summary) -> None:
        """Record malfunctions; compare ``summary`` with the first one seen.

        Counts compare key by key, so the serial form of a pooled
        workload (which has no cache pass to count) still has to match on
        everything it does report.
        """
        self.attempted += summary.attempted
        problems = [f"{label}: {line}" for line in summary.malfunctions]
        reference = self.reference
        if reference is None:
            self.reference = summary
        elif not (
            summary.digest == reference.digest
            and summary.sim == reference.sim
            and all(reference.counts[key] == value
                    for key, value in summary.counts.items())
        ):
            problems.append(
                f"{label}: output differs from the first run "
                f"({summary.digest[:12]} vs {reference.digest[:12]})"
            )
        if problems:
            self.failed += summary.attempted
            self.malfunctions.extend(problems)

    def repeats(
        self, label: str, run: Callable, summarise: Callable, seconds: float
    ) -> Dict[str, List[float]]:
        """Interleaved python/native repeats for about ``seconds``."""
        walls: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
        min_pairs = MIN_PAIRS_QUICK if self.quick else MIN_PAIRS
        started = time.perf_counter()
        pairs = 0
        while pairs < MAX_PAIRS:
            # Alternate which backend goes first so neither always runs
            # on the caches the other left behind.
            for backend in BACKENDS if pairs % 2 == 0 else BACKENDS[::-1]:
                wall, summary, _ = self.call(backend, run, summarise)
                walls[backend].append(wall)
                self.check(f"{label} {backend} repeat {pairs}", summary)
            pairs += 1
            elapsed = time.perf_counter() - started
            if pairs >= min_pairs and elapsed + elapsed / pairs > seconds:
                break
        return walls


def set_up(args, scratch: Path) -> Tuple[Bench, Dict[str, float]]:
    stages = {"interpreter_s": time.time() - args.started}
    mark = time.perf_counter()

    def stage(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        stages[name] = now - mark
        mark = now

    build_extension()
    stage("build_s")
    from repro.sim import kernel

    if not kernel.native_available():
        die(f"native extension unavailable: {kernel.native_import_error()}")
    bench = Bench(args, scratch)
    stage("import_and_inputs_s")
    workload = bench.workload
    warm_inputs = bench.inputs if args.quick else workload.inputs(args.seed, True)
    for backend in BACKENDS:
        _, summary, _ = bench.call(
            backend, workload.run, workload.summarise, inputs=warm_inputs
        )
        bench.malfunctions.extend(
            f"warm-up {backend}: {line}" for line in summary.malfunctions
        )
    stage("warmup_s")
    return bench, stages


def measure(bench: Bench, seconds: float):
    """The timed phase: (walls per backend, the document's measure part)."""
    workload = bench.workload
    walls = bench.repeats("timed", workload.run, workload.summarise, seconds)
    reference = bench.reference
    return walls, {
        "wall_s": {backend: quartiles(walls[backend]) for backend in BACKENDS},
        "units": reference.units,
        "events": reference.events,
        "sim": reference.sim,
        "counts": reference.counts,
        "peak_rss_mb": peak_rss_mb(),
    }


def pooled_equals_serial_sample(bench: Bench) -> None:
    import workloads

    workload = bench.workload
    sample = bench.inputs[:SERIAL_CHECK_TASKS]
    serial = workload.run_in_process(sample, bench.scratch)
    pooled = workload.run(sample, bench.scratch)[0]
    if workloads.canonical(serial) != workloads.canonical(pooled):
        bench.failed += len(sample)
        bench.malfunctions.append(
            f"pooled results differ from a serial run of the first "
            f"{len(sample)} tasks"
        )


def traced_phase(
    bench: Bench, seconds: float, timed_walls: Dict[str, List[float]]
) -> Dict[str, Any]:
    import trace

    workload = bench.workload
    run, summarise, walls = workload.run, workload.summarise, timed_walls
    if workload.run_in_process is not None:
        run, summarise = workload.run_in_process, workload.summarise_in_process
        walls = bench.repeats("in-process", run, summarise, seconds)
    metrics: Dict[str, float] = {}
    for backend in BACKENDS:
        wall, summary, stats = bench.call(
            backend, run, summarise, timer=trace.traced
        )
        bench.check(f"traced {backend}", summary)
        metrics.update(trace.layer_metrics(stats, summary.units, backend))
        metrics[f"trace.overhead_x.{backend}"] = (
            wall / statistics.median(walls[backend])
        )
        if backend == "native":
            metrics["native.fallback_share"] = (
                trace.handler_calls(stats) / bench.reference.delivered
            )
    return {
        "metrics": metrics,
        "in_process_wall_s": {
            backend: quartiles(walls[backend]) for backend in BACKENDS
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phases", default="",
                        help=f"comma-separated subset of {','.join(PHASES)}")
    parser.add_argument("--started", type=float, required=True,
                        help="time.time() just before this process was spawned")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    phases = [phase for phase in args.phases.split(",") if phase]
    if set(phases) - set(PHASES):
        parser.error(f"unknown phase in {args.phases!r}")

    OUTPUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUTPUT_DIR))
    try:
        bench, stages = set_up(args, scratch)
        document: Dict[str, Any] = {
            "workload": args.workload,
            "unit_of_work": bench.workload.unit,
            "pooled": bench.workload.run_in_process is not None,
            "inputs_digest": bench.inputs_digest,
            "environment": environment(args),
            "setup_s": time.time() - args.started,
            "setup_stages": stages,
        }
        walls: Optional[Dict[str, List[float]]] = None
        if "measure" in phases or "trace" in phases:
            seconds = args.seconds if "measure" in phases else args.seconds / 3
            walls, document["measure"] = measure(bench, seconds)
        if "trace" in phases:
            document["trace"] = traced_phase(bench, args.seconds / 3, walls)
        elif walls is not None and bench.workload.run_in_process is not None:
            pooled_equals_serial_sample(bench)
        if "probes" in phases:
            import probes

            document["probes"] = probes.run_probes(args.quick)
        document["attempted"] = bench.attempted
        document["failed"] = bench.failed
        document["malfunctions"] = bench.malfunctions
    finally:
        if "repro.exec" in sys.modules:
            sys.modules["repro.exec"].shutdown_pool()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
