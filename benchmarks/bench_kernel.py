"""Simulation-kernel microbenchmarks: the per-event cost of the hot path.

Every experiment funnels through the same kernel — ``Scheduler`` →
``Network.send`` → ``on_message`` — so this suite measures that path in
isolation and end-to-end:

* ``scheduler_churn``  — events/sec through schedule/cancel/run cycles,
* ``quorum_rounds``    — messages/sec for closed-loop register operations
  over a probabilistic quorum system (the shape of every Figure 2 run),
* ``quorum_rounds_large_n`` — the same closed loop at n=1000 servers with
  k=optimal_k(n), where quorum sampling and membership mapping dominate
  (the operating point of the statistical-sweep roadmap item),
* ``figure2_cell``     — wall-clock seconds for one single-process
  Figure 2 cell (Alg. 1 on a chain, asynchronous delays).

Run directly (``PYTHONPATH=src python benchmarks/bench_kernel.py``) or via
pytest.  Results go to ``benchmarks/output/BENCH_kernel.json`` together
with the recorded pre-optimisation baseline, so the JSON always shows
before/after numbers for the same machine class.

``--kernel {python,native,both}`` picks the kernel backend(s) to
measure (default ``both`` when the native extension is built).  With
both, every repeat interleaves the backends so machine noise hits them
evenly, and the record carries the pure-python control next to the
native numbers plus their ratio.

``--quick`` shrinks every workload to a CI-smoke size (seconds, not
minutes) and skips the speedup assertion.  ``--profile`` wraps the
quorum-round benchmark in cProfile and prints the top cumulative entries.
"""

import argparse
import cProfile
import io
import json
import os
import pathlib
import pstats
import subprocess
import sys
import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.exec.workers import alg1_task, run_alg1_task
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.deployment import RegisterDeployment
from repro.sim import kernel
from repro.sim.delays import ExponentialDelay

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

# Pre-optimisation numbers for this suite, captured on the same container
# class that runs CI, at commit 2b9de21 (before the tuple-queue, batched-
# draw and slotted-message rewrites).  Kept in the emitted JSON so every
# run records both sides of the before/after comparison; refresh by
# checking out the baseline commit and running with --print-baseline.
RECORDED_BASELINE: Optional[Dict[str, float]] = {
    "scheduler_churn_rate": 320418.5,
    "quorum_rounds_rate": 107478.3,
    "figure2_cell_seconds": 0.054,
}

# Acceptance floor for the tentpole: messages/sec on the quorum-round
# microbenchmark must be at least this multiple of the recorded baseline.
MIN_QUORUM_SPEEDUP = 1.5

# Acceptance floor for the native backend: both kernel-bound rates must
# be at least this multiple of the recorded pure-python baseline.
NATIVE_MIN_BASELINE_SPEEDUP = 2.0


def _best_of(repeats: int, fn: Callable[[], Dict[str, float]]) -> Dict[str, float]:
    """Run ``fn`` ``repeats`` times, keep the run with the best rate."""
    best: Dict[str, float] = {}
    for _ in range(repeats):
        result = fn()
        if not best or result["rate"] > best["rate"]:
            best = result
    return best


def bench_scheduler_churn(num_events: int) -> Dict[str, float]:
    """Events/sec through a schedule-heavy workload with cancel churn.

    64 self-rescheduling chains (the shape of in-flight messages), where
    every third firing also schedules a decoy event and cancels it — the
    retry-timer pattern of the register client.
    """
    sched = kernel.make_scheduler()
    delays = (np.random.default_rng(1234).random(1024) * 2.0 + 0.01).tolist()
    state = {"scheduled": 0}

    def fire() -> None:
        n = state["scheduled"]
        if n >= num_events:
            return
        state["scheduled"] = n + 1
        handle = sched.schedule(delays[n % 1024], fire)
        if n % 3 == 0:
            decoy = sched.schedule(delays[(n + 7) % 1024], fire)
            decoy.cancel()
            del handle  # the live chain continues via the first handle

    chains = min(64, num_events)
    for _ in range(chains):
        fire()
    start = time.perf_counter()
    sched.run()
    wall = time.perf_counter() - start
    return {
        "events": float(sched.events_processed),
        "seconds": wall,
        "rate": sched.events_processed / wall if wall else 0.0,
    }


def build_quorum_deployment(
    num_servers: int = 34, quorum_size: int = 6, num_clients: int = 4
) -> RegisterDeployment:
    """The deployment shape of a Figure 2 run, without history recording.

    ``detailed_stats=False`` selects the scalar-totals stats fast path
    (the benchmark only reads ``stats.sent``); the pre-change kernel has
    no such switch and always pays the per-kind Counter updates.
    """
    kwargs = {}
    if "detailed_stats" in RegisterDeployment.__init__.__code__.co_varnames:
        kwargs["detailed_stats"] = False
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(num_servers, quorum_size),
        num_clients=num_clients,
        delay_model=ExponentialDelay(1.0),
        seed=7,
        record_history=False,
        **kwargs,
    )
    for client_id in range(num_clients):
        deployment.declare_register(f"r{client_id}", writer=client_id)
    return deployment


def bench_quorum_rounds(
    num_ops: int, num_servers: int = 34, quorum_size: int = 6,
    num_clients: int = 4,
) -> Dict[str, float]:
    """Messages/sec for closed-loop quorum reads/writes.

    Each client keeps exactly one operation in flight (write, read, write,
    ...), issuing the next from the completion callback of the last — the
    access pattern of Alg. 1's iteration loop.
    """
    deployment = build_quorum_deployment(num_servers, quorum_size, num_clients)
    state = {"started": 0}

    def issue(client_id: int) -> None:
        n = state["started"]
        if n >= num_ops:
            return
        state["started"] = n + 1
        client = deployment.clients[client_id]
        if n % 2 == 0:
            future = client.write(f"r{client_id}", n)
        else:
            future = client.read(f"r{client_id}")
        future.add_callback(lambda _f: issue(client_id))

    for client_id in range(deployment.num_clients):
        issue(client_id)
    start = time.perf_counter()
    deployment.run()
    wall = time.perf_counter() - start
    sent = deployment.network.stats.sent
    return {
        "operations": float(num_ops),
        "messages": float(sent),
        "seconds": wall,
        "rate": sent / wall if wall else 0.0,
    }


def bench_figure2_cell(quick: bool) -> Dict[str, float]:
    """One single-process Figure 2 cell, end to end (monotone/async)."""
    n = 8 if quick else 12
    task = alg1_task(
        (2001, "bench-kernel-figure2"),
        graph={"kind": "chain", "n": n},
        quorum={"kind": "probabilistic", "n": n, "k": 3},
        delay={"kind": "exponential", "mean": 1.0},
        monotone=True,
        max_rounds=120,
    )
    start = time.perf_counter()
    result = run_alg1_task(task)
    wall = time.perf_counter() - start
    return {
        "messages": float(result["messages"]),
        "rounds": float(result["rounds"]),
        "seconds": wall,
        "rate": result["messages"] / wall if wall else 0.0,
    }


def _bench_thunks(quick: bool) -> Dict[str, Callable[[], Dict[str, float]]]:
    sched_events = 20_000 if quick else 200_000
    quorum_ops = 300 if quick else 4_000
    large_n = 1000
    large_k = ProbabilisticQuorumSystem.optimal_k(large_n)
    large_ops = 40 if quick else 400
    return {
        "scheduler_churn": lambda: bench_scheduler_churn(sched_events),
        "quorum_rounds": lambda: bench_quorum_rounds(quorum_ops),
        "quorum_rounds_large_n": lambda: bench_quorum_rounds(
            large_ops, num_servers=large_n, quorum_size=large_k
        ),
        "figure2_cell": lambda: bench_figure2_cell(quick),
    }


def run_suites(
    quick: bool, backends, repeats: int = 5
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Run all three benchmarks on each backend; {backend: {name: best}}.

    Repeats interleave the backends (python churn, native churn, python
    quorum, ...) so transient machine noise — this suite runs on shared
    1-vCPU containers where rates can swing ±40% between minutes — hits
    both backends evenly instead of biasing whichever ran last.
    """
    if quick:
        repeats = 1
    thunks = _bench_thunks(quick)
    results: Dict[str, Dict[str, Dict[str, float]]] = {
        backend: {} for backend in backends
    }
    for _ in range(repeats):
        for name, thunk in thunks.items():
            for backend in backends:
                with kernel.use_backend(backend):
                    measurement = thunk()
                best = results[backend].get(name)
                if best is None or measurement["rate"] > best["rate"]:
                    results[backend][name] = measurement
    return results


def run_suite(quick: bool, repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Run all three benchmarks on the currently selected backend."""
    return run_suites(quick, [kernel.selected_backend()], repeats)[
        kernel.selected_backend()
    ]


def profile_quorum_rounds(num_ops: int = 2_000, top: int = 25) -> str:
    """cProfile the quorum-round benchmark; returns the stats text."""
    profiler = cProfile.Profile()
    profiler.enable()
    bench_quorum_rounds(num_ops)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def _rounded(results: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    return {
        name: {key: round(value, 3) for key, value in result.items()}
        for name, result in results.items()
    }


def _speedups_vs_baseline(
    results: Dict[str, Dict[str, float]], quick: bool
) -> Dict[str, float]:
    speedups: Dict[str, float] = {}
    for name in ("scheduler_churn", "quorum_rounds"):
        base = RECORDED_BASELINE.get(f"{name}_rate")
        if base:
            speedups[name] = round(results[name]["rate"] / base, 3)
    base_cell = RECORDED_BASELINE.get("figure2_cell_seconds")
    if base_cell and not quick:
        speedups["figure2_cell"] = round(
            base_cell / results["figure2_cell"]["seconds"], 3
        )
    return speedups


def _git_revision() -> str:
    """HEAD, marked ``+dirty`` when tracked files differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True,
            cwd=pathlib.Path(__file__).parent,
        ).stdout.strip()

    try:
        revision = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except OSError:
        return "unknown"
    if not revision:
        return "unknown"
    return revision + ("+dirty" if dirty else "")


def write_record(
    suites: Dict[str, Dict[str, Dict[str, float]]], quick: bool,
    path: Optional[pathlib.Path] = None,
) -> Dict[str, object]:
    """Assemble and persist the BENCH_kernel.json record.

    ``suites`` maps backend name to its measurements.  The pure-python
    results stay under the historical ``current`` key (same-run control);
    native results, when measured, land under ``native`` together with
    the native/python ratio.
    """
    python_results = suites["python"]
    record: Dict[str, object] = {
        "benchmark": "simulation-kernel hot path",
        "quick": quick,
        "python": sys.version.split()[0],
        "git_revision": _git_revision(),
        "cpu_count": os.cpu_count(),
        "kernel_info": kernel.kernel_info(),
        "kernel_backends_measured": sorted(suites),
        "current": _rounded(python_results),
    }
    if RECORDED_BASELINE is not None:
        record["baseline"] = RECORDED_BASELINE
        record["speedup_vs_baseline"] = _speedups_vs_baseline(
            python_results, quick
        )
    if "native" in suites:
        native_results = suites["native"]
        record["native"] = _rounded(native_results)
        ratios = {}
        for name, result in native_results.items():
            control = python_results[name]["rate"]
            if control:
                ratios[name] = round(result["rate"] / control, 3)
        record["native_vs_python"] = ratios
        if RECORDED_BASELINE is not None:
            record["native_speedup_vs_baseline"] = _speedups_vs_baseline(
                native_results, quick
            )
    if path is None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        path = OUTPUT_DIR / "BENCH_kernel.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: tiny workloads, no speedup assertion",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile the quorum-round benchmark and print top entries",
    )
    parser.add_argument(
        "--print-baseline", action="store_true",
        help="print the flat baseline dict to paste into RECORDED_BASELINE",
    )
    parser.add_argument(
        "--kernel", choices=("python", "native", "both"), default="both",
        help="kernel backend(s) to measure (default: both when the native "
        "extension is built, else python)",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    if args.profile:
        print(profile_quorum_rounds())
        return 0

    backends = ["python"]
    if args.kernel == "native":
        if not kernel.native_available():
            print(
                f"FAIL: --kernel native requested but the extension is "
                f"unavailable ({kernel.native_import_error()})",
                file=sys.stderr,
            )
            return 1
        backends = ["python", "native"]
    elif args.kernel == "both" and kernel.native_available():
        backends = ["python", "native"]

    suites = run_suites(args.quick, backends)
    results = suites["python"]
    if args.print_baseline:
        flat = {
            "scheduler_churn_rate": round(results["scheduler_churn"]["rate"], 1),
            "quorum_rounds_rate": round(results["quorum_rounds"]["rate"], 1),
            "figure2_cell_seconds": round(
                results["figure2_cell"]["seconds"], 3
            ),
        }
        print(json.dumps(flat, indent=2, sort_keys=True))
        return 0

    path = pathlib.Path(args.json) if args.json else None
    record = write_record(suites, args.quick, path)
    print(json.dumps(record, indent=2, sort_keys=True))

    if not args.quick and RECORDED_BASELINE is not None:
        failed = False
        speedup = record["speedup_vs_baseline"].get("quorum_rounds", 0.0)
        if speedup < MIN_QUORUM_SPEEDUP:
            print(
                f"FAIL: quorum-round speedup {speedup:.2f}x is below the "
                f"{MIN_QUORUM_SPEEDUP}x floor",
                file=sys.stderr,
            )
            failed = True
        for name, native_speedup in record.get(
            "native_speedup_vs_baseline", {}
        ).items():
            if name == "figure2_cell":
                continue  # end-to-end cell is callback-bound, not a floor
            if native_speedup < NATIVE_MIN_BASELINE_SPEEDUP:
                print(
                    f"FAIL: native {name} speedup {native_speedup:.2f}x vs "
                    f"baseline is below the {NATIVE_MIN_BASELINE_SPEEDUP}x "
                    f"floor",
                    file=sys.stderr,
                )
                failed = True
        if failed:
            return 1
    return 0


# pytest entry point (full suite is slow; keep the pytest path quick).
def test_kernel_benchmark_quick(output_dir):
    backends = ["python"]
    if kernel.native_available():
        backends.append("native")
    suites = run_suites(quick=True, backends=backends)
    record = write_record(suites, quick=True)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    for backend, results in suites.items():
        for name, result in results.items():
            assert result["seconds"] >= 0.0
            assert result["rate"] > 0.0, (
                f"{backend} {name} measured a zero rate"
            )


if __name__ == "__main__":
    sys.exit(main())
