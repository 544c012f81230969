"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro.cli figure2 [--full] [--output DIR] [--jobs N]
    python -m repro.cli survival | freshness | messages | load | ablations
    python -m repro.cli pseudocycles | fault | latency | tuning | churn
    python -m repro.cli all [--full] [--output DIR] [--jobs N]
    python -m repro.cli chaos [--runs N] [--chaos-seed S] [--repro-out PATH]
    python -m repro.cli chaos --repro PATH        # replay a minimal repro
    python -m repro.cli serve [--rate R] [--arrivals KIND] [--duration T]

Each subcommand prints the reproduced table(s) and, with ``--output``,
also writes text and CSV copies.

``chaos`` runs a randomized adversarial campaign: every run executes
under fault injection, an adversary strategy and the online spec monitor;
a spec violation fails the campaign (exit 1) and writes a shrunken,
deterministic minimal-repro file replayable with ``--repro PATH`` (exit 0
when the violation reproduces, 2 when it does not).

``serve`` runs service mode: a sharded key-value front end over the
register deployment, driven by an open-loop arrival process (Poisson,
bursty or diurnal) with Zipf key popularity, admission control and
p50/p99/p999 latency SLO tracking.  It prints the SLO summary and, with
``--snapshot-out PATH``, writes the run's canonical metrics snapshot —
byte-identical across same-seed runs, which the CI smoke asserts.  The
``--loss-rate`` and ``--op-deadline`` fault knobs apply here too.

Simulation runs fan out over ``--jobs`` worker processes (default: the
CPU count, capped; also settable via the ``REPRO_JOBS`` environment
variable).  The worker pool is **persistent and warm**: it spins up on
the first sweep and is reused across every subsequent sweep of the
invocation (all of ``all``'s experiments share one pool), then shut down
explicitly on exit.  Results stream back as they complete and are
memoised incrementally in an on-disk run cache under
``benchmarks/output/.cache/`` — a worker crash mid-sweep keeps every
completed result and finishes the remainder serially with a warning.
``--no-cache`` bypasses the cache; ``--clear-cache`` wipes it before
running.

The fault-model subcommands (``fault``, ``churn``) additionally accept
``--loss-rate P`` (probabilistic message loss on every link) and
``--op-deadline T`` (per-operation timeout before a client rejects with
``OperationTimeout``); other subcommands ignore both.

Observability: ``--metrics-out PATH`` aggregates every simulation's
metrics registry (across worker processes and cache hits) and writes the
result as Prometheus text exposition — or JSON when PATH ends in
``.json``.  ``--trace-spans N`` prints the N slowest operation spans
(invoke → quorum rounds → retries → response/timeout); spans cannot
cross the worker-process boundary, so it forces ``--jobs 1`` and
``--no-cache`` like ``--profile`` does.
"""

import argparse
import dataclasses
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments.ablations import (
    AblationConfig,
    delay_ablation,
    monotone_ablation,
    topology_ablation,
)
from repro.exec.cache import RunCache
from repro.exec.engine import default_jobs, resolve_jobs
from repro.exec.pool import shutdown_pool
from repro.experiments.figure2 import Figure2Config, figure2_table, run_figure2
from repro.experiments.freshness import FreshnessConfig, freshness_table
from repro.experiments.load_availability import (
    LoadAvailabilityConfig,
    load_availability_experiment,
    tradeoff_sweep,
)
from repro.experiments.message_complexity import (
    MessageComplexityConfig,
    analytic_tables,
    measured_table,
)
from repro.experiments.churn import ChurnConfig, churn_table
from repro.experiments.fault_tolerance import (
    FaultToleranceConfig,
    degradation_table,
    fault_tolerance_table,
)
from repro.experiments.latency import LatencyConfig, latency_table
from repro.experiments.pseudocycles import (
    PseudocycleConfig,
    pseudocycle_table,
)
from repro.experiments.quorum_tuning import TuningConfig, tuning_table
from repro.experiments.results import ResultTable
from repro.experiments.survival import SurvivalConfig, survival_table
from repro.obs import runtime as obs_runtime
from repro.obs.core import Observability
from repro.obs.export import to_json, to_prometheus_text
from repro.obs.spans import SpanRecorder
from repro.sim import kernel


def _emit(tables: List[ResultTable], output: Optional[str], stem: str) -> None:
    for index, table in enumerate(tables):
        print(table.to_text())
        print()
        if output:
            suffix = f"_{index}" if len(tables) > 1 else ""
            base = os.path.join(output, f"{stem}{suffix}")
            table.save(base + ".txt", fmt="text")
            table.save(base + ".csv", fmt="csv")


def _config(config_class, full: bool):
    """``--full`` selects the paper-scale configuration — the one
    ``REPRO_FULL=1`` gives the benchmarks — else the scaled-down one."""
    return config_class.paper_scale() if full else config_class.scaled_down()


def _cmd_figure2(full, output, jobs=None, cache=None, **overrides) -> None:
    config = _config(Figure2Config, full)
    points = run_figure2(config, jobs=jobs, cache=cache)
    _emit([figure2_table(config, points)], output, "figure2")


def _cmd_survival(full, output, jobs=None, cache=None, **overrides) -> None:
    config = _config(SurvivalConfig, full)
    _emit([survival_table(config, jobs=jobs, cache=cache)], output,
          "survival")


def _cmd_freshness(full, output, jobs=None, cache=None, **overrides) -> None:
    config = _config(FreshnessConfig, full)
    _emit([freshness_table(config, jobs=jobs, cache=cache)], output,
          "freshness")


def _cmd_messages(full, output, jobs=None, cache=None, **overrides) -> None:
    config = _config(MessageComplexityConfig, full)
    tables = analytic_tables(config.analytic_n_values, m=34, p=34)
    tables.append(measured_table(config, jobs=jobs, cache=cache))
    _emit(tables, output, "messages")


def _cmd_load(full, output, jobs=None, cache=None, **overrides) -> None:
    # Analytic + in-process Monte Carlo only; no engine fan-out.
    config = _config(LoadAvailabilityConfig, full)
    tables = [load_availability_experiment(config)]
    tables.append(tradeoff_sweep(config.tradeoff_n_values))
    _emit(tables, output, "load_availability")


def _cmd_ablations(full, output, jobs=None, cache=None, **overrides) -> None:
    config = _config(AblationConfig, full)
    _emit(
        [
            monotone_ablation(config, jobs=jobs, cache=cache),
            delay_ablation(config, jobs=jobs, cache=cache),
            topology_ablation(config, jobs=jobs, cache=cache),
        ],
        output,
        "ablations",
    )


def _cmd_pseudocycles(full, output, jobs=None, cache=None, **overrides) -> None:
    config = _config(PseudocycleConfig, full)
    _emit([pseudocycle_table(config, jobs=jobs, cache=cache)], output,
          "pseudocycles")


def _fault_overrides(overrides: dict) -> dict:
    """Config overrides from the fault-model CLI flags (None = keep default)."""
    mapped = {
        "loss_rate": overrides.get("loss_rate"),
        "operation_deadline": overrides.get("op_deadline"),
    }
    return {key: value for key, value in mapped.items() if value is not None}


def _cmd_fault(full, output, jobs=None, cache=None, **overrides) -> None:
    config = dataclasses.replace(
        _config(FaultToleranceConfig, full), **_fault_overrides(overrides)
    )
    _emit([fault_tolerance_table(config, jobs=jobs, cache=cache)], output,
          "fault_tolerance")
    _emit([degradation_table(config, jobs=jobs, cache=cache)], output,
          "fault_degradation")


def _cmd_latency(full, output, jobs=None, cache=None, **overrides) -> None:
    config = _config(LatencyConfig, full)
    _emit([latency_table(config, jobs=jobs, cache=cache)], output,
          "latency")


def _cmd_tuning(full, output, jobs=None, cache=None, **overrides) -> None:
    config = _config(TuningConfig, full)
    _emit([tuning_table(config, jobs=jobs, cache=cache)], output,
          "quorum_tuning")


def _cmd_churn(full, output, jobs=None, cache=None, **overrides) -> None:
    config = dataclasses.replace(
        _config(ChurnConfig, full), **_fault_overrides(overrides)
    )
    _emit([churn_table(config, jobs=jobs, cache=cache)], output, "churn")


COMMANDS: Dict[str, Callable[..., None]] = {
    "figure2": _cmd_figure2,
    "survival": _cmd_survival,
    "freshness": _cmd_freshness,
    "messages": _cmd_messages,
    "load": _cmd_load,
    "ablations": _cmd_ablations,
    "pseudocycles": _cmd_pseudocycles,
    "fault": _cmd_fault,
    "latency": _cmd_latency,
    "tuning": _cmd_tuning,
    "churn": _cmd_churn,
}


def _run_chaos(args, jobs: int, session) -> int:
    """The ``chaos`` subcommand: campaign mode or ``--repro`` replay mode.

    Kept out of COMMANDS (and of ``all``): chaos is a robustness harness
    with its own exit-code contract, not a paper artifact.
    """
    from repro.chaos import (
        CampaignConfig,
        replay_repro,
        run_campaign,
    )
    from repro.chaos.campaign import write_repro
    from repro.obs.collect import collect_chaos

    if args.repro is not None:
        reproduced, payload = replay_repro(args.repro)
        violation = payload.get("spec_violation")
        if reproduced:
            print(f"repro {args.repro}: violation reproduced")
            print(f"  condition: {violation.get('condition')}")
            print(f"  register:  {violation.get('register')}")
            print(f"  message:   {violation.get('message')}")
            for op in violation.get("ops", []):
                print(f"  op: {op}")
            return 0
        print(f"repro {args.repro}: violation did NOT reproduce")
        return 2

    broken = (
        {"kind": "regressing", "after": args.broken_after}
        if args.broken_after is not None
        else None
    )
    config = CampaignConfig(
        runs=args.runs,
        seed=args.chaos_seed,
        jobs=jobs,
        broken_client=broken,
    )
    print(
        f"chaos campaign: {config.runs} runs, seed {config.seed}, "
        f"{jobs} worker(s)"
    )
    result = run_campaign(config)
    if session is not None and session.metrics.enabled:
        collect_chaos(session.metrics, result)
    retries = sum(r["retries"] for r in result.records)
    timeouts = sum(r["timeouts"] for r in result.records)
    dropped = sum(r["messages_dropped"] for r in result.records)
    print(
        f"passed {result.passed}/{len(result.records)}; degradation: "
        f"{retries} retries, {timeouts} timeouts, {dropped} drops"
    )
    if not result.violations:
        return 0
    for index, violation in result.violations:
        print(
            f"run {index}: SpecViolation [{violation.get('condition')}] "
            f"{violation.get('message')}"
        )
    out_path = args.repro_out
    if out_path is None:
        out_dir = args.output or os.path.join("benchmarks", "output")
        out_path = os.path.join(
            out_dir, f"chaos_repro_seed{config.seed}.json"
        )
    if result.repro is not None:
        write_repro(result.repro, out_path)
        shrink = result.repro["shrink"]
        print(
            f"minimal repro written to {out_path} "
            f"({shrink['candidate_runs']} shrink runs; "
            f"replay: python -m repro.cli chaos --repro {out_path})"
        )
    return 1


def _run_serve(args, session) -> int:
    """The ``serve`` subcommand: one service-mode run, SLO summary out.

    Kept out of COMMANDS (and of ``all``) like ``chaos``: service mode is
    a systems harness over the reproduction, not a paper artifact.
    """
    from repro.service import ServiceConfig, run_service

    spec = {"kind": args.arrivals, "rate": args.rate}
    if args.arrivals == "bursty":
        if args.mean_burst is not None:
            spec["mean_burst"] = args.mean_burst
        if args.peakedness is not None:
            spec["peakedness"] = args.peakedness
    elif args.arrivals == "diurnal":
        if args.period is not None:
            spec["period"] = args.period
        if args.amplitude is not None:
            spec["amplitude"] = args.amplitude
    config = ServiceConfig(
        seed=args.seed,
        num_servers=args.servers,
        quorum_size=args.quorum_size,
        num_clients=args.clients,
        num_registers=args.registers,
        num_keys=args.keys,
        zipf_exponent=args.zipf,
        read_fraction=args.read_fraction,
        arrivals=spec,
        duration=args.duration,
        max_in_flight=args.max_in_flight,
        write_mode=args.write_mode,
        loss_rate=args.loss_rate if args.loss_rate is not None else 0.0,
        operation_deadline=(
            args.op_deadline if args.op_deadline is not None else 60.0
        ),
        max_attempts=args.max_attempts,
        membership=(
            None
            if args.churn is None
            else {
                "kind": "churn",
                "period": args.churn,
                "batch": args.churn_batch,
            }
        ),
    )
    print(
        f"serve: seed {config.seed}; {config.num_servers} servers "
        f"(quorum {config.quorum_size}), {config.num_clients} clients, "
        f"{config.num_registers} registers, {config.num_keys} keys "
        f"(zipf {config.zipf_exponent:g}); {args.arrivals} arrivals at "
        f"rate {config.arrivals['rate']:g} for {config.duration:g} time "
        f"units, write mode {config.write_mode}"
    )
    if config.membership is not None:
        print(
            f"serve: churn every {args.churn:g} time units, batch "
            f"{args.churn_batch} (view-based reconfiguration)"
        )
    result = run_service(config)
    print(result.slo_table())
    print(
        f"  simulated {result.sim_time:.1f} time units "
        f"({result.events} events) in {result.wall_seconds:.2f}s wall"
    )
    if args.snapshot_out is not None:
        with open(args.snapshot_out, "wb") as fh:
            fh.write(result.snapshot_bytes)
        print(f"metrics snapshot written to {args.snapshot_out}")
    if session is not None and session.metrics.enabled:
        session.metrics.merge_snapshot(result.snapshot)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + ["all", "chaos", "serve"],
        help="which artifact to regenerate ('chaos' runs the randomized "
             "adversarial campaign instead; 'serve' runs the open-loop "
             "key-value service mode)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's full parameters (slow)",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        help="also save text and CSV copies into DIR",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="worker processes for simulation fan-out "
             "(default: CPU count capped at 8; env REPRO_JOBS)",
    )
    parser.add_argument(
        "--kernel",
        choices=["python", "native"],
        default=None,
        help="simulation kernel backend: the pure-python reference or the "
             "compiled native extension (default: env REPRO_KERNEL, else "
             "python; native falls back to python with a warning when the "
             "extension is not built — results are byte-identical either "
             "way)",
    )
    parser.add_argument(
        "--loss-rate",
        type=float,
        metavar="P",
        default=None,
        help="drop each message with probability P "
             "(fault/churn experiments only)",
    )
    parser.add_argument(
        "--op-deadline",
        type=float,
        metavar="T",
        default=None,
        help="per-operation timeout before rejecting with OperationTimeout "
             "(fault/churn experiments only)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="wrap the run in cProfile and print the top cumulative "
             "entries (forces --jobs 1 and --no-cache so the simulation "
             "kernel runs in-process and is actually measured)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="aggregate run metrics across all simulations (and worker "
             "processes) and write them to PATH in Prometheus text "
             "exposition format (JSON when PATH ends in .json)",
    )
    parser.add_argument(
        "--trace-spans",
        type=int,
        metavar="N",
        default=None,
        help="record per-operation spans and print the N slowest "
             "(forces --jobs 1 and --no-cache: spans cannot cross the "
             "worker-process boundary)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        metavar="N",
        default=20,
        help="chaos only: number of randomized campaign runs (default 20)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        metavar="S",
        default=0,
        help="chaos only: campaign seed (same seed => byte-identical "
             "campaign, including any minimal repro file)",
    )
    parser.add_argument(
        "--repro",
        metavar="PATH",
        default=None,
        help="chaos only: replay a minimal-repro file instead of running "
             "a campaign (exit 0 when the violation reproduces, 2 when not)",
    )
    parser.add_argument(
        "--repro-out",
        metavar="PATH",
        default=None,
        help="chaos only: where to write the shrunken minimal repro on "
             "violation (default benchmarks/output/chaos_repro_seedS.json)",
    )
    parser.add_argument(
        "--broken-after",
        type=int,
        metavar="N",
        default=None,
        help="chaos only: inject a deliberately broken client whose reads "
             "regress after N correct ones (validates the violation "
             "pipeline end to end)",
    )
    serve = parser.add_argument_group(
        "serve only", "service-mode knobs (ignored by other subcommands)"
    )
    serve.add_argument(
        "--seed", type=int, metavar="S", default=0,
        help="root seed (same seed => byte-identical metrics snapshot)",
    )
    serve.add_argument(
        "--duration", type=float, metavar="T", default=500.0,
        help="arrival horizon in simulated time units (default 500)",
    )
    serve.add_argument(
        "--rate", type=float, metavar="R", default=2.0,
        help="mean arrival rate in ops per time unit (default 2)",
    )
    serve.add_argument(
        "--arrivals", choices=["poisson", "bursty", "diurnal"],
        default="poisson",
        help="arrival process shape (default poisson)",
    )
    serve.add_argument(
        "--mean-burst", type=float, metavar="B", default=None,
        help="bursty arrivals: mean ops per burst (default 8)",
    )
    serve.add_argument(
        "--peakedness", type=float, metavar="P", default=None,
        help="bursty arrivals: intra-burst rate multiplier (default 10)",
    )
    serve.add_argument(
        "--period", type=float, metavar="T", default=None,
        help="diurnal arrivals: cycle length in time units (default 200)",
    )
    serve.add_argument(
        "--amplitude", type=float, metavar="A", default=None,
        help="diurnal arrivals: relative swing in [0, 1) (default 0.8)",
    )
    serve.add_argument(
        "--clients", type=int, metavar="N", default=4,
        help="client subsystems serving the front end (default 4)",
    )
    serve.add_argument(
        "--servers", type=int, metavar="N", default=16,
        help="replica servers (default 16)",
    )
    serve.add_argument(
        "--quorum-size", type=int, metavar="K", default=5,
        help="probabilistic quorum size (default 5)",
    )
    serve.add_argument(
        "--registers", type=int, metavar="N", default=32,
        help="registers the keyspace shards onto (default 32)",
    )
    serve.add_argument(
        "--keys", type=int, metavar="N", default=1000,
        help="distinct keys in the keyspace (default 1000)",
    )
    serve.add_argument(
        "--zipf", type=float, metavar="S", default=1.1,
        help="Zipf popularity exponent, 0 = uniform (default 1.1)",
    )
    serve.add_argument(
        "--read-fraction", type=float, metavar="F", default=0.9,
        help="fraction of arrivals that are reads (default 0.9)",
    )
    serve.add_argument(
        "--max-in-flight", type=int, metavar="N", default=64,
        help="admission-control bound; arrivals beyond it are shed "
             "(default 64)",
    )
    serve.add_argument(
        "--write-mode", choices=["owner", "two_phase"], default="owner",
        help="write routing: every put to its shard's owner client (one "
             "quorum round), or round-robin over the clients as ABD "
             "two-phase multi-writer writes (query round + update round); "
             "both retry, time out and follow view changes (default owner)",
    )
    serve.add_argument(
        "--churn", type=float, metavar="T", default=None,
        help="membership churn: every T time units a batch of fresh "
             "replicas joins and the oldest members retire (view-based "
             "reconfiguration)",
    )
    serve.add_argument(
        "--churn-batch", type=int, metavar="N", default=1,
        help="replicas replaced per churn cycle (default 1)",
    )
    serve.add_argument(
        "--max-attempts", type=int, metavar="N", default=None,
        help="give up on an operation after N dispatch attempts with a "
             "structured QuorumUnreachable failure (default: retry "
             "until the deadline)",
    )
    serve.add_argument(
        "--snapshot-out", metavar="PATH", default=None,
        help="write the run's canonical metrics snapshot (JSON bytes); "
             "byte-identical across same-seed runs",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk run cache",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="wipe the run cache before running",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.kernel is not None:
        kernel.select_backend(args.kernel)
    # Resolve eagerly: a native request that falls back should warn up
    # front, not only when (if ever) the first scheduler is built — a
    # fully cache-served run never builds one.
    resolved = kernel.selected_backend()
    if args.kernel is not None:
        if args.kernel != resolved:
            # selected_backend() already printed why; state the outcome.
            print(
                f"repro: --kernel {args.kernel} is unavailable; running "
                f"with the pure-python kernel (results are identical)",
                file=sys.stderr,
            )
    if args.output:
        os.makedirs(args.output, exist_ok=True)
    try:
        jobs = resolve_jobs(args.jobs, default=default_jobs())
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    if args.trace_spans is not None and args.trace_spans < 1:
        print(
            f"repro: error: --trace-spans must be positive, "
            f"got {args.trace_spans}",
            file=sys.stderr,
        )
        return 2
    if args.profile or args.trace_spans is not None:
        # Profiling a worker-process fan-out (or a cache hit) would show
        # only IPC and pickling; run everything in this process, uncached.
        # Span recording has the same constraint: spans live on the
        # recorder in *this* process and cannot cross the pool boundary.
        jobs = 1
        cache = None
    else:
        cache = None if args.no_cache else RunCache()
        if args.clear_cache and cache is not None:
            cache.clear()
    if args.loss_rate is not None and not 0.0 <= args.loss_rate < 1.0:
        print(
            f"repro: error: --loss-rate must be in [0, 1), "
            f"got {args.loss_rate}",
            file=sys.stderr,
        )
        return 2
    names = sorted(COMMANDS) if args.experiment == "all" else [args.experiment]

    observe = args.metrics_out is not None or args.trace_spans is not None
    session = None
    if observe:
        session = Observability(
            spans=SpanRecorder() if args.trace_spans is not None else None,
        )
        obs_runtime.activate(session)

    exit_code = 0

    def run_selected() -> None:
        nonlocal exit_code
        if args.experiment == "chaos":
            exit_code = _run_chaos(args, jobs, session)
            return
        if args.experiment == "serve":
            exit_code = _run_serve(args, session)
            return
        for name in names:
            COMMANDS[name](
                args.full,
                args.output,
                jobs=jobs,
                cache=cache,
                loss_rate=args.loss_rate,
                op_deadline=args.op_deadline,
            )

    try:
        if args.profile:
            import cProfile
            import io
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            run_selected()
            profiler.disable()
            buffer = io.StringIO()
            stats = pstats.Stats(profiler, stream=buffer)
            stats.sort_stats("cumulative").print_stats(30)
            report = buffer.getvalue()
            print(report)
            if args.output:
                profile_path = os.path.join(
                    args.output, f"profile_{args.experiment}.txt"
                )
                with open(profile_path, "w", encoding="utf-8") as fh:
                    fh.write(report)
                print(f"profile saved to {profile_path}")
        else:
            run_selected()
    finally:
        # Explicit warm-pool lifecycle exit: atexit would catch this too,
        # but a CLI invocation should not hold worker processes (or their
        # memory) past the last table it prints.
        shutdown_pool()
        if session is not None:
            obs_runtime.deactivate()
    if session is not None:
        if args.metrics_out is not None:
            snapshot = session.metrics.snapshot()
            if args.metrics_out.endswith(".json"):
                rendered = to_json(snapshot)
            else:
                rendered = to_prometheus_text(snapshot)
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
            print(f"metrics written to {args.metrics_out}")
        if args.trace_spans is not None:
            print()
            print(session.spans.render_slowest(args.trace_spans))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
