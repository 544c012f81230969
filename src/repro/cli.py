"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro.cli figure2 [--full] [--output DIR] [--jobs N]
    python -m repro.cli ablations | churn | fault | freshness | latency | load
    python -m repro.cli messages | pseudocycles | survival | tuning
    python -m repro.cli all [--full] [--output DIR] [--jobs N]
    python -m repro.cli chaos [--runs N] [--chaos-seed S] [--repro-out PATH]
    python -m repro.cli chaos --repro PATH        # replay a minimal repro
    python -m repro.cli serve [--rate R] [--arrivals KIND] [--duration T]

Every command is an entry of :data:`COMMANDS`.  The artifact commands are
the registry :data:`repro.experiments.EXPERIMENTS` (``all`` runs every
entry): each prints the reproduced table(s) and, with ``--output``, also
writes text and CSV copies.  A command that cannot build its
configuration (a quorum larger than the deployment, a missing repro
file) prints ``repro: error: ...`` and exits 2.

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
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.chaos import CampaignConfig, run_campaign
from repro.chaos.campaign import load_repro, write_repro
from repro.exec.cache import RunCache
from repro.exec.engine import default_jobs, resolve_jobs
from repro.exec.pool import shutdown_pool
from repro.exec.task import execute_task
from repro.experiments import EXPERIMENTS
from repro.obs import runtime as obs_runtime
from repro.obs.collect import collect_chaos
from repro.obs.core import Observability
from repro.obs.export import to_json, to_prometheus_text
from repro.obs.spans import SpanRecorder
from repro.service import ServiceConfig, run_service
from repro.sim import kernel

#: What ``serve`` prints on stderr, after ``repro: warning: N``, when
#: operations are left with no settlement path; ``tools/cross_backend.py``
#: fails a case whose stderr carries it.
HUNG_OPS_WARNING = "hung operation(s) left with no settlement path"


@dataclass(frozen=True)
class Context:
    """What ``main`` resolved for every command: fan-out, cache, session."""

    jobs: int
    cache: Optional[RunCache]
    session: Optional[Observability]

    @property
    def metrics(self) -> Optional[Any]:
        """The session's registry when ``--metrics-out`` asked for one."""
        if self.session is not None and self.session.metrics.enabled:
            return self.session.metrics
        return None


@dataclass(frozen=True)
class Command:
    """One CLI command.

    ``prepare(args, context)`` builds the command's configuration and
    returns the thunk that runs it (returning the exit code).  Whatever
    ``prepare`` raises as ValueError / OSError is a usage error, reported
    on one line; nothing is simulated until the thunk runs.
    """

    prepare: Callable[[argparse.Namespace, Context], Callable[[], int]]
    #: Adds the command's own argument group to the parser.
    add_arguments: Optional[Callable[[argparse.ArgumentParser], None]] = None


def _artifacts(*names: str) -> Command:
    """The command regenerating the named registry entries, in order."""

    def prepare(args, context: Context) -> Callable[[], int]:
        # Every flag is offered; an experiment takes the ones it declares.
        configured = [
            (EXPERIMENTS[name], EXPERIMENTS[name].config(**vars(args)))
            for name in names
        ]

        def run() -> int:
            for experiment, config in configured:
                for stem, table in experiment.tables(
                    config, jobs=context.jobs, cache=context.cache
                ):
                    print(table.to_text())
                    print()
                    if args.output:
                        base = os.path.join(args.output, stem)
                        table.save(base + ".txt", fmt="text")
                        table.save(base + ".csv", fmt="csv")
            return 0

        return run

    return Command(prepare)


def _prepare_chaos(args, context: Context) -> Callable[[], int]:
    """``chaos``: campaign mode, or ``--repro`` replay mode.

    A robustness harness with its own exit-code contract, not a paper
    artifact: 1 on a spec violation; replay exits 0 when the violation
    reproduces and 2 when it does not.
    """
    if args.repro is not None:
        task = load_repro(args.repro)
        return lambda: _replay(args.repro, task)
    config = CampaignConfig(
        runs=args.runs,
        seed=args.chaos_seed,
        jobs=context.jobs,
        broken_client=(
            {"kind": "regressing", "after": args.broken_after}
            if args.broken_after is not None
            else None
        ),
    )
    return lambda: _campaign(args, config, context)


def _replay(path: str, task) -> int:
    violation = execute_task(task).get("spec_violation")
    if violation is None:
        print(f"repro {path}: violation did NOT reproduce")
        return 2
    print(f"repro {path}: violation reproduced")
    print(f"  condition: {violation.get('condition')}")
    print(f"  register:  {violation.get('register')}")
    print(f"  message:   {violation.get('message')}")
    for op in violation.get("ops", []):
        print(f"  op: {op}")
    return 0


def _campaign(args, config: CampaignConfig, context: Context) -> int:
    print(
        f"chaos campaign: {config.runs} runs, seed {config.seed}, "
        f"{config.jobs} worker(s)"
    )
    result = run_campaign(config)
    if context.metrics is not None:
        collect_chaos(context.metrics, result)
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


def _chaos_arguments(parser: argparse.ArgumentParser) -> None:
    chaos = parser.add_argument_group(
        "chaos only", "campaign knobs (ignored by other subcommands)"
    )
    chaos.add_argument(
        "--runs",
        type=int,
        metavar="N",
        default=20,
        help="number of randomized campaign runs (default 20)",
    )
    chaos.add_argument(
        "--chaos-seed",
        type=int,
        metavar="S",
        default=0,
        help="campaign seed (same seed => byte-identical "
             "campaign, including any minimal repro file)",
    )
    chaos.add_argument(
        "--repro",
        metavar="PATH",
        default=None,
        help="replay a minimal-repro file instead of running "
             "a campaign (exit 0 when the violation reproduces, 2 when not)",
    )
    chaos.add_argument(
        "--repro-out",
        metavar="PATH",
        default=None,
        help="where to write the shrunken minimal repro on "
             "violation (default benchmarks/output/chaos_repro_seedS.json)",
    )
    chaos.add_argument(
        "--broken-after",
        type=int,
        metavar="N",
        default=None,
        help="inject a deliberately broken client whose reads "
             "regress after N correct ones (validates the violation "
             "pipeline end to end)",
    )


def _prepare_serve(args, context: Context) -> Callable[[], int]:
    """``serve``: one service-mode run, SLO summary out (a systems harness
    over the reproduction, not a paper artifact)."""
    spec = {"kind": args.arrivals, "rate": args.rate}
    shape_knobs = {
        "bursty": ("mean_burst", "peakedness"),
        "diurnal": ("period", "amplitude"),
    }
    for knob in shape_knobs.get(args.arrivals, ()):
        if getattr(args, knob) is not None:
            spec[knob] = getattr(args, knob)
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
    return lambda: _serve(args, config, context)


def _serve(args, config: ServiceConfig, context: Context) -> int:
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
    if result.hung_ops:
        print(
            f"repro: warning: {result.hung_ops} {HUNG_OPS_WARNING}",
            file=sys.stderr,
        )
    if args.snapshot_out is not None:
        with open(args.snapshot_out, "wb") as fh:
            fh.write(result.snapshot_bytes)
        print(f"metrics snapshot written to {args.snapshot_out}")
    if context.metrics is not None:
        context.metrics.merge_snapshot(result.snapshot)
    return 0


def _serve_arguments(parser: argparse.ArgumentParser) -> None:
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


#: Every command of the CLI.  ``all`` is the whole experiment registry;
#: ``serve`` and ``chaos`` stay out of it (they are harnesses with their
#: own output and exit-code contracts, not paper artifacts).
COMMANDS: Dict[str, Command] = {
    **{name: _artifacts(name) for name in EXPERIMENTS},
    "all": _artifacts(*EXPERIMENTS),
    "chaos": Command(_prepare_chaos, _chaos_arguments),
    "serve": Command(_prepare_serve, _serve_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS),
        help="which artifact to regenerate ('all': every one; 'chaos' runs "
             "the randomized adversarial campaign instead; 'serve' runs the "
             "open-loop key-value service mode)",
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
        "--no-cache",
        action="store_true",
        help="bypass the on-disk run cache",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="wipe the run cache before running",
    )
    for name in sorted(COMMANDS):
        if COMMANDS[name].add_arguments is not None:
            COMMANDS[name].add_arguments(parser)
    return parser


def _context(args) -> Context:
    """Resolve fan-out, cache and observability; ValueError on bad flags."""
    jobs = resolve_jobs(args.jobs, default=default_jobs())
    if args.trace_spans is not None and args.trace_spans < 1:
        raise ValueError(
            f"--trace-spans must be positive, got {args.trace_spans}"
        )
    if args.loss_rate is not None and not 0.0 <= args.loss_rate < 1.0:
        raise ValueError(
            f"--loss-rate must be in [0, 1), got {args.loss_rate}"
        )
    if args.output:
        os.makedirs(args.output, exist_ok=True)
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
    session = None
    if args.metrics_out is not None or args.trace_spans is not None:
        session = Observability(
            spans=SpanRecorder() if args.trace_spans is not None else None,
        )
    return Context(jobs, cache, session)


def _profiled(run: Callable[[], int], args) -> int:
    """Run under cProfile; print (and with ``--output`` save) the top
    cumulative entries."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    exit_code = run()
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
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.kernel is not None:
        kernel.select_backend(args.kernel)
    # Resolve eagerly: a native request that falls back should warn up
    # front, not only when (if ever) the first scheduler is built — a
    # fully cache-served run never builds one.
    resolved = kernel.selected_backend()
    if args.kernel is not None and args.kernel != resolved:
        # selected_backend() already printed why; state the outcome.
        print(
            f"repro: --kernel {args.kernel} is unavailable; running "
            f"with the pure-python kernel (results are identical)",
            file=sys.stderr,
        )
    try:
        context = _context(args)
        run = COMMANDS[args.experiment].prepare(args, context)
    except (ValueError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    session = context.session
    if session is not None:
        obs_runtime.activate(session)
    try:
        exit_code = _profiled(run, args) if args.profile else run()
    finally:
        # Explicit warm-pool lifecycle exit: atexit would catch this too,
        # but a CLI invocation should not hold worker processes (or their
        # memory) past the last table it prints.
        shutdown_pool()
        if session is not None:
            obs_runtime.deactivate()
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
