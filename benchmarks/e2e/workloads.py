"""The four headline workloads: literal inputs, the timed call, its summary.

Every parameter is written out here, never taken from a ``scaled_down()``
helper under ``src/``, so a later change to the library's defaults cannot
move the benchmark's inputs; each record carries a SHA-256 of the
canonical inputs so two records are only ever compared on equal inputs.

A workload is three functions: ``build(seed, quick)`` makes the inputs
from the seed, ``run(inputs, scratch)`` is the timed call, and
``summarise(inputs, raw)`` reads every simulated number and exact count
out of what the call returned (after the clock stopped).
"""

import hashlib
import json
import statistics
import tempfile
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.chaos.campaign import CampaignConfig, generate_task
from repro.exec import RunCache, RunTask, run_many
from repro.experiments.figure2 import Figure2Config, figure2_tasks
from repro.service.runner import ServiceConfig, run_service
from repro.sim.rng import derive_seed

#: Pool workers used by ``chaos_pool`` (the only pooled workload).
POOL_JOBS = 2


def canonical(value: Any) -> bytes:
    """Canonical sorted JSON: tuples and lists, int and float keys unify."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot_totals(snapshots: Iterable[Dict[str, Any]]) -> Counter:
    """Every counter and gauge summed over metrics snapshots, in one pass.

    Keys are the family name and, for labelled series, also
    ``name{first label}``; a family no snapshot carries reads 0.
    """
    totals: Counter = Counter()
    for snapshot in snapshots:
        for instrument in snapshot["instruments"]:
            if instrument["kind"] == "histogram":
                continue
            name = instrument["name"]
            for labels, value in instrument["series"]:
                totals[name] += value
                if labels:
                    totals[f"{name}{{{labels[0]}}}"] += value
    return totals


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_counts(totals: Counter, units: int) -> Dict[str, float]:
    """The exact per-layer counts every workload derives the same way."""
    reads = totals["repro_ops_invoked_total{read}"]
    ops = totals["repro_ops_invoked_total"]
    return {
        "sim.events_per_unit": _ratio(totals["repro_scheduler_events_total"], units),
        "sim.msgs_dropped_share": _ratio(
            totals["repro_messages_dropped_total"], totals["repro_messages_sent_total"]
        ),
        "registers.ops_per_unit": _ratio(ops, units),
        "registers.retries_per_op": _ratio(totals["repro_op_retries_total"], ops),
        "registers.timeouts": float(totals["repro_op_timeouts_total"]),
        "membership.views_installed": float(
            totals["repro_membership_events_total{views_installed}"]
        ),
        "membership.stale_nacks_per_op": _ratio(
            totals["repro_membership_stale_nacks_total"], ops
        ),
        "iterative.rounds_mean": _ratio(totals["repro_alg1_rounds_total"], units),
        "iterative.monotone_cache_hit_share": _ratio(
            totals["repro_monotone_cache_hits_total"], reads
        ),
    }


@dataclass
class Summary:
    """What one timed call produced, read after the clock stopped."""

    #: Completed units of work: the denominator of every per-unit metric.
    units: int
    #: Units offered to the system (serve: arrivals; sweeps: tasks).
    attempted: int
    #: Simulator malfunctions, one line each (empty on a correct run).
    #: Modelled outcomes (shed, deadline, non-convergence under injected
    #: faults) are not malfunctions; they lower ``finished_share``.
    malfunctions: List[str]
    #: SHA-256 of the canonical output, compared across backends and reruns.
    digest: str
    #: The seed-determined end-to-end metrics.
    sim: Dict[str, float]
    #: The exact per-layer counts.
    counts: Dict[str, float]
    events: float
    delivered: float


# --------------------------------------------------------------------- #
# serve_calm / serve_churn: open-loop Poisson key-value service
# --------------------------------------------------------------------- #

#: The sustained rung of bench_service.py's SLO ladder.
SERVE_RATE = 8.0
SERVE_TAIL_Q = 0.99
CHURN = {"kind": "churn", "period": 6.25, "batch": 1}


def _serve_inputs(membership: Optional[Dict[str, Any]]):
    def build(seed: int, quick: bool) -> ServiceConfig:
        # Everything not named keeps ServiceConfig's documented defaults:
        # 16 servers, k=5, 4 clients, 32 registers, Zipf 1.1, 90% reads,
        # exponential delay, 64-op admission cap.
        return ServiceConfig(
            seed=seed,
            duration=150.0 if quick else 1600.0,
            arrivals={"kind": "poisson", "rate": SERVE_RATE},
            membership=None if membership is None else dict(membership),
        )
    return build


def _serve_run(config: ServiceConfig, scratch: Path):
    return run_service(config)


def _serve_summarise(config: ServiceConfig, result) -> Summary:
    counters = result.counters
    admitted, shed, completed, timed_out, unreachable = (
        sum(counters[key].values())
        for key in ("admitted", "shed", "completed", "timed_out", "unreachable")
    )
    malfunctions = []
    if result.offered != admitted + shed:
        malfunctions.append(
            f"offered {result.offered} != admitted {admitted} + shed {shed}"
        )
    settled = completed + timed_out + unreachable + counters["in_flight"]
    if admitted != settled:
        malfunctions.append(
            f"admitted {admitted} != completed + timeouts + unreachable + "
            f"in flight = {settled}"
        )
    if result.hung_ops:
        malfunctions.append(f"{result.hung_ops} hung operation(s)")
    totals = snapshot_totals([result.snapshot])
    counts = _layer_counts(totals, completed)
    counts["service.shed_share"] = _ratio(shed, result.offered)
    counts["service.peak_in_flight"] = float(counters["peak_in_flight"])
    return Summary(
        units=completed,
        attempted=result.offered,
        malfunctions=malfunctions,
        digest=sha256(result.snapshot_bytes),
        sim={
            "finished_share": _ratio(completed, result.offered),
            "sim_msgs_per_unit": _ratio(
                totals["repro_messages_sent_total"], completed
            ),
            "sim_time_p50": result.quantile("all", 0.5),
            "sim_time_tail": result.quantile("all", SERVE_TAIL_Q),
        },
        counts=counts,
        events=float(result.events),
        delivered=totals["repro_messages_delivered_total"],
    )


# --------------------------------------------------------------------- #
# fig2_sweep / chaos_pool: closed-loop Alg. 1 runs through the engine
# --------------------------------------------------------------------- #

FIG2_TAIL_PERCENTILE = 75
CHAOS_TAIL_PERCENTILE = 90


def _fig2_build(seed: int, quick: bool):
    # The paper's Figure 2 shape: all four {monotone, non-monotone} x
    # {constant, exponential} variants over quorum sizes from 1 up to the
    # first strict size (2k > n).  Six sizes put the p75 of run times in
    # the middle of the k=2 group; with five it sat on the k=1/k=2 edge
    # and jumped between seeds.
    return figure2_tasks(Figure2Config(
        num_vertices=6 if quick else 12,
        num_servers=6 if quick else 12,
        quorum_sizes=(1, 2, 4) if quick else (1, 2, 3, 4, 5, 7),
        runs_per_point=1 if quick else 2,
        max_rounds=150,
        base_seed=seed,
    ))


def _fig2_run(tasks, scratch: Path):
    return run_many(tasks, jobs=1, cache=None)


#: The campaign whose fault/adversary/membership configurations are replayed.
CHAOS_CAMPAIGN_SEED = 3


def _chaos_build(seed: int, quick: bool):
    # The configurations come from one fixed campaign and only the
    # simulation seeds from ``seed``: redrawing the configurations moved
    # every simulated metric by 4-8% between benchmark seeds, which would
    # have hidden a model change of that size.
    # max_sim_time is 80 (the CLI default is 150) so that the runs a
    # perpetual adversary keeps from converging cost less of the sweep.
    config = CampaignConfig(
        runs=40 if quick else 240, seed=CHAOS_CAMPAIGN_SEED,
        max_rounds=20, max_sim_time=80.0,
    )
    tasks = (generate_task(config, index) for index in range(config.runs))
    return [
        RunTask(task.kind, task.params, derive_seed(seed, "chaos-run", index))
        for index, task in enumerate(tasks)
    ]


def _chaos_run(tasks, scratch: Path):
    """Cold pooled pass into a fresh cache, then a warm pass over it."""
    with tempfile.TemporaryDirectory(prefix="cache-", dir=scratch) as root:
        cache = RunCache(root)
        cold = run_many(tasks, jobs=POOL_JOBS, cache=cache)
        writes = cache.writes
        warm = run_many(tasks, jobs=POOL_JOBS, cache=cache)
        return cold, warm, writes, cache.hits


def _payload_malfunctions(tasks, payloads: List[Dict[str, Any]]) -> List[str]:
    out = []
    for index, (task, payload) in enumerate(zip(tasks, payloads)):
        # Without a deadline (fig2_sweep) the operations still in flight
        # when the run stops at convergence count as "hung"; only where a
        # deadline is armed does a hung operation mean a lost settlement.
        armed = (task.params.get("retry") or {}).get("deadline") is not None
        if armed and payload["hung_ops"]:
            out.append(f"task {index}: {payload['hung_ops']} hung operation(s)")
        if payload.get("spec_violation") is not None:
            out.append(f"task {index}: spec violation {payload['spec_violation']}")
    return out


def _sweep_summary(tasks, payloads, tail_percentile: int) -> Summary:
    finished = [
        p for p in payloads
        if p["converged"] and p.get("spec_violation") is None
    ]
    times = [p["sim_time"] for p in finished]
    totals = snapshot_totals(p["metrics"] for p in payloads)
    units = len(payloads)
    return Summary(
        units=units,
        attempted=len(tasks),
        malfunctions=_payload_malfunctions(tasks, payloads),
        digest=sha256(canonical(payloads)),
        sim={
            "finished_share": _ratio(len(finished), len(tasks)),
            "sim_msgs_per_unit": _ratio(totals["repro_messages_sent_total"], units),
            "sim_time_p50": statistics.median(times),
            "sim_time_tail": percentile(times, tail_percentile),
        },
        counts=_layer_counts(totals, units),
        events=totals["repro_scheduler_events_total"],
        delivered=totals["repro_messages_delivered_total"],
    )


def _fig2_summarise(tasks, payloads) -> Summary:
    return _sweep_summary(tasks, payloads, FIG2_TAIL_PERCENTILE)


def _chaos_summarise(tasks, raw) -> Summary:
    cold, warm, writes, hits = raw
    summary = _sweep_summary(tasks, cold, CHAOS_TAIL_PERCENTILE)
    # Canonical JSON, not ==: RunCache hands payload membership.views
    # back as lists where a fresh run returns tuples (README, findings).
    if sha256(canonical(warm)) != summary.digest:
        summary.malfunctions.append("warm-cache pass differs from the cold pass")
    if writes != len(tasks):
        summary.malfunctions.append(
            f"cold pass wrote {writes} cache entries for {len(tasks)} tasks"
        )
    summary.counts["exec.cache_hit_share"] = _ratio(hits, len(tasks))
    return summary


def _chaos_run_serial(tasks, scratch: Path):
    return run_many(tasks, jobs=1, cache=None)


def _chaos_summarise_serial(tasks, payloads) -> Summary:
    return _sweep_summary(tasks, payloads, CHAOS_TAIL_PERCENTILE)


# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Workload:
    name: str
    #: The unit of work: the denominator of every per-unit metric.
    unit: str
    build: Callable[[int, bool], Any]
    run: Callable[[Any, Path], Any]
    summarise: Callable[[Any, Any], Summary]
    #: Pooled workloads only: the same work serially in process, which a
    #: profiler can see and which the pooled results must equal.
    run_in_process: Optional[Callable[[Any, Path], Any]] = None
    summarise_in_process: Optional[Callable[[Any, Any], Summary]] = None

    def inputs(self, seed: int, quick: bool) -> Any:
        """Inputs for benchmark seed ``seed`` (per-workload derived seed)."""
        return self.build(derive_seed(seed, self.name), quick)


def inputs_digest(inputs: Any) -> str:
    if isinstance(inputs, ServiceConfig):
        return sha256(canonical(asdict(inputs)))
    return sha256("\n".join(task.canonical() for task in inputs).encode())


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "serve_calm",
            "completed key-value operation",
            _serve_inputs(None), _serve_run, _serve_summarise,
        ),
        Workload(
            "serve_churn",
            "completed key-value operation",
            _serve_inputs(CHURN), _serve_run, _serve_summarise,
        ),
        Workload(
            "fig2_sweep",
            "finished Alg. 1 run",
            _fig2_build, _fig2_run, _fig2_summarise,
        ),
        Workload(
            "chaos_pool",
            "finished Alg. 1 run",
            _chaos_build, _chaos_run, _chaos_summarise,
            run_in_process=_chaos_run_serial,
            summarise_in_process=_chaos_summarise_serial,
        ),
    )
}
