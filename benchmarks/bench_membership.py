"""BENCH-MEMBERSHIP: SLO degradation under membership churn.

Dynamic membership is the robustness axis the static benchmarks cannot
see: every view change forces clients through stale-view nacks, view
refreshes and re-dispatches, and every joiner through a state transfer
from a read quorum of the old view.  This benchmark sweeps the churn
rate (replica replacements per simulated time unit) and records, per
point:

* the service-mode SLO (sketch p99, shed fraction, timeouts) under
  open-loop traffic with rotating membership — the degradation curve,
* a monitored correctness run: the same churn rate under the online
  [R2]/[R4] spec monitor, which must stay clean across every view
  boundary with zero hung operations,
* and, once per record, a per-view [R3] check: replicas join until the
  view has grown from 10 to hundreds of members, and for every installed
  view (n, k) a quorum-level Monte Carlo asserts the Theorem 1 survival
  bound k*((n-k)/n)^ell still holds for *that view's* quorum system.

Honesty notes, same contract as the other BENCH records:

- Simulated results (quantiles, shed fractions, counters) are seeded and
  machine-independent; ``wall_seconds`` per point is the only
  machine-dependent number and is labelled as such.
- The knee is detected, not asserted: the first churn rate whose p99
  exceeds ``KNEE_P99_FACTOR`` times the zero-churn baseline or that
  sheds more than 1% / rejects anything.  When the swept range never
  degrades, ``knee_churn_rate`` is null — a flat curve is reported as
  flat, not massaged into a knee.
- Determinism is asserted, not assumed: the heaviest churn point is
  re-run and must produce a byte-identical metrics snapshot.

Results go to ``benchmarks/output/BENCH_membership.json``.
"""

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional

from repro.analysis.theory import theorem1_survival_bound
from repro.exec.task import execute_task
from repro.exec.workers import alg1_task
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.deployment import RegisterDeployment
from repro.service import ServiceConfig, run_service
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import ExponentialDelay
from repro.sim.rng import RngRegistry, derive_seed

OUTPUT_DIR = pathlib.Path(__file__).resolve().parent / "output"

#: Churn periods swept (None = static baseline).  Batch 1 throughout, so
#: the churn rate is simply 1/period replacements per time unit.
CHURN_PERIODS = (None, 100.0, 50.0, 25.0, 12.5, 6.25, 3.125)
QUICK_PERIODS = (None, 30.0, 15.0, 7.5, 3.75)

#: Offered load for the sweep: high enough that churn-induced retries
#: and stale-view round trips eat real headroom (at light load the
#: curve is flat and the sweep would show nothing).
ARRIVAL_RATE = 8.0

#: Knee criterion: p99 beyond this multiple of the zero-churn baseline.
KNEE_P99_FACTOR = 1.4

#: The monitored Alg. 1 companion run lives ~25 simulated time units
#: (it stops at convergence), not the service run's full duration, so
#: its churn periods are the service periods scaled by this factor —
#: same sweep shape, matched to the run that actually executes it.
CORRECTNESS_TIMESCALE = 0.25

#: Per-view [R3] Monte Carlo: trials per view and tolerated estimator
#: noise above the bound (3 sigma at p=0.5 with 3000 trials is ~0.027).
R3_TRIALS = 3_000
R3_MAX_LAG = 8
R3_SLACK = 0.03
#: View-growth ladder for the [R3] sweep: joins grow the view through
#: these sizes (the paper's n=10 up to the hundreds).
R3_SIZES = (10, 40, 120, 320)
R3_QUORUM = 8


def _service_config(
    period: Optional[float], duration: float, seed: int
) -> ServiceConfig:
    membership = (
        None
        if period is None
        else {"kind": "churn", "period": period, "batch": 1}
    )
    return ServiceConfig(
        seed=seed,
        duration=duration,
        arrivals={"kind": "poisson", "rate": ARRIVAL_RATE},
        membership=membership,
    )


def service_point(
    period: Optional[float], duration: float, seed: int
) -> Dict[str, Any]:
    """One churn point of the SLO degradation curve, as plain data."""
    result = run_service(_service_config(period, duration, seed))
    membership = result.membership or {}
    admitted = sum(result.counters["admitted"].values())
    stale_nacks = membership.get("stale_nacks", 0)
    return {
        "churn_period": period,
        "churn_rate": 0.0 if period is None else round(1.0 / period, 5),
        "offered": result.offered,
        "completed": result.completed,
        "shed_fraction": round(result.shed_fraction, 4),
        "p50": round(result.quantile("all", 0.5), 4),
        "p99": round(result.quantile("all", 0.99), 4),
        "timeouts": result.timeouts,
        "unreachable": result.unreachable,
        "hung_ops": result.hung_ops,
        "retries": result.retries,
        "views_installed": membership.get("views_installed", 0),
        "state_transfers_completed": membership.get(
            "state_transfers_completed", 0
        ),
        "state_transfers_incomplete": membership.get(
            "state_transfers_incomplete", 0
        ),
        "stale_nacks": stale_nacks,
        "stale_nack_rate": round(stale_nacks / admitted, 4) if admitted else 0.0,
        "view_refreshes": membership.get("view_refreshes", 0),
        # The ONLY machine-dependent number in this point:
        "wall_seconds": round(result.wall_seconds, 4),
    }


def correctness_point(
    period: Optional[float], max_sim_time: float, seed: int
) -> Dict[str, Any]:
    """The same churn sweep under the online [R2]/[R4] spec monitor.

    Service mode runs without history records (by design); this
    companion run executes Alg. 1 traffic on a monitored deployment so
    every read is checked against the write history *across view
    boundaries* — the monitor deliberately does not reset its per-process
    watermarks on a view change.  The churn period is scaled by
    ``CORRECTNESS_TIMESCALE`` to the Alg. 1 run's shorter lifetime.
    """
    membership = None
    if period is not None:
        membership = {
            "kind": "churn",
            "period": round(period * CORRECTNESS_TIMESCALE, 3),
            "batch": 1,
            "start": 3.0,
        }
    payload = execute_task(
        alg1_task(
            (seed, "bench-membership-correctness"),
            graph={"kind": "chain", "n": 5},
            quorum={"kind": "probabilistic", "n": 8, "k": 3},
            delay={"kind": "exponential", "mean": 1.0},
            monotone=True,
            max_rounds=15,
            max_sim_time=max_sim_time,
            retry={"interval": 1.0, "backoff": 2.0, "jitter": 0.1,
                   "deadline": 30.0},
            check_spec_online=True,
            membership=membership,
        )
    )
    monitor = payload.get("monitor") or {}
    membership = payload.get("membership") or {}
    return {
        "churn_period": period,
        "spec_clean": payload.get("spec_violation") is None,
        "hung_ops": payload.get("hung_ops", 0),
        "views_installed": membership.get("views_installed", 0),
        "views_seen_by_monitor": monitor.get("views_seen", 0),
        "reads_checked": monitor.get("reads_checked"),
    }


def r3_per_view_sweep(seed: int, trials: int = R3_TRIALS) -> Dict[str, Any]:
    """Grow a real deployment 10 -> 320 members; check [R3] per view.

    The views come from an actual :class:`ViewManager` reconfiguration
    (joins with state transfers), not from a synthetic list — the sweep
    validates the bound for exactly the (n, k) pairs the deployment
    installed.  Each view's Monte Carlo samples a write quorum and
    ``R3_MAX_LAG`` overwrite quorums from that view's own quorum system
    and checks survival probability against k*((n-k)/n)^ell.
    """
    from repro.membership import MembershipSchedule

    schedule = MembershipSchedule()
    time, lower = 5.0, R3_SIZES[0]
    for size in R3_SIZES[1:]:
        schedule.join(time, range(lower, size))
        time, lower = time + 5.0, size
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(R3_SIZES[0], R3_QUORUM),
        num_clients=1,
        delay_model=ExponentialDelay(1.0),
        seed=seed,
    )
    deployment.declare_register("X", writer=0, initial_value=0)
    deployment.install_membership(schedule)

    def writer():
        for value in range(1, 2 * len(R3_SIZES) + 1):
            yield deployment.handle(0, "X").write(value)
            yield Sleep(2.5)

    spawn(deployment.scheduler, writer(), label="writer")
    deployment.run()
    manager = deployment.membership
    assert manager is not None

    views: List[Dict[str, Any]] = []
    all_hold = True
    for view_id, n, k in manager.view_sizes():
        system = ProbabilisticQuorumSystem(n, k)
        rng = RngRegistry(
            derive_seed(seed, "bench-membership-r3", view_id)
        ).stream("survival")
        survivals = [0] * (R3_MAX_LAG + 1)
        for _ in range(trials):
            write_quorum = system.quorum(rng)
            overwritten: set = set()
            for ell in range(R3_MAX_LAG + 1):
                if write_quorum - overwritten:
                    survivals[ell] += 1
                overwritten |= system.quorum(rng)
        worst_excess = max(
            survivals[ell] / trials - theorem1_survival_bound(n, k, ell)
            for ell in range(R3_MAX_LAG + 1)
        )
        holds = worst_excess <= R3_SLACK
        all_hold = all_hold and holds
        views.append(
            {
                "view_id": view_id,
                "n": n,
                "k": k,
                "worst_excess_over_bound": round(worst_excess, 5),
                "holds": holds,
            }
        )
    return {
        "sizes": list(R3_SIZES),
        "trials": trials,
        "max_lag": R3_MAX_LAG,
        "slack": R3_SLACK,
        "transfers_completed": manager.state_transfers_completed,
        "transfers_incomplete": manager.state_transfers_incomplete,
        "views": views,
        "all_hold": all_hold,
    }


def _find_knee(points: List[Dict[str, Any]]) -> Optional[float]:
    """First churn rate that visibly degrades the SLO (None: flat curve)."""
    baseline = points[0]["p99"]
    for point in points[1:]:
        if (
            point["p99"] > KNEE_P99_FACTOR * baseline
            or point["shed_fraction"] > 0.01
            or point["timeouts"] > 0
            or point["unreachable"] > 0
        ):
            return point["churn_rate"]
    return None


def run_suite(quick: bool = False, seed: int = 0) -> Dict[str, Any]:
    """The full sweep: SLO curve, correctness runs, per-view [R3]."""
    periods = QUICK_PERIODS if quick else CHURN_PERIODS
    duration = 120.0 if quick else 300.0
    points = [service_point(period, duration, seed) for period in periods]
    correctness = [
        correctness_point(period, max_sim_time=min(duration, 120.0),
                          seed=seed)
        for period in periods
    ]
    r3 = r3_per_view_sweep(seed, trials=1_200 if quick else R3_TRIALS)
    # Determinism is part of the recorded claim: re-run the heaviest
    # churn point and compare snapshots byte for byte.
    heaviest = periods[-1]
    first = run_service(_service_config(heaviest, duration, seed))
    second = run_service(_service_config(heaviest, duration, seed))
    return {
        "points": points,
        "correctness": correctness,
        "r3_per_view": r3,
        "knee_churn_rate": _find_knee(points),
        "duration": duration,
        "seed": seed,
        "deterministic": first.snapshot_bytes == second.snapshot_bytes,
    }


def write_record(
    results: Dict[str, Any], quick: bool,
    path: Optional[pathlib.Path] = None,
) -> Dict[str, Any]:
    """Assemble and persist the BENCH_membership.json record."""
    record: Dict[str, Any] = {
        "benchmark": "SLO degradation under membership churn",
        "quick": quick,
        "python": sys.version.split()[0],
        "knee_p99_factor": KNEE_P99_FACTOR,
        **results,
    }
    if path is None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        path = OUTPUT_DIR / "BENCH_membership.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


def check_membership_claims(results: Dict[str, Any]) -> None:
    """The recorded claims, assertable by tests and CI."""
    assert results["deterministic"], (
        "same-seed churn runs must produce byte-identical snapshots"
    )
    points = results["points"]
    churn_rates = [p["churn_rate"] for p in points if p["churn_rate"] > 0]
    assert len(churn_rates) >= 4, (
        f"need >= 4 nonzero churn rates, got {churn_rates}"
    )
    assert points[0]["churn_rate"] == 0.0 and points[0]["views_installed"] == 0
    for point in points:
        assert point["hung_ops"] == 0, (
            f"churn rate {point['churn_rate']}: {point['hung_ops']} hung ops "
            f"— every operation must settle (complete, timeout or "
            f"unreachable)"
        )
    for point in points[1:]:
        assert point["views_installed"] > 0, (
            f"churn point {point['churn_period']} installed no views"
        )
        assert point["state_transfers_incomplete"] == 0, (
            f"churn point {point['churn_period']} left transfers incomplete"
        )
    for run in results["correctness"]:
        assert run["spec_clean"], (
            f"[R2]/[R4] violation under churn period {run['churn_period']}"
        )
        assert run["hung_ops"] == 0
        if run["churn_period"] is not None:
            assert run["views_seen_by_monitor"] > 0, (
                "monitor never observed a view change — the cross-view "
                "check did not actually run"
            )
    r3 = results["r3_per_view"]
    assert r3["all_hold"], f"[R3] bound violated per-view: {r3['views']}"
    assert len(r3["views"]) >= len(R3_SIZES), "view-growth ladder too short"
    assert r3["transfers_incomplete"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: shorter sweep and durations",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    results = run_suite(args.quick, seed=args.seed)
    path = pathlib.Path(args.json) if args.json else None
    record = write_record(results, args.quick, path)
    print(json.dumps(record, indent=2, sort_keys=True))
    check_membership_claims(results)
    return 0


# pytest entry point (kept quick; the standalone path runs full scale).
def test_membership_benchmark_quick(output_dir):
    results = run_suite(quick=True)
    record = write_record(results, quick=True)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    check_membership_claims(results)


if __name__ == "__main__":
    sys.exit(main())
