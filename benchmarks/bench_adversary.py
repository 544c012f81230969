"""BENCH-ADV: adaptive vs oblivious adversaries at equal budgets.

Theorem 1 bounds the probability that a write survives ℓ subsequent
writes — i.e. that some replica in its quorum still holds the value.  An
*adaptive* adversary tries to push measured survival up (stale values
keep winning read quorums) without exceeding the same interference
budget an oblivious one gets.  This benchmark runs the same
writer/reader workload under three regimes:

* no adversary (the clean baseline),
* :class:`~repro.adversary.strategies.RandomHostileAdversary` — drops
  read replies by coin flip,
* :class:`~repro.adversary.strategies.StaleFavoringAdversary` — drops
  exactly the read replies carrying the freshest timestamp,

with identical drop budgets for the two hostile regimes, and reports
per-lag write survival (:func:`repro.core.spec.write_survival_counts`)
plus read staleness.  The recorded claim: at equal budgets the adaptive
strategy yields strictly more stale reads than the oblivious one — the
gap is the measured value of adaptivity.

Results go to ``benchmarks/output/BENCH_adversary.json``.
"""

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, Optional

from repro import specs
from repro.adversary import KINDS as ADVERSARY_KINDS
from repro.core.spec import staleness_distribution, write_survival_counts
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.client import RetryPolicy
from repro.registers.deployment import RegisterDeployment
from repro.sim.coroutines import Sleep, spawn
from repro.sim.delays import ExponentialDelay

OUTPUT_DIR = pathlib.Path(__file__).resolve().parent / "output"

#: Equal interference budget for both hostile regimes.  Both strategies
#: spend it in full (the workload offers far more reply traffic than
#: budget), so the comparison holds actual drops equal, not just the cap.
DROP_BUDGET = 200


def survival_run(
    adversary_spec: Optional[Dict[str, Any]],
    num_servers: int = 12,
    quorum_size: int = 4,
    num_readers: int = 4,
    num_writes: int = 120,
    max_lag: int = 8,
    seed: int = 7,
) -> Dict[str, Any]:
    """One writer/reader workload under an optional adversary.

    Returns per-lag survival fractions, the mean read staleness, and the
    adversary's own accounting — everything the comparison needs, as
    plain data.  Deterministic per (spec, seed).
    """
    adversary = (
        specs.build("adversary", ADVERSARY_KINDS, adversary_spec)
        if adversary_spec is not None
        else None
    )
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(num_servers, quorum_size),
        num_clients=1 + num_readers,
        delay_model=ExponentialDelay(1.0),
        seed=seed,
        # Dropped replies must be recoverable, else the comparison just
        # measures stalls: retries resample quorums until the adversary's
        # budget runs dry, so every regime finishes with zero hung ops.
        retry_policy=RetryPolicy(
            interval=2.0, backoff=1.5, jitter=0.1, max_interval=8.0
        ),
        adversary=adversary,
    )
    deployment.declare_register("X", writer=0, initial_value=0)

    def writer():
        for value in range(1, num_writes + 1):
            yield deployment.handle(0, "X").write(value)
            yield Sleep(0.5)

    def reader(client_id: int):
        for _ in range(num_writes):
            yield deployment.handle(client_id, "X").read()
            yield Sleep(0.5)

    spawn(deployment.scheduler, writer(), label="writer")
    for index in range(1, num_readers + 1):
        spawn(deployment.scheduler, reader(index), label=f"reader-{index}")
    deployment.run()

    history = deployment.space.history("X")
    counts = write_survival_counts(history, max_ell=max_lag)
    staleness = staleness_distribution(history)
    total_reads = sum(staleness.values())
    stale_reads = total_reads - staleness.get(0, 0)
    return {
        "survival": {
            ell: (s / t if t else float("nan"))
            for ell, (s, t) in sorted(counts.items())
        },
        "mean_staleness": (
            sum(lag * n for lag, n in staleness.items()) / total_reads
            if total_reads else float("nan")
        ),
        "stale_read_fraction": (
            stale_reads / total_reads if total_reads else float("nan")
        ),
        "adversary": adversary.summary() if adversary is not None else None,
        "messages_dropped": deployment.network.stats.dropped,
        "hung_ops": deployment.hung_ops,
    }


def run_suite(quick: bool = False, seed: int = 7) -> Dict[str, Any]:
    """The three-regime comparison at equal budgets."""
    writes = 80 if quick else 120
    kwargs = {"num_writes": writes, "seed": seed}
    return {
        "none": survival_run(None, **kwargs),
        "random_hostile": survival_run(
            {"kind": "random_hostile", "drop_budget": DROP_BUDGET,
             "drop_rate": 0.25},
            **kwargs,
        ),
        "stale_favoring": survival_run(
            {"kind": "stale_favoring", "drop_budget": DROP_BUDGET},
            **kwargs,
        ),
    }


def write_record(
    results: Dict[str, Any], quick: bool,
    path: Optional[pathlib.Path] = None,
) -> Dict[str, Any]:
    """Assemble and persist the BENCH_adversary.json record."""
    record: Dict[str, Any] = {
        "benchmark": "adaptive vs oblivious adversary at equal budgets",
        "quick": quick,
        "python": sys.version.split()[0],
        "drop_budget": DROP_BUDGET,
        "regimes": {
            name: {
                "mean_staleness": round(result["mean_staleness"], 4),
                "stale_read_fraction": round(
                    result["stale_read_fraction"], 4
                ),
                "survival": {
                    str(ell): round(value, 4)
                    for ell, value in result["survival"].items()
                },
                "drops": (result["adversary"] or {}).get("drops", 0),
                "hung_ops": result["hung_ops"],
            }
            for name, result in results.items()
        },
        "adaptivity_gap": round(
            results["stale_favoring"]["mean_staleness"]
            - results["random_hostile"]["mean_staleness"],
            4,
        ),
    }
    if path is None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        path = OUTPUT_DIR / "BENCH_adversary.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


def check_adaptivity_gap(results: Dict[str, Any]) -> None:
    """The recorded claim, assertable by tests and CI.

    At equal budgets the adaptive strategy must beat both the oblivious
    one and the clean baseline on staleness, and every regime must leave
    zero hung operations (adversaries degrade freshness, not liveness).
    """
    stale = results["stale_favoring"]
    random = results["random_hostile"]
    none = results["none"]
    assert stale["mean_staleness"] > random["mean_staleness"], (
        f"adaptive {stale['mean_staleness']:.4f} <= "
        f"oblivious {random['mean_staleness']:.4f}"
    )
    assert stale["mean_staleness"] > none["mean_staleness"]
    assert stale["adversary"]["drops"] <= DROP_BUDGET
    assert random["adversary"]["drops"] <= DROP_BUDGET
    for result in results.values():
        assert result["hung_ops"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: smaller workload",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    results = run_suite(args.quick, seed=args.seed)
    path = pathlib.Path(args.json) if args.json else None
    record = write_record(results, args.quick, path)
    print(json.dumps(record, indent=2, sort_keys=True))
    check_adaptivity_gap(results)
    return 0


# pytest entry point (kept quick; the standalone path runs full scale).
def test_adversary_benchmark_quick(output_dir):
    results = run_suite(quick=True)
    record = write_record(results, quick=True)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    check_adaptivity_gap(results)


if __name__ == "__main__":
    sys.exit(main())
