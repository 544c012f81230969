"""The repo's one benchmark: four workloads x two kernel backends.

    python benchmarks/e2e/run.py                      # the whole ledger
    python benchmarks/e2e/run.py --quick              # CI smoke, ~20 s
    python benchmarks/e2e/run.py --repeat-sets 2      # noise self-report
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Every metric is printed by name with its unit; the names, units, bounds
and workloads are the ones ``BENCHMARK.json`` at the repo root declares,
and a run whose emitted names differ from it fails.  With ``--workload``
and ``--trace`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``.
Without them every workload runs both ways and the full record is
written to ``benchmarks/e2e/output/record.json`` (or ``--record PATH``).

Each workload runs in a fresh subprocess (see ``worker.py``).  Exit code
0 means every correctness check passed; any malfunction, a missing native
extension or a name mismatch exits non-zero without writing a record.
README.md in this directory defines every metric and workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
BACKENDS = ("python", "native")

#: Set-ups per workload whose median is ``setup_s`` (one when ``--quick``).
SETUPS = 3
QUICK_SECONDS = 1.0
#: A child that outlives this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0

#: Metrics that are host time or memory.  Every other name is a function
#: of the seed alone and must repeat exactly.
HOST_TIME_END_TO_END = ("units_per_s.", "setup_s", "peak_rss_mb")
HOST_TIME_PREFIXES = ("host.", "probe.", "exec.parallel_efficiency.")


def is_exact(name: str) -> bool:
    return not (
        name.startswith(HOST_TIME_PREFIXES)
        or ".self_share." in name
        or name.startswith("trace.overhead_x.")
    )


class BenchmarkFailed(Exception):
    """A child failed or reported wrong outputs; the message says which."""


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child(workload: str, seed: int, seconds: float, phases: str,
          quick: bool) -> Dict[str, Any]:
    """Run one worker subprocess and return the document it printed."""
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(WORKER), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--phases", phases,
        "--started", repr(time.time()),
    ] + (["--quick"] if quick else [])
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkFailed(
            f"{workload}: worker exceeded {CHILD_TIMEOUT_S:.0f} s"
        ) from None
    if done.returncode != 0:
        raise BenchmarkFailed(f"{workload}: worker exited {done.returncode}")
    document = json.loads(done.stdout.strip().splitlines()[-1])
    if document["malfunctions"]:
        raise BenchmarkFailed(
            f"{workload}: outputs are wrong:\n  "
            + "\n  ".join(document["malfunctions"])
        )
    return document


def end_to_end(document: Dict[str, Any], setups: List[float]) -> Dict[str, Any]:
    measured = document["measure"]
    metrics: Dict[str, Any] = {}
    for backend in BACKENDS:
        wall = measured["wall_s"][backend]
        # Rate quartiles come from the opposite wall quartiles.
        metrics[f"units_per_s.{backend}"] = {
            "value": measured["units"] / wall["median"],
            "q1": measured["units"] / wall["q3"],
            "q3": measured["units"] / wall["q1"],
            "n": wall["n"],
        }
    metrics["setup_s"] = {"value": statistics.median(setups), "n": len(setups)}
    metrics["peak_rss_mb"] = {"value": measured["peak_rss_mb"]}
    for name, value in measured["sim"].items():
        metrics[name] = {"value": value}
    return metrics


def per_layer(document: Dict[str, Any], probes: Dict[str, float]) -> Dict[str, Any]:
    measured, traced = document["measure"], document["trace"]
    values: Dict[str, float] = {
        # Families a workload never touches read 0.
        "service.shed_share": 0.0,
        "service.peak_in_flight": 0.0,
        "exec.cache_hit_share": 0.0,
    }
    values.update(measured["counts"])
    values.update(traced["metrics"])
    values.update(probes)
    pooled = traced["in_process_wall_s"]
    for backend in BACKENDS:
        wall = measured["wall_s"][backend]
        values[f"host.events_per_s.{backend}"] = measured["events"] / wall["median"]
        values[f"host.wall_iqr_share.{backend}"] = (
            (wall["q3"] - wall["q1"]) / wall["median"]
        )
        # Serial wall / (workers x pooled wall); 0 where nothing is pooled.
        values[f"exec.parallel_efficiency.{backend}"] = (
            pooled[backend]["median"] / (2 * wall["median"])
            if document["pooled"] else 0.0
        )
    return {name: {"value": value} for name, value in values.items()}


def with_units(metrics: Dict[str, Any], declared: List[Dict[str, Any]],
               what: str) -> Dict[str, Any]:
    """Attach declared units; the emitted names must be exactly the declared."""
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise BenchmarkFailed(
            f"{what} names differ from BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}"
        )
    return {
        entry["name"]: {**metrics[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def run_workload(spec, workload: str, seed: int, seconds: float, quick: bool,
                 want_e2e: bool, want_layers: bool,
                 probes: Optional[Dict[str, float]]) -> Dict[str, Any]:
    """One workload's part of the record."""
    phases = [p for p, wanted in (("measure", want_e2e), ("trace", want_layers),
                                  ("probes", want_layers and probes is None))
              if wanted]
    setups = []
    if want_e2e:
        for _ in range(0 if quick else SETUPS - 1):
            setups.append(child(workload, seed, seconds, "", quick)["setup_s"])
    document = child(workload, seed, seconds, ",".join(phases), quick)
    setups.append(document["setup_s"])
    part: Dict[str, Any] = {
        "inputs_digest": document["inputs_digest"],
        "unit_of_work": document["unit_of_work"],
        "environment": document["environment"],
        "setup_stages": document["setup_stages"],
        "attempted": document["attempted"],
        "failed": document["failed"],
    }
    if want_e2e:
        part["end_to_end"] = with_units(
            end_to_end(document, setups), spec["end_to_end"], "end-to-end"
        )
    if want_layers:
        part["probes"] = document.get("probes", probes)
        part["per_layer"] = with_units(
            per_layer(document, part["probes"]), spec["per_layer"], "per-layer"
        )
    return part


def print_part(workload: str, part: Dict[str, Any]) -> None:
    print(f"\n== {workload}  (unit of work: {part['unit_of_work']}; "
          f"inputs {part['inputs_digest'][:12]})")
    for section in ("end_to_end", "per_layer"):
        for name, metric in part.get(section, {}).items():
            spread = ""
            if "q1" in metric:
                spread = (f"   [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, "
                          f"n={metric['n']}]")
            elif "n" in metric:
                spread = f"   [n={metric['n']}]"
            print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}{spread}")


def run_ledger(spec, workloads: List[str], seed: int, seconds: float,
               quick: bool, want_e2e: bool, want_layers: bool) -> Dict[str, Any]:
    record: Dict[str, Any] = {"seed": seed, "quick": quick,
                              "run_seconds": seconds, "workloads": {}}
    probes = None
    for workload in workloads:
        part = run_workload(spec, workload, seed, seconds, quick,
                            want_e2e, want_layers, probes)
        probes = part.get("probes")
        record["workloads"][workload] = part
        print_part(workload, part)
    return record


def compare_sets(spec, sets: List[Dict[str, Any]]) -> bool:
    """Noise self-report: every later set against the first.

    Seed-determined numbers must agree exactly; host-time numbers within
    their bound, in either direction (on the same code a large gain is as
    much noise as a large loss).  ``--quick`` runs are too short for the
    bounds to mean anything, so there only the exact ones can fail.
    """
    ok = True
    first_set = sets[0]
    first = first_set["workloads"]
    for index, other in enumerate(sets[1:], start=2):
        print(f"\n== set {index} against set 1 (worse-by share next to its bound)")
        for workload, part in other["workloads"].items():
            for entry in spec["end_to_end"] if "end_to_end" in part else ():
                name = entry["name"]
                base = first[workload]["end_to_end"][name]["value"]
                value = part["end_to_end"][name]["value"]
                sign = 1.0 if entry["better"] == "lower" else -1.0
                worse = sign * (value - base) / base
                exact = not name.startswith(HOST_TIME_END_TO_END)
                bad = value != base if exact else (
                    not first_set["quick"] and abs(worse) > entry["bound"]
                )
                ok = ok and not bad
                print(f"  {workload:<12} {name:<22} {worse:+8.2%}  bound "
                      f"{'exact' if exact else format(entry['bound'], '.0%'):<6}"
                      f"{'  EXCEEDED' if bad else ''}")
            for name, metric in part.get("per_layer", {}).items():
                base = first[workload]["per_layer"][name]["value"]
                if is_exact(name) and metric["value"] != base:
                    ok = False
                    print(f"  {workload:<12} {name} not exact: "
                          f"{base!r} vs {metric['value']!r}")
    return ok


def main(argv=None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per workload (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only, 1: per-layer only "
                        "(default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, ~20 s in all; never compared "
                        "with a full record")
    parser.add_argument("--repeat-sets", type=int, default=1, metavar="N",
                        help="run everything N times on the same code and "
                        "report the differences against the bounds")
    parser.add_argument("--record", default=None, metavar="PATH",
                        help="where to write the record")
    args = parser.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    workloads = [args.workload] if args.workload else names
    want_e2e, want_layers = args.trace != 1, args.trace != 0
    try:
        sets = [
            run_ledger(spec, workloads, args.seed, seconds, args.quick,
                       want_e2e, want_layers)
            for _ in range(args.repeat_sets)
        ]
        if not compare_sets(spec, sets):
            raise BenchmarkFailed("repeat sets disagree beyond the bounds")
    except BenchmarkFailed as failure:
        print(f"benchmark FAILED: {failure}", file=sys.stderr)
        return 1

    record_path = args.record
    if record_path is None and args.workload is None:
        record_path = str(HERE / "output" / "record.json")
    if record_path is not None:
        path = Path(record_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(sets[0] if len(sets) == 1 else {"sets": sets},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\nrecord written to {path}")

    if args.workload is not None and args.trace is not None:
        part = sets[0]["workloads"][args.workload]
        section = part["end_to_end" if args.trace == 0 else "per_layer"]
        print(json.dumps({
            "correct": True,
            "attempted": part["attempted"],
            "failed": part["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in section.items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
