"""Self-test of the benchmark's own plumbing (no simulation is run).

    python -m pytest benchmarks/e2e -q

Outside tier-1's ``testpaths`` on purpose: tier-1 tests the library, this
tests the ruler.
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import probes  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared(section):
    return [entry["name"] for entry in SPEC[section]]


def test_every_library_module_maps_to_one_known_layer():
    modules = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert len(modules) > 100
    seen = set()
    for module in modules:
        relative = module.relative_to(ROOT / "src" / "repro").as_posix()
        layer = trace.layer_of_module(relative)
        assert layer in trace.LAYERS, relative
        # The pstats route (absolute filename) must agree with it.
        assert trace.layer_of((str(module), 1, "f")) == layer
        seen.add(layer)
    # Every layer with source files behind it is reachable; the two
    # built-in layers have none.
    assert seen == set(trace.LAYERS) - {"rng.numpy"}


def test_builtin_time_lands_on_callers_and_shares_sum_to_one():
    client = ("/x/src/repro/registers/client.py", 10, "read")
    scheduler = ("/x/src/repro/sim/scheduler.py", 20, "run")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    core_run = ("~", 0, "<method 'run' of 'repro._native._kernel.SchedulerCore' objects>")
    draw = ("~", 0, "<method 'exponential' of 'numpy.random._generator.Generator' objects>")
    stdlib = ("/usr/lib/python3/json/encoder.py", 5, "encode")
    stats = {
        client: (4, 4, 1.0, 3.0, {}),
        scheduler: (2, 2, 2.0, 2.5, {}),
        # 0.5 s of heappush: 0.125 called from the client, 0.375 from the scheduler
        heappush: (8, 8, 0.5, 0.5, {client: (2, 2, 0.125, 0.125),
                                    scheduler: (6, 6, 0.375, 0.375)}),
        core_run: (1, 1, 0.25, 9.0, {}),
        draw: (3, 3, 0.125, 0.125, {client: (3, 3, 0.125, 0.125)}),
        stdlib: (1, 1, 0.125, 0.125, {}),
    }
    table = trace.fold(stats)
    assert table["registers.client"] == {"self_s": 1.125, "calls": 6}
    assert table["sim.scheduler"] == {"self_s": 2.375, "calls": 8}
    assert table["native.core"] == {"self_s": 0.25, "calls": 1}
    assert table["rng.numpy"] == {"self_s": 0.125, "calls": 3}
    assert table["other"] == {"self_s": 0.125, "calls": 1}
    metrics = trace.layer_metrics(stats, units=2, backend="native")
    shares = [v for k, v in metrics.items() if ".self_share." in k]
    assert len(shares) == len(trace.LAYERS)
    assert abs(sum(shares) - 1.0) < 1e-12
    assert metrics["trace.sim.scheduler.calls_per_unit.native"] == 4.0


def test_handler_calls_counts_only_library_on_message():
    stats = {
        ("/x/src/repro/registers/server.py", 1, "on_message"): (5, 5, 0, 0, {}),
        ("/x/src/repro/registers/client.py", 1, "on_message"): (7, 7, 0, 0, {}),
        ("/x/src/repro/registers/client.py", 9, "read"): (3, 3, 0, 0, {}),
        ("/elsewhere/node.py", 1, "on_message"): (11, 11, 0, 0, {}),
    }
    assert trace.handler_calls(stats) == 12


def test_declared_names_are_wellformed_and_within_limits():
    assert 2 <= len(SPEC["workloads"]) <= 4
    assert len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    names = declared("workloads") + declared("end_to_end") + declared("per_layer")
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert declared("workloads") == list(workloads.WORKLOADS)
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_every_emitted_name_is_declared():
    """Build the emitted name sets the way a run does, from placeholder
    worker documents, and hold them against BENCHMARK.json."""
    counts = dict.fromkeys((
        "sim.events_per_unit", "sim.msgs_dropped_share",
        "registers.ops_per_unit", "registers.retries_per_op",
        "registers.timeouts", "membership.views_installed",
        "membership.stale_nacks_per_op", "iterative.rounds_mean",
        "iterative.monotone_cache_hit_share",
    ), 1.0)
    wall = {backend: {"median": 1.0, "q1": 0.9, "q3": 1.1, "n": 7}
            for backend in run.BACKENDS}
    traced = {"native.fallback_share": 0.5}
    for backend in run.BACKENDS:
        traced[f"trace.overhead_x.{backend}"] = 2.0
        traced.update(trace.layer_metrics({}, 1, backend))
    document = {
        "pooled": True,
        "measure": {
            "wall_s": wall, "units": 10, "events": 100.0, "peak_rss_mb": 40.0,
            "counts": counts,
            "sim": dict.fromkeys(("finished_share", "sim_msgs_per_unit",
                                  "sim_time_p50", "sim_time_tail"), 1.0),
        },
        "trace": {"metrics": traced, "in_process_wall_s": wall},
    }
    probe_names = dict.fromkeys(probes.probe_names(), 1.0)
    e2e = run.with_units(run.end_to_end(document, [1.0, 2.0, 3.0]),
                         SPEC["end_to_end"], "end-to-end")
    layers = run.with_units(run.per_layer(document, probe_names),
                            SPEC["per_layer"], "per-layer")
    assert list(e2e) == declared("end_to_end")
    assert list(layers) == declared("per_layer")
    assert e2e["setup_s"]["value"] == 2.0
    assert layers["exec.parallel_efficiency.native"]["value"] == 0.5


def test_exactness_classification():
    exact = [name for name in declared("per_layer") if run.is_exact(name)]
    assert "sim.events_per_unit" in exact
    assert "native.fallback_share" in exact
    assert "trace.sim.futures.calls_per_unit.native" in exact
    for name in ("host.events_per_s.native", "probe.sim.futures.resolves_per_s",
                 "trace.sim.futures.self_share.native", "trace.overhead_x.python",
                 "exec.parallel_efficiency.python"):
        assert name not in exact


def test_a_differing_output_is_a_malfunction():
    """What fails a run when a cross-backend snapshot or a rerun differs."""
    import argparse
    import dataclasses

    bench = worker.Bench(
        argparse.Namespace(workload="fig2_sweep", seed=0, quick=True), HERE
    )
    first = workloads.Summary(
        units=4, attempted=4, malfunctions=[], digest="aa",
        sim={"finished_share": 1.0}, counts={"a": 1.0, "cache": 1.0},
        events=10.0, delivered=8.0,
    )
    bench.check("python repeat 0", first)
    bench.check("native repeat 0", dataclasses.replace(first))
    # The serial form of a pooled workload reports fewer counts.
    bench.check("serial", dataclasses.replace(first, counts={"a": 1.0}))
    assert (bench.attempted, bench.failed, bench.malfunctions) == (12, 0, [])
    bench.check("native repeat 1", dataclasses.replace(first, digest="bb"))
    bench.check("native repeat 2", dataclasses.replace(first, counts={"a": 2.0}))
    bench.check("native repeat 3",
                dataclasses.replace(first, malfunctions=["1 hung operation(s)"]))
    assert (bench.attempted, bench.failed) == (24, 12)
    assert len(bench.malfunctions) == 3
    assert "differs from the first run" in bench.malfunctions[0]
