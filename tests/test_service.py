"""Service mode: sharding, arrivals, the front end and the runner.

Covers the PR's tentpole contracts:

* stable key→shard hashing and Zipf key popularity,
* arrival processes hit their configured mean rates and round-trip
  through their specs,
* admission control: bounded in-flight, shed counters, the
  admitted = completed + timed_out + in_flight identity,
* byte-identical metrics snapshots across same-seed runs (the
  determinism claim the `service-smoke` CI job re-asserts end to end),
* the `serve` CLI subcommand.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from repro import cli
from repro.cli import main as cli_main
from repro.obs.core import Observability
from repro.obs.registry import MetricsRegistry
from repro.obs.quantiles import ALPHA, StreamingQuantiles
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.client import OperationTimeout, QuorumUnreachable
from repro.registers.deployment import RegisterDeployment
from repro.registers.sharding import ShardedKeyspace, ZipfKeys
from repro.service import ServiceConfig, run_service
from repro.service.frontend import KeyValueFrontend
from repro.sim.arrivals import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    build_arrivals,
)
from repro.sim import kernel
from repro.sim.futures import Future

# --- sharding --------------------------------------------------------------


def test_sharded_keyspace_is_stable_and_total():
    keyspace = ShardedKeyspace(8)
    assert len(keyspace.register_names) == 8
    assert keyspace.register_names[3] == "kv/3"
    for key in ("alpha", "beta", "key-0042"):
        shard = keyspace.shard_of(key)
        assert 0 <= shard < 8
        # Same key, same placement — across calls and across instances.
        assert ShardedKeyspace(8).shard_of(key) == shard
        assert keyspace.register_names[shard] == f"kv/{shard}"


def test_sharded_keyspace_spreads_keys():
    keyspace = ShardedKeyspace(16)
    counts = [0] * 16
    for index in range(2000):
        counts[keyspace.shard_of(f"key-{index:05d}")] += 1
    # CRC-32 on distinct keys: no shard should be starved or dominate.
    assert min(counts) > 0
    assert max(counts) < 2000 * 0.25


def test_sharded_keyspace_rejects_empty():
    with pytest.raises(ValueError):
        ShardedKeyspace(0)


# --- zipf keys -------------------------------------------------------------


def test_zipf_rank_one_is_hottest_and_deterministic():
    keys = ZipfKeys(100, exponent=1.2)
    rng = np.random.default_rng(3)
    counts: dict = {}
    for _ in range(5000):
        name = keys.sample(rng)
        counts[name] = counts.get(name, 0) + 1
    hottest = max(counts, key=counts.get)
    assert hottest == "key-00"
    # Determinism: a fresh generator with the same seed replays the draws.
    replay = np.random.default_rng(3)
    assert [keys.sample(replay) for _ in range(50)] == [
        name for name in _first_draws(keys, 3, 50)
    ]


def _first_draws(keys, seed, n):
    rng = np.random.default_rng(seed)
    return [keys.sample(rng) for _ in range(n)]


def test_zipf_probabilities_sum_to_one_and_decrease():
    keys = ZipfKeys(50, exponent=1.0)
    probabilities = np.diff(keys._cdf, prepend=0.0).tolist()
    assert sum(probabilities) == pytest.approx(1.0)
    assert all(
        p1 >= p2 for p1, p2 in zip(probabilities, probabilities[1:])
    )
    # Exponent 0 is the uniform degenerate case.
    uniform = ZipfKeys(10, exponent=0.0)
    assert np.diff(uniform._cdf, prepend=0.0) == pytest.approx([0.1] * 10)


def test_zipf_batch_matches_sequential_sampling():
    keys = ZipfKeys(200, exponent=1.1)
    draws = 10_000
    sequential = _first_draws(keys, 11, draws)
    # Vectorized: one searchsorted over the whole batch of uniforms.
    indices = np.searchsorted(
        keys._cdf, np.random.default_rng(11).random(draws), side="left"
    )
    assert [keys._names[int(index)] for index in indices] == sequential
    # The scalar path bisects a list copy of the CDF; np.searchsorted
    # over the array is the reference it must match draw for draw.
    rng, reference_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(draws):
        assert keys.sample_index(rng) == int(
            np.searchsorted(keys._cdf, reference_rng.random(), side="left")
        )


# --- arrivals --------------------------------------------------------------


@pytest.mark.parametrize(
    "process",
    [
        PoissonArrivals(4.0),
        BurstyArrivals(4.0, mean_burst=6.0, peakedness=8.0),
        DiurnalArrivals(4.0, period=50.0, amplitude=0.6),
    ],
    ids=["poisson", "bursty", "diurnal"],
)
def test_arrival_processes_hit_their_mean_rate(process):
    rng = np.random.default_rng(5)
    now, count = 0.0, 0
    while now < 2000.0:
        gap = process.next_interarrival(rng, now)
        assert gap > 0.0
        now += gap
        count += 1
    measured = count / now
    assert measured == pytest.approx(4.0, rel=0.1)


def test_arrival_spec_roundtrip():
    for spec, process in (
        ({"kind": "poisson", "rate": 2.0}, PoissonArrivals(2.0)),
        (
            {"kind": "bursty", "rate": 3.0, "mean_burst": 4.0,
             "peakedness": 12.0},
            BurstyArrivals(3.0, mean_burst=4.0, peakedness=12.0),
        ),
        (
            {"kind": "diurnal", "rate": 1.5, "period": 100.0,
             "amplitude": 0.4},
            DiurnalArrivals(1.5, period=100.0, amplitude=0.4),
        ),
    ):
        rebuilt = build_arrivals(spec)
        assert repr(rebuilt) == repr(process)
        assert rebuilt.spec() == process.spec() == spec
        # Same spec + same seed => the same arrival timeline.
        gaps_a = [
            rebuilt.next_interarrival(np.random.default_rng(9), 0.0)
        ]
        gaps_b = [
            process.next_interarrival(np.random.default_rng(9), 0.0)
        ]
        assert gaps_a == gaps_b


def test_build_arrivals_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_arrivals({"kind": "tidal", "rate": 1.0})
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)


# --- front end validation --------------------------------------------------


def test_frontend_rejects_bad_config():
    config = ServiceConfig(duration=10.0)
    result = run_service(config)  # a live deployment to borrow
    # (run_service already drained it; we only need its deployment shape)
    with pytest.raises(ValueError):
        KeyValueFrontend(
            _deployment_for(), ShardedKeyspace(4), max_in_flight=0
        )
    with pytest.raises(ValueError):
        KeyValueFrontend(
            _deployment_for(), ShardedKeyspace(4), max_in_flight=8,
            write_mode="quorumless",
        )
    assert result.offered >= 0


def _deployment_for():
    from repro.quorum.probabilistic import ProbabilisticQuorumSystem
    from repro.registers.deployment import RegisterDeployment

    return RegisterDeployment(
        ProbabilisticQuorumSystem(4, 2), num_clients=1
    )


def test_service_config_rejects_bad_delay_model():
    with pytest.raises(ValueError):
        ServiceConfig(delay_model="warp").build_delay_model()


# --- end-to-end service runs ----------------------------------------------

QUICK = dict(duration=80.0, num_servers=8, quorum_size=3, num_registers=8)


def test_service_run_counter_identity():
    result = run_service(ServiceConfig(**QUICK))
    counters = result.counters
    admitted = sum(counters["admitted"].values())
    timed_out = sum(counters["timed_out"].values())
    assert result.offered == admitted + result.shed
    assert admitted == result.completed + timed_out + counters["in_flight"]
    assert counters["peak_in_flight"] <= 64
    assert result.hung_ops == 0
    # The registry agrees with the result object.
    by_name = {
        item["name"]: item for item in result.snapshot["instruments"]
    }
    assert by_name["repro_service_offered_total"]["series"][0][1] == (
        result.offered
    )


def test_service_same_seed_runs_are_byte_identical():
    config = ServiceConfig(seed=123, **QUICK)
    first = run_service(config)
    second = run_service(config)
    assert first.snapshot_bytes == second.snapshot_bytes
    assert first.offered == second.offered
    assert first.streaming == second.streaming
    # And a different seed actually changes the run.
    other = run_service(ServiceConfig(seed=124, **QUICK))
    assert other.snapshot_bytes != first.snapshot_bytes


def test_service_sheds_under_tiny_in_flight_cap():
    config = ServiceConfig(
        arrivals={"kind": "poisson", "rate": 20.0},
        max_in_flight=4,
        **QUICK,
    )
    result = run_service(config)
    assert result.shed > 0
    assert result.counters["peak_in_flight"] == 4
    assert result.shed_fraction > 0.3
    # Shed requests are counted, never issued: per-kind shed counters
    # are exported too.
    shed_series = {
        item["name"]: item for item in result.snapshot["instruments"]
    }["repro_service_shed_total"]["series"]
    assert sum(value for _, value in shed_series) == result.shed


def test_service_timeouts_under_loss_are_counted_not_latencied():
    config = ServiceConfig(
        loss_rate=0.35,
        operation_deadline=20.0,
        **QUICK,
    )
    result = run_service(config)
    assert result.timeouts > 0
    assert result.hung_ops == 0
    counters = result.counters
    timed_out = sum(counters["timed_out"].values())
    assert timed_out == result.timeouts
    # Latency streams only saw completions.
    assert result.streaming["all"] is not None
    total_observed = sum(
        stream_count
        for kind, stream_count in (
            ("read", counters["completed"]["read"]),
            ("write", counters["completed"]["write"]),
        )
    )
    assert total_observed == result.completed


def test_service_two_phase_mode_completes_loss_free():
    result = run_service(
        ServiceConfig(write_mode="two_phase", **QUICK)
    )
    assert result.completed > 0
    assert result.hung_ops == 0
    assert result.timeouts == 0


def test_service_two_phase_mode_under_loss_settles_everything(capsys):
    """A two-phase write is one pending op with the retry chain and the
    deadline of every other: loss delays or times it out, never strands
    it, so no admission slot stays pinned and the CLI has nothing to warn
    about."""
    config = dict(write_mode="two_phase", loss_rate=0.2, seed=0)
    result = run_service(ServiceConfig(**config, **QUICK))
    counters = result.counters
    assert result.hung_ops == counters["in_flight"] == 0
    assert result.timeouts > 0
    assert sum(counters["admitted"].values()) == (
        result.completed
        + sum(counters["timed_out"].values())
        + sum(counters["unreachable"].values())
    )

    assert cli_main([
        "serve", "--write-mode", "two_phase", "--loss-rate", "0.2",
        "--duration", "80", "--rate", "2", "--seed", "0",
    ]) == 0
    captured = capsys.readouterr()
    assert "still pending at horizon: 0;" in captured.out
    assert "warning" not in captured.err and "hung" not in captured.err


def test_service_slo_table_renders():
    result = run_service(ServiceConfig(**QUICK))
    table = result.slo_table()
    assert "p99" in table
    assert "shed" in table
    assert str(result.offered) in table


# --- latency sketches vs the exact settled latencies -----------------------


@pytest.mark.parametrize(
    "membership",
    [None, {"kind": "churn", "period": 6.25, "batch": 1}],
    ids=["calm", "churn"],
)
def test_service_quantiles_within_alpha_of_exact_latencies(
    membership, monkeypatch
):
    """Under churn the latency distribution is bimodal (clean round vs.
    nack + re-dispatch) and the median sits between the modes — where a
    marker-interpolating estimator read 7-12% low.  The sketch's bound
    holds for any shape."""
    exact = {"read": [], "write": []}
    settled = KeyValueFrontend._settled

    def recording(self, kind, started, future):
        if not future.failed:
            exact[kind].append(self._scheduler.now - started)
        settled(self, kind, started, future)

    monkeypatch.setattr(KeyValueFrontend, "_settled", recording)
    result = run_service(ServiceConfig(
        seed=7, duration=300.0, membership=membership,
        arrivals={"kind": "poisson", "rate": 8.0},
    ))
    exact["all"] = exact["read"] + exact["write"]
    assert len(exact["all"]) == result.completed > 1000

    latency = {
        item["name"]: item for item in result.snapshot["instruments"]
    }["repro_service_latency"]
    series = {labels[0]: datum for labels, datum in latency["series"]}

    tolerance = ALPHA * (1.0 + 1e-9)
    for kind in ("read", "write", "all"):
        ordered = sorted(exact[kind])
        for q in (0.5, 0.99):
            sample = ordered[max(1, math.ceil(q * len(ordered))) - 1]
            estimate = result.quantile(kind, q)
            assert abs(estimate - sample) <= tolerance * sample, (kind, q)
    # The exported histogram series is that same sketch: it saw every
    # completed operation of its kind, once.
    for kind in ("read", "write"):
        assert series[kind]["count"] == result.counters["completed"][kind]
        assert series[kind]["sum"] == pytest.approx(sum(exact[kind]))


def _future(exception=None):
    future = Future()
    if exception is None:
        future.resolve(0)
    else:
        future.fail(exception)
    return future


def test_frontend_records_each_settled_latency_once(monkeypatch):
    observed = []
    observe = StreamingQuantiles.observe

    def recording(self, value):
        observed.append(value)
        observe(self, value)

    monkeypatch.setattr(StreamingQuantiles, "observe", recording)
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(4, 2), num_clients=1
    )
    frontend = KeyValueFrontend(
        deployment, ShardedKeyspace(2), max_in_flight=8,
        observability=Observability(MetricsRegistry()),
    )
    frontend.in_flight = 3
    deployment.scheduler.schedule(2.5, lambda: None)
    deployment.run()
    frontend._settled("read", 1.0, _future())
    assert observed == [1.5]
    frontend._settled("read", 1.0, _future(OperationTimeout("late")))
    frontend._settled(
        "write", 1.0, _future(QuorumUnreachable("kv/0", "write", 3))
    )
    assert observed == [1.5]
    assert frontend.completed == {"read": 1, "write": 0}
    assert frontend.timed_out == {"read": 1, "write": 0}
    assert frontend.unreachable == {"read": 0, "write": 1}
    assert frontend.in_flight == 0

    # End to end: a completed serve op bumps two sketches — the client's
    # repro_op_latency and the front end's repro_service_latency.  (On
    # native the client core bumps its sketch in C, without ``observe``.)
    del observed[:]
    with kernel.use_backend("python"):
        result = run_service(ServiceConfig(**QUICK))
    assert result.timeouts == 0 and result.counters["in_flight"] == 0
    assert len(observed) == 2 * result.completed


# --- the serve CLI ---------------------------------------------------------


def test_cli_serve_writes_deterministic_snapshot(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    base = [
        "serve", "--duration", "60", "--rate", "3",
        "--servers", "8", "--quorum-size", "3", "--registers", "8",
    ]
    assert cli_main(base + ["--snapshot-out", str(first)]) == 0
    assert cli_main(base + ["--snapshot-out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    snapshot = json.loads(first.read_bytes())
    names = {item["name"] for item in snapshot["instruments"]}
    assert "repro_service_latency" in names
    assert "repro_service_offered_total" in names
    out = capsys.readouterr().out
    assert "service SLO summary" in out


def test_cli_serve_trace_spans_records_operations(
    tmp_path, capsys, kernel_backend
):
    """``--trace-spans`` covers ``serve`` like every other subcommand: the
    service run records into the session's span recorder — and spans are
    not metrics, so the snapshot is the span-less run's, byte for byte."""
    base = ["serve", "--duration", "30", "--seed", "3"]
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli_main(base + ["--snapshot-out", str(plain)]) == 0
    capsys.readouterr()
    assert cli_main(
        base + ["--snapshot-out", str(traced), "--trace-spans", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "slowest 2 of" in out
    spans = out[out.index("slowest 2 of"):]
    assert re.search(r"^ +[\d.]+ +(read|write) +ok ", spans, re.MULTILINE)
    assert "quorum_round" in spans
    assert traced.read_bytes() == plain.read_bytes()


def test_cli_serve_reports_hung_operations_on_stderr(monkeypatch, capsys):
    """A clean run says nothing about hung operations; a run that leaves
    some says so on stderr, where ``tools/cross_backend.py`` looks."""
    base = ["serve", "--duration", "20", "--servers", "8", "--quorum-size", "3"]
    assert cli_main(base) == 0
    assert "hung" not in capsys.readouterr().err
    monkeypatch.setattr(cli, "run_service", lambda config: dataclasses.replace(
        run_service(config), hung_ops=2
    ))
    assert cli_main(base) == 0
    assert f"2 {cli.HUNG_OPS_WARNING}" in capsys.readouterr().err


def test_cli_serve_arrival_knobs(tmp_path):
    out = tmp_path / "s.json"
    assert cli_main([
        "serve", "--duration", "60", "--arrivals", "bursty",
        "--mean-burst", "4", "--peakedness", "6",
        "--servers", "8", "--quorum-size", "3",
        "--snapshot-out", str(out),
    ]) == 0
    assert out.exists()
