"""Service mode: sharding, arrivals, the front end and the runner.

Covers the PR's tentpole contracts:

* stable key→shard hashing and Zipf key popularity,
* arrival processes hit their configured mean rates and build from
  their specs,
* admission control: bounded in-flight, shed counters, the
  admitted = completed + timed_out + in_flight identity,
* byte-identical metrics snapshots across same-seed runs,
* sustained throughput at a fixed p99 SLO: the rate ladder, quick by
  default and at its recorded scale under ``REPRO_FULL=1``,
* the `serve` CLI subcommand and its Prometheus SLO series.
"""

import bisect
import collections
import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from repro import cli, specs
from repro.cli import main as cli_main
from repro.experiments.results import full_scale
from repro.obs.export import validate_prometheus_text
from repro.obs.quantiles import ALPHA, StreamingQuantiles
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.client import OperationTimeout, QuorumUnreachable
from repro.registers.deployment import RegisterDeployment
from repro.registers.sharding import ShardedKeyspace, ZipfKeys
from repro.service import ServiceConfig, run_service
from repro.service.frontend import KeyValueFrontend
from repro.sim.arrivals import (
    BLOCK,
    KINDS as ARRIVAL_KINDS,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.sim import kernel
from repro.sim.futures import Future
from tests.conftest import assert_as_printed

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


def _sequential_indices(keys, seed, n):
    """The per-draw oracle: one uniform per key, bisected into the CDF."""
    rng = np.random.default_rng(seed)
    cdf = keys._cdf.tolist()
    return [bisect.bisect_left(cdf, rng.random()) for _ in range(n)]


def test_zipf_rank_one_is_hottest_and_deterministic():
    keys = ZipfKeys(100, exponent=1.2)
    indices = keys.indices(np.random.default_rng(3), 5000)
    counts = collections.Counter(keys.names[index] for index in indices)
    assert counts.most_common(1)[0][0] == "key-00"
    # Determinism: a fresh generator with the same seed replays the draws.
    assert keys.indices(np.random.default_rng(3), 50) == indices[:50]


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
    sequential = _sequential_indices(keys, 11, draws)
    # One searchsorted over the whole batch of uniforms.
    assert keys.indices(np.random.default_rng(11), draws) == sequential
    # In the driver's blocks, across block boundaries.
    rng = np.random.default_rng(11)
    blocked = []
    while len(blocked) < draws:
        blocked += keys.indices(rng, BLOCK)
    assert blocked[:draws] == sequential


# --- arrivals --------------------------------------------------------------


def _oracle_gaps(process, rng, now, count):
    """Each kind's per-draw formula, one gap per call, with the consumer's
    clock advancing as the scheduler's does: what ``gaps`` must equal."""
    floor = 1e-9
    remaining = 0
    gaps = []
    for _ in range(count):
        if isinstance(process, PoissonArrivals):
            gap = max(floor, rng.exponential(process._scale))
        elif isinstance(process, BurstyArrivals):
            if remaining > 0:
                remaining -= 1
                gap = max(floor, rng.exponential(process._intra_scale))
            else:
                remaining = int(rng.geometric(1.0 / process._mean_burst)) - 1
                gap = max(floor, rng.exponential(process._gap_mean))
        else:
            time = now
            while True:
                time += rng.exponential(process._peak_scale)
                if rng.random() * process._peak <= process.rate_at(time):
                    break
            gap = max(floor, time - now)
        gaps.append(gap)
        now = now + gap
    return gaps


ARRIVAL_PROCESSES = [
    PoissonArrivals(4.0),
    BurstyArrivals(4.0, mean_burst=6.0, peakedness=8.0),
    DiurnalArrivals(4.0, period=50.0, amplitude=0.6),
]


@pytest.mark.parametrize(
    "process", ARRIVAL_PROCESSES, ids=["poisson", "bursty", "diurnal"]
)
def test_arrival_processes_hit_their_mean_rate(process):
    gaps = process.gaps(np.random.default_rng(5), 0.0)
    now, count = 0.0, 0
    while now < 2000.0:
        gap = next(gaps)
        assert gap > 0.0
        now += gap
        count += 1
    measured = count / now
    assert measured == pytest.approx(4.0, rel=0.1)


@pytest.mark.parametrize(
    "process", ARRIVAL_PROCESSES, ids=["poisson", "bursty", "diurnal"]
)
@pytest.mark.parametrize("start", [0.0, 17.25])
def test_arrival_gaps_equal_the_per_draw_formulas(process, start):
    """Block draws read the stream as per-draw draws would: three blocks'
    worth of gaps, from two start times (diurnal thins against the
    clock), equal the one-gap-at-a-time formulas."""
    count = 3 * BLOCK + 5
    gaps = process.gaps(np.random.default_rng(9), start)
    assert [next(gaps) for _ in range(count)] == _oracle_gaps(
        process, np.random.default_rng(9), start, count
    )


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
        rebuilt = specs.build("arrivals", ARRIVAL_KINDS, spec)
        assert repr(rebuilt) == repr(process)
        # Same spec + same seed => the same arrival timeline, long enough
        # to run through bursts and the diurnal swing.
        gaps_a = rebuilt.gaps(np.random.default_rng(9), 0.0)
        gaps_b = process.gaps(np.random.default_rng(9), 0.0)
        timeline_a = [next(gaps_a) for _ in range(200)]
        assert timeline_a == [next(gaps_b) for _ in range(200)]
        assert timeline_a == _oracle_gaps(
            process, np.random.default_rng(9), 0.0, 200
        )


def test_build_arrivals_rejects_unknown_kind():
    with pytest.raises(ValueError):
        specs.build("arrivals", ARRIVAL_KINDS, {"kind": "tidal", "rate": 1.0})
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)


# --- front end validation --------------------------------------------------


def test_frontend_rejects_bad_config():
    config = ServiceConfig(duration=10.0)
    result = run_service(config)  # a live deployment to borrow
    # (run_service already drained it; we only need its deployment shape)
    with pytest.raises(ValueError):
        KeyValueFrontend(
            _deployment_for(), ShardedKeyspace(4), ["a"], max_in_flight=0
        )
    with pytest.raises(ValueError):
        KeyValueFrontend(
            _deployment_for(), ShardedKeyspace(4), ["a"], max_in_flight=8,
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
        ServiceConfig(delay_model="warp")


@pytest.mark.parametrize(
    "field, spec, message",
    [
        ("arrivals", {"kind": "poisson"}, "arrivals spec 'poisson': missing key 'rate'"),
        ("adversary", {"kind": "nope"}, "adversary spec: unknown kind 'nope'"),
        (
            "membership",
            {"kind": "churn", "period": 5, "dran": 1.0},
            "membership spec 'churn': unknown key 'dran'",
        ),
    ],
    ids=["arrivals", "adversary", "membership"],
)
def test_service_config_checks_every_spec(field, spec, message):
    with pytest.raises(specs.SpecError) as caught:
        ServiceConfig(**{field: spec})
    assert str(caught.value).startswith(message)


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


# --- byte-identity pins ------------------------------------------------------

#: SHA-256 of ``snapshot_bytes`` per config, recorded before the request
#: path drew its traffic in blocks, routed keys through a precomputed
#: table and took its latency from the client's sketch; equal on both
#: kernels.  Each run is at most 150 t on 8 servers, quorum 3.  Every
#: settlement path is in some pinned run: ``loss_deadline`` times out
#: 111 operations, ``churn_unreachable`` gives up on 4 and ``shed``
#: sheds 1 086 of 1 157.
PIN_BASE = dict(num_servers=8, quorum_size=3, num_registers=8, seed=7)
PINNED_SNAPSHOTS = {
    "poisson": (
        dict(duration=120.0, arrivals={"kind": "poisson", "rate": 6.0}),
        "e2240975f77763b5fd0b43a43e1e8abb7f939e8ef0ae376781f69b1bfbbb579f",
    ),
    "bursty": (
        dict(duration=120.0, num_clients=2,
             arrivals={"kind": "bursty", "rate": 4.0, "mean_burst": 6.0,
                       "peakedness": 8.0}),
        "052144e37246e4e247ed53780b6458971270fe75b12ec084070de9dea7492006",
    ),
    "diurnal": (
        dict(duration=150.0,
             arrivals={"kind": "diurnal", "rate": 6.0, "period": 50.0,
                       "amplitude": 0.6}),
        "a782ebd5b47a4987526794beb515a96e7ac045c9aff1f1e9cdb2695149d2ce76",
    ),
    "two_phase": (
        dict(duration=100.0, write_mode="two_phase", read_fraction=0.6),
        "bc3e6f6e5dfbcea4ecca646d652ce0c3d2015142ed1cf8be11ad64150709aa5e",
    ),
    "churn": (
        dict(duration=120.0, arrivals={"kind": "poisson", "rate": 4.0},
             membership={"kind": "churn", "period": 10.0, "batch": 1}),
        "7491e2981983588601adbd9f066aff69188010b19b5a360b2cb34040a35699e6",
    ),
    "loss_deadline": (
        dict(duration=100.0, loss_rate=0.3, operation_deadline=15.0),
        "28b9387f0629591e435210c36c5caefd9fee07163301b5a9ba1377681776c51b",
    ),
    "churn_unreachable": (
        dict(duration=100.0, max_attempts=2,
             membership={"kind": "churn", "period": 6.25, "batch": 1}),
        "152ebe396226b4b61dde310a9197b79789746258857321b6448672e97443d494",
    ),
    "shed": (
        dict(duration=60.0, max_in_flight=4,
             arrivals={"kind": "poisson", "rate": 20.0}),
        "e6d3a95080f2dcd472983d3e327bb0f0d6a486d7a3cd4394e654d0d52ccac1c0",
    ),
    "adversary": (
        dict(duration=100.0, arrivals={"kind": "bursty", "rate": 4.0},
             adversary={"kind": "stale_favoring", "drop_budget": 40}),
        "967f09ee35b22216032c671dbb0e324cef78670dc6fb8352185f9f63e8b6b7d9",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_SNAPSHOTS))
def test_serve_snapshot_matches_its_pin(case, kernel_backend):
    knobs, digest = PINNED_SNAPSHOTS[case]
    result = run_service(ServiceConfig(**PIN_BASE, **knobs))
    assert result.hung_ops == 0
    assert hashlib.sha256(result.snapshot_bytes).hexdigest() == digest


# --- sustained throughput at a fixed p99 SLO -------------------------------

#: The SLO: sketch p99 over all operations, in simulated time units.
#: A healthy quorum round under ExponentialDelay(1.0) lands around 3-4
#: units and the first retry fires at 4, so 14 tolerates one retry in
#: the tail but fails a rung where retries become the norm.
P99_TARGET = 14.0

#: Maximum tolerated shed fraction at a sustained rung.
SHED_LIMIT = 0.01

#: Offered Poisson rates climbed at the recorded scale (REPRO_FULL=1,
#: 300 t per rung) and at the quick one (120 t per rung).
RATE_LADDER = (2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0)
QUICK_LADDER = (2.0, 8.0, 16.0)

#: EXPERIMENTS.md's "Measured SLO ladder" at the recorded scale, as
#: printed: rate -> (p99, shed %); the rate-20 rung's p99 is not printed.
RECORDED_LADDER = {
    2.0: ("10.33", "0.0"),
    4.0: ("11.08", "0.0"),
    8.0: ("11.30", "0.0"),
    12.0: ("11.30", "4.3"),
    16.0: ("11.08", "19.3"),
    20.0: (None, "32.7"),
    24.0: ("10.86", "42.9"),
}
RECORDED_SUSTAINED_RATE = 8.0


def test_slo_ladder_sustains_a_rate_and_reaches_saturation():
    """Open loop, admission control sheds past ``max_in_flight``: by
    Little's law that caps sustainable throughput, so the ladder must
    have a rung meeting the SLO (p99, shed, no timeouts, nothing hung)
    and its heaviest rung must either shed or still pass."""
    ladder, duration = (
        (RATE_LADDER, 300.0) if full_scale() else (QUICK_LADDER, 120.0)
    )

    def config(rate):
        return ServiceConfig(
            seed=0, duration=duration,
            arrivals={"kind": "poisson", "rate": rate},
        )

    rungs = []
    for rate in ladder:
        result = run_service(config(rate))
        rung = {
            "rate": rate,
            "p99": round(result.quantile("all", 0.99), 4),
            "shed_fraction": round(result.shed_fraction, 4),
            "hung_ops": result.hung_ops,
            "snapshot": result.snapshot_bytes,
        }
        rung["meets_slo"] = (
            rung["p99"] <= P99_TARGET
            and rung["shed_fraction"] <= SHED_LIMIT
            and result.timeouts == 0
            and result.hung_ops == 0
        )
        rungs.append(rung)
    # The lightest rung must meet the SLO: if it doesn't, the target is
    # miscalibrated and 'sustained throughput' would be vacuous.
    assert rungs[0]["meets_slo"], (
        f"lightest rung (rate {rungs[0]['rate']}) misses the SLO: "
        f"p99 {rungs[0]['p99']}, shed {rungs[0]['shed_fraction']}"
    )
    sustained = [rung for rung in rungs if rung["meets_slo"]][-1]
    # The ladder reached saturation (otherwise 'sustained' is just
    # 'largest tried').
    heaviest = rungs[-1]
    assert heaviest["shed_fraction"] > SHED_LIMIT or heaviest["meets_slo"], (
        "heaviest rung neither sheds nor passes — inconsistent ladder"
    )
    for rung in rungs:
        assert rung["hung_ops"] == 0, f"rung {rung['rate']} hung ops"
    if full_scale():
        # The recorded table, figure for figure.
        for rung in rungs:
            p99, shed = RECORDED_LADDER[rung["rate"]]
            if p99 is not None:
                assert_as_printed(rung["p99"], p99, f"rate {rung['rate']} p99")
            assert_as_printed(
                100.0 * rung["shed_fraction"], shed,
                f"rate {rung['rate']} shed %",
            )
        assert sustained["rate"] == RECORDED_SUSTAINED_RATE
    # Same-seed runs of the sustained rung are byte-identical.
    again = run_service(config(sustained["rate"]))
    assert again.snapshot_bytes == sustained["snapshot"], (
        "same-seed service runs must produce byte-identical snapshots"
    )


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
    submit = KeyValueFrontend.submit

    def recording(self, kind, key, value):
        started = self._scheduler.now
        future = submit(self, kind, key, value)

        def settled(fut):
            if not fut.failed:
                exact[kind].append(self._scheduler.now - started)

        if future is not None:
            future.add_callback(settled)
        return future

    monkeypatch.setattr(KeyValueFrontend, "submit", recording)
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
        deployment, ShardedKeyspace(2), ["a"], max_in_flight=8
    )
    frontend.in_flight = 3
    frontend._settled("read", _future())
    frontend._settled("read", _future(OperationTimeout("late")))
    frontend._settled(
        "write", _future(QuorumUnreachable("kv/0", "write", 3))
    )
    # Settling only counts: the latency is the register client's record.
    assert observed == []
    assert frontend.completed == {"read": 1, "write": 0}
    assert frontend.timed_out == {"read": 1, "write": 0}
    assert frontend.unreachable == {"read": 0, "write": 1}
    assert frontend.in_flight == 0

    # End to end: a completed serve op bumps one sketch, the client's
    # repro_op_latency, and the service series is a copy of it taken at
    # collection time.  (On native the client core bumps its sketch in
    # C, without ``observe``.)
    with kernel.use_backend("python"):
        result = run_service(ServiceConfig(**QUICK))
    assert result.timeouts == 0 and result.counters["in_flight"] == 0
    assert len(observed) == result.completed
    by_name = {
        item["name"]: item for item in result.snapshot["instruments"]
    }
    assert (
        by_name["repro_service_latency"]["series"]
        == by_name["repro_op_latency"]["series"]
    )


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


def test_cli_serve_metrics_out_exports_the_slo_series(tmp_path, capsys):
    path = tmp_path / "serve.prom"
    assert cli_main([
        "serve", "--duration", "100", "--clients", "2",
        "--metrics-out", str(path),
    ]) == 0
    capsys.readouterr()
    text = path.read_text(encoding="utf-8")
    assert "# TYPE repro_service_latency histogram" in text
    assert "_overflow" not in text
    parsed = validate_prometheus_text(text)
    quantiles = parsed["repro_service_latency_quantile"]["samples"]
    kinds = {labels["kind"] for labels, _ in quantiles}
    assert {"read", "write", "all"} <= kinds, kinds
    labels = {labels["quantile"] for labels, _ in quantiles}
    assert labels == {"p50", "p99", "p999"}, labels
    assert parsed["repro_service_shed_total"]["type"] == "counter"
    # One instrument: the histogram series and the quantile gauges are
    # the same sketch.  Per kind the series counted every completed
    # operation, its cumulative buckets are non-decreasing and end at
    # _count, and the quantiles are ordered.
    estimate = {
        (labels["kind"], labels["quantile"]): value
        for labels, value in quantiles
    }
    completed = {
        labels["kind"]: value for labels, value
        in parsed["repro_service_completed_total"]["samples"]
    }
    buckets, count = {}, {}
    for labels, value in parsed["repro_service_latency"]["samples"]:
        if "le" in labels:
            buckets.setdefault(labels["kind"], []).append(value)
        else:  # _sum, then _count
            count[labels["kind"]] = value
    for kind in ("read", "write"):
        assert count[kind] == completed[kind], (kind, count, completed)
        assert buckets[kind] == sorted(buckets[kind]), buckets[kind]
        assert buckets[kind][-1] == count[kind], (kind, buckets[kind])
    for kind in kinds:
        p50, p99, p999 = (
            estimate[kind, label] for label in ("p50", "p99", "p999")
        )
        assert p50 <= p99 <= p999, (kind, p50, p99, p999)


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
