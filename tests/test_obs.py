"""Tests for the observability layer (repro.obs).

Covers the metrics registry (instruments, labels, snapshot/merge
determinism), the Prometheus/JSON exporters and the structural validator,
operation spans (ring-buffer cap, slowest-N ordering), and the wiring:
Alg1Runner collection, worker result payloads, and the engine's
merge-into-active-session path (including cache hits).
"""

import json
import math

import pytest

from repro.exec.cache import RunCache
from repro.exec.engine import run_many
from repro.exec.task import RunTask
from repro.iterative.runner import Alg1Runner
from repro.apps.apsp import ApspACO
from repro.apps.graphs import chain_graph
from repro.obs import runtime as obs_runtime
from repro.obs.core import DISABLED, Observability
from repro.obs.export import (
    LE_STRIDE,
    PrometheusFormatError,
    to_json,
    to_prometheus_text,
    validate_prometheus_text,
)
from repro.obs.quantiles import ALPHA, StreamingQuantiles, upper_edge
from repro.obs.registry import (
    Family,
    MetricsError,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.spans import NULL_RECORDER, SpanRecorder
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.sim.delays import ConstantDelay, ExponentialDelay


TINY_PARAMS = {
    "graph": {"kind": "chain", "n": 5},
    "quorum": {"kind": "probabilistic", "n": 6, "k": 2},
    "delay": {"kind": "constant", "mean": 1.0},
    "monotone": True,
    "max_rounds": 60,
}


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test starts and ends with no active observability session."""
    obs_runtime.deactivate()
    yield
    obs_runtime.deactivate()


# --- instruments -----------------------------------------------------------


def test_counter_accumulates_and_rejects_negative():
    registry = MetricsRegistry()
    counter = registry.counter("hits_total", "Hits.")
    counter.inc()
    counter.inc(4)
    assert registry.sample("hits_total") == 5
    with pytest.raises(MetricsError):
        counter.inc(-1)


def test_gauge_set_inc_dec():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth")
    gauge.set(10)
    gauge.inc(3)
    gauge.dec()
    assert registry.sample("depth") == 12


def test_labels_create_independent_series():
    registry = MetricsRegistry()
    family = registry.counter("ops_total", "Ops.", labelnames=("kind",))
    family.labels("read").inc(2)
    family.labels("write").inc(5)
    assert registry.sample("ops_total", ["read"]) == 2
    assert registry.sample("ops_total", ["write"]) == 5
    # Label values coerce to strings; 1 and "1" are the same series.
    family2 = registry.counter("by_node", labelnames=("node",))
    family2.labels(1).inc()
    family2.labels("1").inc()
    assert registry.sample("by_node", ["1"]) == 2


def test_label_arity_enforced():
    registry = MetricsRegistry()
    family = registry.counter("ops_total", labelnames=("kind",))
    with pytest.raises(MetricsError):
        family.labels()
    with pytest.raises(MetricsError):
        family.labels("read", "extra")


def test_reregistration_is_get_or_create_but_kind_mismatch_raises():
    registry = MetricsRegistry()
    first = registry.counter("x_total", labelnames=("a",))
    assert registry.counter("x_total", labelnames=("a",)) is first
    with pytest.raises(MetricsError):
        registry.gauge("x_total", labelnames=("a",))
    with pytest.raises(MetricsError):
        registry.counter("x_total", labelnames=("b",))


def test_sample_unknown_instrument_raises():
    with pytest.raises(MetricsError):
        MetricsRegistry().sample("nope")


def test_histogram_observe_and_quantiles():
    histogram = MetricsRegistry().histogram("x").labels()
    # One class, no fork: the registry's histogram is the sketch.
    assert type(histogram) is StreamingQuantiles
    for value in (0.5, 0.5, 1.5, 3.0, 100.0):
        histogram.observe(value)
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(105.5)
    # Any quantile, within ALPHA of the nearest-rank sample quantile —
    # the tail included: no layout for an observation to escape.
    for q, exact in ((0.0, 0.5), (0.5, 1.5), (0.8, 3.0), (1.0, 100.0)):
        assert histogram.value(q) == pytest.approx(exact, rel=ALPHA)
    assert math.isnan(MetricsRegistry().histogram("y").labels().value(0.5))
    with pytest.raises(MetricsError):
        histogram.value(1.5)


def test_histogram_rejects_non_finite_observations():
    # Regression: a NaN or ±inf observation would poison sum for the
    # instrument's whole lifetime.  They fail fast (so do negatives: the
    # log-bucket map has no bucket for them) and leave the state alone.
    histogram = MetricsRegistry().histogram("x").labels()
    histogram.observe(0.5)
    before = histogram.snapshot()
    for bad in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(MetricsError):
            histogram.observe(bad)
    assert histogram.snapshot() == before
    assert before["count"] == 1 and before["sum"] == 0.5


# --- snapshot / merge ------------------------------------------------------


def populated_registry(scale: int = 1) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("msgs_total", "Messages.").inc(10 * scale)
    ops = registry.counter("ops_total", "Ops.", labelnames=("kind",))
    ops.labels("read").inc(3 * scale)
    ops.labels("write").inc(scale)
    registry.gauge("pending").set(2 * scale)
    latency = registry.histogram("latency", "Latency.", labelnames=("kind",))
    latency.labels("read").observe(0.5 * scale)
    latency.labels("read").observe(5.0)
    return registry


def test_snapshot_is_json_roundtrippable_and_sorted():
    snapshot = populated_registry().snapshot()
    assert snapshot == json.loads(json.dumps(snapshot))
    names = [i["name"] for i in snapshot["instruments"]]
    assert names == sorted(names)


def test_merge_snapshot_adds_counters_gauges_histograms():
    parent = populated_registry(scale=1)
    parent.merge_snapshot(populated_registry(scale=2).snapshot())
    assert parent.sample("msgs_total") == 30
    assert parent.sample("ops_total", ["read"]) == 9
    assert parent.sample("ops_total", ["write"]) == 3
    # Gauges merge by sum (documented: "total across runs").
    assert parent.sample("pending") == 6
    merged = parent.sample("latency", ["read"])
    assert merged.count == 4
    assert merged.sum == pytest.approx(0.5 + 5.0 + 1.0 + 5.0)


def test_merge_is_bit_deterministic():
    def aggregate():
        parent = MetricsRegistry()
        for scale in (1, 2, 3):
            parent.merge_snapshot(populated_registry(scale).snapshot())
        return to_json(parent.snapshot())

    assert aggregate() == aggregate()


# --- null objects ----------------------------------------------------------


def test_null_registry_is_inert():
    assert NULL_REGISTRY.enabled is False
    instrument = NULL_REGISTRY.counter("anything", labelnames=("a", "b"))
    instrument.labels("x", "y").inc(5)
    instrument.observe(1.0)
    instrument.set(3)
    instrument.dec()
    assert NULL_REGISTRY.snapshot() == {"instruments": []}
    assert len(NULL_REGISTRY) == 0


def test_disabled_observability_bundle():
    assert DISABLED.enabled is False
    assert DISABLED.metrics is NULL_REGISTRY
    assert DISABLED.spans is NULL_RECORDER
    # Default bundle: live metrics, spans off.
    default = Observability()
    assert default.enabled is True
    assert default.metrics.enabled is True
    assert default.spans.enabled is False


# --- exporters -------------------------------------------------------------


def test_prometheus_text_round_trips_through_validator():
    text = to_prometheus_text(populated_registry().snapshot())
    parsed = validate_prometheus_text(text)
    assert parsed["msgs_total"]["type"] == "counter"
    assert ({}, 10.0) in parsed["msgs_total"]["samples"]
    assert ({"kind": "read"}, 3.0) in parsed["ops_total"]["samples"]
    # Histogram samples group under the base name; buckets are cumulative
    # and end with an explicit +Inf.
    latency = parsed["latency"]
    assert latency["type"] == "histogram"
    buckets = [
        (labels["le"], value)
        for labels, value in latency["samples"]
        if "le" in labels
    ]
    # Every ``le`` is a sketch bucket edge from one fixed ladder (every
    # LE_STRIDE-th edge, whatever the family), so each cumulative count
    # is exact for the observations 0.5 and 5.0.
    ladder = {repr(upper_edge(key)) for key in range(-70, 176, LE_STRIDE)}
    ladder.add("1")  # gamma**0, rendered as an integer
    assert buckets[-1] == ("+Inf", 2.0)
    for le, cumulative in buckets[:-1]:
        assert le in ladder
        assert cumulative == sum(v <= float(le) for v in (0.5, 5.0))
    assert [value for _, value in buckets] == sorted(
        value for _, value in buckets
    )
    assert buckets[0][1] == 1.0 and buckets[-2][1] == 2.0
    assert ({"kind": "read"}, 2.0) in latency["samples"]  # latency_count
    assert "_overflow" not in text


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.counter("weird_total", labelnames=("tag",)).labels(
        'a"b\\c\nd'
    ).inc()
    text = to_prometheus_text(registry.snapshot())
    assert '\\"' in text and "\\\\" in text and "\\n" in text
    parsed = validate_prometheus_text(text)
    assert parsed["weird_total"]["samples"][0][1] == 1.0


def test_validator_rejects_malformed_lines():
    with pytest.raises(PrometheusFormatError):
        validate_prometheus_text("not a metric line at all!")
    with pytest.raises(PrometheusFormatError):
        validate_prometheus_text("# TYPE foo frobnicator")
    with pytest.raises(PrometheusFormatError):
        validate_prometheus_text("ok_total{bad-label=\"x\"} 1")
    with pytest.raises(PrometheusFormatError):
        validate_prometheus_text("ok_total garbage")


def test_json_export_is_stable():
    registry = populated_registry()
    assert to_json(registry.snapshot()) == to_json(registry.snapshot())
    assert json.loads(to_json(registry.snapshot()))["instruments"]


# --- spans -----------------------------------------------------------------


def test_span_lifecycle_and_queries():
    recorder = SpanRecorder()
    span = recorder.start("read", 1.0, client=0, register="X")
    span.event(1.5, "reply", server=2)
    assert span.duration is None
    recorder.finish(span, 3.5)
    other = recorder.start("write", 0.0)
    recorder.finish(other, 10.0, status="timeout")
    assert recorder.started == 2 and recorder.finished == 2
    assert [s.kind for s in recorder.of_kind("read")] == ["read"]
    assert [s.status for s in recorder.with_status("timeout")] == ["timeout"]
    assert recorder.durations("read") == [2.5]
    assert [s.kind for s in recorder.slowest(2)] == ["write", "read"]
    rendered = recorder.render_slowest(2)
    assert "write" in rendered and "reply" in rendered


def test_span_ring_keeps_newest():
    recorder = SpanRecorder(max_spans=3)
    for index in range(10):
        span = recorder.start("read", float(index))
        recorder.finish(span, float(index) + 0.5)
    assert len(recorder) == 3
    assert recorder.dropped_spans == 7
    assert [span.start for span in recorder.spans] == [7.0, 8.0, 9.0]
    with pytest.raises(ValueError):
        SpanRecorder(max_spans=0)


def test_null_recorder_is_inert():
    span = NULL_RECORDER.start("read", 0.0, client=1)
    span.event(1.0, "reply")
    NULL_RECORDER.finish(span, 2.0)
    assert NULL_RECORDER.enabled is False
    assert len(NULL_RECORDER) == 0
    assert NULL_RECORDER.slowest(5) == []


# --- wired collection ------------------------------------------------------


def instrumented_run(observability, seed=7, delay_model=None):
    runner = Alg1Runner(
        ApspACO(chain_graph(5)),
        ProbabilisticQuorumSystem(6, 2),
        monotone=True,
        delay_model=delay_model or ConstantDelay(1.0),
        seed=seed,
        max_rounds=60,
        observability=observability,
    )
    return runner, runner.run()


def test_runner_collects_metrics():
    obs = Observability()
    runner, result = instrumented_run(obs)
    metrics = obs.metrics
    assert metrics.sample("repro_alg1_runs_total") == 1
    assert metrics.sample("repro_alg1_runs_converged_total") == int(
        result.converged
    )
    assert metrics.sample("repro_messages_sent_total") == result.messages
    assert metrics.sample("repro_alg1_rounds_total") == result.rounds_completed
    assert metrics.sample("repro_alg1_iterations_total") == (
        result.total_iterations
    )
    reads = metrics.sample("repro_ops_invoked_total", ["read"])
    writes = metrics.sample("repro_ops_invoked_total", ["write"])
    assert reads == sum(c.reads_performed for c in runner.deployment.clients)
    assert writes == sum(c.writes_performed for c in runner.deployment.clients)
    # Per-server counters are labelled by stable server index.
    served = sum(
        metrics.sample("repro_server_reads_served_total", [str(i)])
        for i in range(runner.deployment.num_servers)
    )
    assert served == sum(s.reads_served for s in runner.deployment.servers)
    # The live latency histogram saw every completed operation.
    latency = metrics.sample("repro_op_latency", ["read"])
    assert latency.count > 0
    assert latency.value(0.95) >= latency.value(0.5) > 0.0


def test_runner_records_spans():
    obs = Observability(spans=SpanRecorder())
    runner, result = instrumented_run(obs)
    recorder = obs.spans
    assert recorder.finished == sum(
        c.ops_completed for c in runner.deployment.clients
    )
    assert recorder.of_kind("read") and recorder.of_kind("write")
    assert all(s.status == "ok" for s in recorder.spans)
    slowest = recorder.slowest(5)
    assert all(s.duration >= slowest[-1].duration for s in slowest)
    # Every span carries its quorum round(s) and replies.
    names = {event.name for event in slowest[0].events}
    assert "quorum_round" in names and "reply" in names


def test_disabled_observability_collects_nothing():
    runner, result = instrumented_run(DISABLED)
    assert DISABLED.metrics.snapshot() == {"instruments": []}
    assert result.converged


# --- worker payloads and engine merge --------------------------------------


def test_worker_payload_carries_metrics_snapshot():
    [result] = run_many([RunTask("alg1", TINY_PARAMS, seed=3)], jobs=1)
    snapshot = result["metrics"]
    names = [i["name"] for i in snapshot["instruments"]]
    assert "repro_messages_sent_total" in names
    assert "repro_alg1_runs_total" in names


def test_run_many_merges_into_active_session():
    tasks = [RunTask("alg1", TINY_PARAMS, seed=s) for s in (1, 2)]
    expected = sum(r["messages"] for r in run_many(tasks, jobs=1))

    session = Observability()
    obs_runtime.activate(session)
    try:
        run_many(tasks, jobs=1)
    finally:
        obs_runtime.deactivate()
    assert session.metrics.sample("repro_messages_sent_total") == expected
    assert session.metrics.sample("repro_alg1_runs_total") == 2


def test_cache_hits_replay_metrics(tmp_path):
    cache = RunCache(root=str(tmp_path))
    tasks = [RunTask("alg1", TINY_PARAMS, seed=s) for s in (1, 2)]
    run_many(tasks, jobs=1, cache=cache)  # populate, no session active

    session = Observability()
    obs_runtime.activate(session)
    try:
        results = run_many(tasks, jobs=1, cache=cache)  # all hits
    finally:
        obs_runtime.deactivate()
    expected = sum(r["messages"] for r in results)
    assert session.metrics.sample("repro_messages_sent_total") == expected
    assert session.metrics.sample("repro_alg1_runs_total") == 2


# --- latency sketches survive aggregation ----------------------------------


@pytest.fixture
def observed(monkeypatch):
    """Every histogram observation made while the fixture is active, as
    ``{(family name, *label values): [values]}`` — on either kernel
    backend, since the native client core calls ``observe`` too."""
    seen = {}
    owner = {}  # id(sketch) -> (sketch kept alive, series key)
    labels, observe = Family.labels, StreamingQuantiles.observe

    def recording_labels(self, *values):
        child = labels(self, *values)
        if self.kind == "histogram":
            owner[id(child)] = (child, (self.name, *map(str, values)))
        return child

    def recording_observe(self, value):
        seen.setdefault(owner[id(self)][1], []).append(value)
        observe(self, value)

    monkeypatch.setattr(Family, "labels", recording_labels)
    monkeypatch.setattr(StreamingQuantiles, "observe", recording_observe)
    return seen


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def op_latency(snapshot):
    """The ``repro_op_latency`` instrument of a snapshot, as canonical
    bytes with the float sums split off."""
    (instrument,) = [
        item for item in snapshot["instruments"]
        if item["name"] == "repro_op_latency"
    ]
    sums = [datum.pop("sum") for _, datum in instrument["series"]]
    return json.dumps(instrument, sort_keys=True).encode(), sums


@pytest.mark.parametrize(
    "delay_model", [ConstantDelay(1.0), ExponentialDelay(1.0)],
    ids=["constant", "exponential"],
)
def test_merged_op_latency_equals_one_registry_fed_everything(
    delay_model, observed
):
    merged = MetricsRegistry()
    for seed in (7, 8):
        obs = Observability()
        instrumented_run(obs, seed=seed, delay_model=delay_model)
        merged.merge_snapshot(obs.metrics.snapshot())
    streams = {key: list(values) for key, values in observed.items()}

    single = MetricsRegistry()
    family = single.histogram(
        "repro_op_latency",
        "Operation latency in simulated time units, by op kind.",
        labelnames=("kind",),
    )
    for (_, kind), values in streams.items():
        for value in values:
            family.labels(kind).observe(value)

    merged_bytes, merged_sums = op_latency(merged.snapshot())
    single_bytes, single_sums = op_latency(single.snapshot())
    # Zeros, buckets and counts are integers: the merge is exact.
    assert merged_bytes == single_bytes
    if isinstance(delay_model, ConstantDelay):
        # Whole-number latencies add exactly, so the float sums (hence
        # the whole snapshots, byte for byte) agree as well ...
        assert merged_sums == single_sums
    else:
        # ... otherwise they differ by float association only.
        assert merged_sums == pytest.approx(single_sums, rel=1e-12)
    # And what was merged still answers quantile queries within ALPHA.
    for kind in ("read", "write"):
        values = streams[("repro_op_latency", kind)]
        sketch = merged.sample("repro_op_latency", [kind])
        assert sketch.count == len(values) > 20
        for q in (0.5, 0.99):
            assert sketch.value(q) == pytest.approx(
                nearest_rank(values, q), rel=ALPHA * (1.0 + 1e-9)
            )


def test_pooled_sweep_quantiles_within_alpha_of_exact_latencies(observed):
    params = dict(TINY_PARAMS, delay={"kind": "exponential", "mean": 1.0})
    tasks = [RunTask("alg1", params, seed=s) for s in (1, 2, 3, 4)]
    session = Observability()
    obs_runtime.activate(session)
    try:
        run_many(tasks, jobs=2)
    finally:
        obs_runtime.deactivate()
    assert not observed  # the pool workers observed, not this process

    run_many(tasks, jobs=1)  # same seeds in process: the exact latencies
    reads = observed[("repro_op_latency", "read")]
    sketch = session.metrics.sample("repro_op_latency", ["read"])
    assert sketch.count == len(reads) > 100
    for q in (0.5, 0.99):
        assert sketch.value(q) == pytest.approx(
            nearest_rank(reads, q), rel=ALPHA * (1.0 + 1e-9)
        )


def test_parallel_and_serial_merge_identically():
    tasks = [RunTask("alg1", TINY_PARAMS, seed=s) for s in (1, 2, 3)]

    def aggregate(jobs):
        session = Observability()
        obs_runtime.activate(session)
        try:
            run_many(tasks, jobs=jobs)
        finally:
            obs_runtime.deactivate()
        return to_json(session.metrics.snapshot())

    assert aggregate(1) == aggregate(2)
