"""Unified observability: metrics registry, operation spans, exporters.

Layers (bottom-up):

* :mod:`repro.obs.quantiles` — the mergeable log-bucket sketch, the one
  distribution instrument (any quantile within a fixed relative error;
  one integer bump per observation, cheap enough for the service's
  per-operation path),
* :mod:`repro.obs.registry` — counter, gauge and histogram (= sketch)
  families with labels and snapshot/merge semantics,
* :mod:`repro.obs.spans` — per-operation span tracing (invoke → quorum
  rounds → retries → response/timeout) with a bounded ring of spans,
* :mod:`repro.obs.export` — Prometheus text exposition and JSON renderers
  (plus the validator the CI smoke uses),
* :mod:`repro.obs.collect` — post-run collection of the simulator's
  existing counters into a registry (the hot path is never instrumented),
  each count read from its one record: the deployment's counters, the
  runner's ``Alg1Result``, the campaign's ``degradation`` tally,
* :mod:`repro.obs.runtime` — the process-global session the CLI activates
  and the run engine merges worker snapshots into,
* :mod:`repro.obs.core` — the :class:`Observability` bundle that wires
  through ``RegisterDeployment`` → clients → ``Alg1Runner``.
"""

from repro.obs.core import Observability
from repro.obs.export import (
    to_json,
    to_prometheus_text,
    validate_prometheus_text,
)
from repro.obs.quantiles import (
    DEFAULT_QUANTILES,
    MetricsError,
    StreamingQuantiles,
)
from repro.obs.registry import (
    Counter,
    Family,
    Gauge,
    MetricsRegistry,
)
from repro.obs.spans import Span, SpanEvent, SpanRecorder

__all__ = [
    "DEFAULT_QUANTILES",
    "Counter",
    "Family",
    "Gauge",
    "MetricsError",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanEvent",
    "SpanRecorder",
    "StreamingQuantiles",
    "to_json",
    "to_prometheus_text",
    "validate_prometheus_text",
]
