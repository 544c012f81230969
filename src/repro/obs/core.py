"""The Observability bundle: one handle for metrics + spans.

Wiring code (deployment, clients, runner, workers) takes a single
``observability`` object instead of separate registry/recorder arguments.
Each facet is a live instrument or ``None``, and ``None`` is the only way
to say off: ``Observability()`` is the all-off bundle every constructor
defaults to, so an un-instrumented run pays nothing but a few ``is None``
tests per operation.
"""

from typing import Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanRecorder


class Observability:
    """Bundles a metrics registry and a span recorder, either one None.

    ``Observability(MetricsRegistry())`` is the common "export metrics"
    configuration; pass a :class:`~repro.obs.spans.SpanRecorder` as
    ``spans`` to also trace operations.
    """

    __slots__ = ("metrics", "spans")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        self.metrics = metrics
        self.spans = spans

    def __repr__(self) -> str:
        return f"Observability(metrics={self.metrics!r}, spans={self.spans!r})"
