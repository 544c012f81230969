"""Span-based operation tracing.

Where a ``Network.add_tap`` callback sees individual message sends, a
span records one *operation's* whole lifecycle: invoke, the quorum
rounds it sent, every reply, each retry/backoff resample, and the final
response (or timeout).  That is the unit the paper reasons about — a read
or write against a probabilistic quorum — and the unit an operator of the
ROADMAP's production-scale deployment would page on.

Spans carry simulated-time stamps only; recording them never touches an
RNG stream or schedules an event, so a traced run is event-for-event
identical to an untraced one (pinned by tests/test_kernel_determinism.py).

The recorder keeps a bounded ring of *finished* spans — newest kept,
evictions counted — and renders the slowest of them, the table
``--trace-spans N`` prints.
"""

from collections import deque
from typing import Any, Dict, List, Optional


class SpanEvent:
    """One timestamped happening inside a span (a retry, a reply, ...)."""

    __slots__ = ("time", "name", "attrs")

    def __init__(self, time: float, name: str, attrs: Optional[Dict[str, Any]]):
        self.time = time
        self.name = name
        self.attrs = attrs

    def __repr__(self) -> str:
        extra = f" {self.attrs}" if self.attrs else ""
        return f"SpanEvent(t={self.time:.4g}, {self.name}{extra})"


class Span:
    """One operation from invocation to settlement."""

    __slots__ = ("kind", "start", "end", "status", "attrs", "events")

    def __init__(self, kind: str, start: float, attrs: Dict[str, Any]):
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.status: Optional[str] = None
        self.attrs = attrs
        self.events: List[SpanEvent] = []

    def event(self, time: float, name: str, **attrs: Any) -> None:
        """Append a child event at simulated time ``time``."""
        self.events.append(SpanEvent(time, name, attrs or None))

    @property
    def duration(self) -> Optional[float]:
        """Span length in simulated time; None while still open."""
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:
        state = self.status or "open"
        dur = f", dur={self.duration:.4g}" if self.end is not None else ""
        return f"Span({self.kind}, {state}, t={self.start:.4g}{dur}, " \
               f"{len(self.events)} events)"


class SpanRecorder:
    """A bounded log of finished operation spans.

    ``max_spans`` bounds retained *finished* spans as a ring buffer: the
    newest spans are kept (the interesting tail of a long run), evictions
    increment ``dropped_spans``.
    """

    def __init__(self, max_spans: int = 10_000) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be positive, got {max_spans}")
        self.max_spans = max_spans
        self.spans: deque = deque(maxlen=max_spans)
        self.dropped_spans = 0
        self.started = 0
        self.finished = 0

    def start(self, kind: str, time: float, **attrs: Any) -> Span:
        """Open a span for one operation; finish it with :meth:`finish`."""
        self.started += 1
        return Span(kind, time, attrs)

    def finish(self, span: Span, time: float, status: str = "ok") -> None:
        """Close ``span`` and retain it (evicting the oldest at the cap)."""
        span.end = time
        span.status = status
        self.finished += 1
        if len(self.spans) == self.max_spans:
            self.dropped_spans += 1
        self.spans.append(span)

    def slowest(self, n: int) -> List[Span]:
        """The ``n`` longest finished spans, slowest first.

        Ties break on start time then kind, so the ordering is fully
        deterministic for seeded runs.
        """
        return sorted(
            self.spans, key=lambda s: (-s.duration, s.start, s.kind)
        )[:n]

    # Rendering ---------------------------------------------------------- #

    def render_slowest(self, n: int = 10) -> str:
        """A compact table of the slowest ``n`` spans with their events."""
        spans = self.slowest(n)
        lines = [
            f"slowest {len(spans)} of {self.finished} spans"
            + (f" ({self.dropped_spans} evicted beyond cap)"
               if self.dropped_spans else "")
        ]
        for span in spans:
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(span.attrs.items())
            )
            lines.append(
                f"  {span.duration:9.4f}  {span.kind:<6} {span.status:<8} "
                f"t={span.start:.4f}  {attrs}"
            )
            for event in span.events:
                extra = (
                    " " + " ".join(
                        f"{k}={v}" for k, v in sorted(event.attrs.items())
                    )
                    if event.attrs else ""
                )
                lines.append(f"      t={event.time:9.4f}  {event.name}{extra}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SpanRecorder({len(self.spans)} spans, "
            f"dropped={self.dropped_spans})"
        )
