"""Exporters: registry snapshots to Prometheus text exposition and JSON.

Both exporters consume the plain-data snapshot format of
:meth:`repro.obs.registry.MetricsRegistry.snapshot`, so they work equally
on a live registry (``to_prometheus_text(registry.snapshot())``) and on a
snapshot shipped back from a worker process.

The Prometheus renderer follows the text exposition format (version
0.0.4): ``# HELP``/``# TYPE`` headers, escaped help strings and label
values, cumulative ``_bucket`` series with an explicit ``le="+Inf"``, and
``_sum``/``_count`` companions for histograms.  A histogram series is a
log-bucket sketch (:mod:`repro.obs.quantiles`) with hundreds of fine
buckets; the exporter coarsens it by one fixed rule — every
:data:`LE_STRIDE`-th sketch edge is an ``le`` bound — so each exported
cumulative count is exact, not interpolated.  ``validate_prometheus_text``
is a small structural parser used by the CI smoke step and the tests to
prove the output actually parses.
"""

import json
import math
import re
from typing import Any, Dict, List, Sequence, Tuple

from repro.obs.quantiles import upper_edge

#: Sketch bucket indices per exported ``le`` bound: consecutive bounds
#: differ by ``gamma**35``, about the square root of 2.
LE_STRIDE = 35


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_block(
    labelnames: Sequence[str], values: Sequence[str],
    extra: Sequence[Tuple[str, str]] = (),
) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, values)
    ]
    pairs.extend(f'{name}="{value}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _le_rows(datum: Dict[str, Any]) -> List[Tuple[str, int]]:
    """``(le, cumulative count)`` rows of one sketch series snapshot.

    Bounds are 0 (when zeros were observed), then every multiple of
    :data:`LE_STRIDE` from the first to the last occupied stretch of
    sketch buckets, then ``+Inf``.  Sketch bucket ``key`` covers
    ``(gamma**(key-1), gamma**key]``, so the count up to a bound is a sum
    of whole buckets.
    """
    cumulative = datum["zeros"]
    rows = [("0", cumulative)] if cumulative else []
    coarse: Dict[int, int] = {}
    for key, count in zip(datum["keys"], datum["counts"]):
        bound = -(-key // LE_STRIDE) * LE_STRIDE
        coarse[bound] = coarse.get(bound, 0) + count
    if coarse:
        for bound in range(min(coarse), max(coarse) + 1, LE_STRIDE):
            cumulative += coarse.get(bound, 0)
            rows.append((_format_value(upper_edge(bound)), cumulative))
    rows.append(("+Inf", datum["count"]))
    return rows


def to_prometheus_text(snapshot: Dict[str, Any]) -> str:
    """Render a registry snapshot in Prometheus text exposition format."""
    lines: List[str] = []
    for instrument in snapshot.get("instruments", ()):
        name = instrument["name"]
        kind = instrument["kind"]
        labelnames = instrument.get("labelnames", ())
        help_text = instrument.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for values, datum in instrument["series"]:
            if kind == "histogram":
                for bound, cumulative in _le_rows(datum):
                    block = _label_block(
                        labelnames, values, extra=[("le", bound)]
                    )
                    lines.append(f"{name}_bucket{block} {cumulative}")
                block = _label_block(labelnames, values)
                lines.append(f"{name}_sum{block} {_format_value(datum['sum'])}")
                lines.append(f"{name}_count{block} {datum['count']}")
            else:
                block = _label_block(labelnames, values)
                lines.append(f"{name}{block} {_format_value(datum)}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_json(snapshot: Dict[str, Any], indent: int = 2) -> str:
    """Render a registry snapshot as stable (sorted-key) JSON."""
    return json.dumps(snapshot, indent=indent, sort_keys=True) + "\n"


# --------------------------------------------------------------------- #
# Validation (CI smoke / tests)
# --------------------------------------------------------------------- #

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^(?P<name>{_METRIC_NAME})"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')
_VALID_TYPES = frozenset({"counter", "gauge", "histogram", "summary", "untyped"})


class PrometheusFormatError(ValueError):
    """Raised when exposition text fails structural validation."""


def _parse_value(text: str) -> float:
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)  # raises ValueError on garbage


def validate_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Structurally parse exposition text; raise on any malformed line.

    Returns ``{metric name: {"type": ..., "samples": [(labels, value)]}}``
    so callers can assert on content as well as well-formedness.
    Histogram ``_bucket``/``_sum``/``_count`` samples are grouped under
    their base metric name.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    declared: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not re.fullmatch(_METRIC_NAME, parts[2]):
                raise PrometheusFormatError(
                    f"line {lineno}: malformed comment {line!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _VALID_TYPES:
                    raise PrometheusFormatError(
                        f"line {lineno}: bad TYPE declaration {line!r}"
                    )
                declared[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise PrometheusFormatError(
                f"line {lineno}: unparseable sample {line!r}"
            )
        labels: Dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            body = label_text[1:-1]
            if body:
                for pair in body.split(","):
                    if not _LABEL_RE.match(pair):
                        raise PrometheusFormatError(
                            f"line {lineno}: malformed label {pair!r}"
                        )
                    key, _, value = pair.partition("=")
                    labels[key] = value[1:-1]
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise PrometheusFormatError(
                f"line {lineno}: bad sample value {match.group('value')!r}"
            ) from None
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = name[: -len(suffix)] if name.endswith(suffix) else None
            if trimmed and declared.get(trimmed) == "histogram":
                base = trimmed
                break
        entry = metrics.setdefault(
            base, {"type": declared.get(base, "untyped"), "samples": []}
        )
        entry["samples"].append((labels, value))
    return metrics
