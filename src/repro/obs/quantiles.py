"""Streaming quantile estimation: a mergeable log-bucket sketch.

An SLO tracker wants latency quantiles without storing observations,
cheap enough to sit on the service's per-operation path.  The sketch
(Masson, Rim & Lee, "DDSketch", VLDB 2019) counts observations in
geometric buckets: ``v > 0`` lands in bucket ``ceil(log_gamma(v))`` with
``gamma = (1 + ALPHA) / (1 - ALPHA)``, zeros in a bucket of their own.
Bucket ``i`` covers ``(gamma**(i-1), gamma**i]`` and is reported by its
midpoint ``2 * gamma**i / (gamma + 1)``, which is within relative error
:data:`ALPHA` of everything in the bucket.

This is the registry's one distribution instrument:
``MetricsRegistry.histogram(...).labels(...)`` returns a
:class:`StreamingQuantiles`, and its :meth:`~StreamingQuantiles.snapshot`
is the histogram series format of registry snapshots.

Accuracy contract: for *any* ``q`` in [0, 1], ``value(q)`` is within
relative error :data:`ALPHA` of the exact nearest-rank sample quantile
(the ``ceil(q * n)``-th smallest observation) — whatever the shape of
the distribution.  Observations must be finite and non-negative
(latencies, sizes; a subnormal's own spacing is coarser than
:data:`ALPHA`, so the bound covers zero and the normal float range);
anything else raises :class:`MetricsError` and changes nothing.

Cost: ``observe`` is one ``log``, one ``ceil``, one integer bump and one
float add; memory is one counter per occupied bucket,
O(log(max/min) / ALPHA).  The bucket counts are integers, so they do not
depend on observation order, two sketches merge by adding counts (the
merge equals the sketch of the concatenated streams exactly, with no
bucket layout to mismatch), and the quantile estimates are
byte-deterministic across runs and kernel backends.  ``sum`` (kept for
the Prometheus ``_sum`` series) is the one float: it adds in observation
and merge order, which the registry keeps fixed.
"""

from math import ceil, inf, log, nan
from typing import Any, Dict, Tuple


class MetricsError(RuntimeError):
    """Raised on invalid instrument usage or inconsistent registration."""


#: The service-mode SLO quantile set.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.99, 0.999)

#: Guaranteed relative error of every reported quantile.
ALPHA = 0.005

_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_PER_LOG = 1.0 / log(_GAMMA)


def upper_edge(key: int) -> float:
    """The inclusive upper edge ``gamma**key`` of sketch bucket ``key``."""
    return _GAMMA ** key


class StreamingQuantiles:
    """Log-bucket quantile sketch over one stream of non-negative values."""

    __slots__ = ("_zeros", "_buckets", "sum")

    def __init__(self) -> None:
        self._zeros = 0
        #: bucket index -> observation count, occupied buckets only.
        self._buckets: Dict[int, int] = {}
        #: Sum of all observations.
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Count one observation into its bucket."""
        if 0.0 < value < inf:
            key = ceil(log(value) * _PER_LOG)
            try:
                self._buckets[key] += 1
            except KeyError:
                self._buckets[key] = 1
            self.sum += value
        elif value == 0.0:
            self._zeros += 1
        else:
            raise MetricsError(
                "quantile observation must be finite and non-negative, "
                f"got {value}"
            )

    @property
    def count(self) -> int:
        return self._zeros + sum(self._buckets.values())

    def snapshot(self) -> Dict[str, Any]:
        """The state as plain JSON-able data.

        ``keys`` are the occupied bucket indices in increasing order and
        ``counts`` their observation counts (two flat lists: a sweep
        holds thousands of these snapshots in memory).
        """
        keys = sorted(self._buckets)
        return {
            "zeros": self._zeros,
            "keys": keys,
            "counts": [self._buckets[key] for key in keys],
            "sum": self.sum,
            "count": self.count,
        }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Add another sketch's :meth:`snapshot` into this one."""
        self._zeros += snapshot["zeros"]
        buckets = self._buckets
        for key, bucket_count in zip(snapshot["keys"], snapshot["counts"]):
            buckets[key] = buckets.get(key, 0) + bucket_count
        self.sum += snapshot["sum"]

    def merged(self, other: "StreamingQuantiles") -> "StreamingQuantiles":
        """A new sketch of both streams together; neither input changes."""
        result = StreamingQuantiles()
        result.merge_snapshot(self.snapshot())
        result.merge_snapshot(other.snapshot())
        return result

    def value(self, q: float) -> float:
        """The ``q``-quantile estimate (``nan`` before any observation)."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        count = self.count
        if count == 0:
            return nan
        rank = max(1, ceil(q * count))
        cumulative = self._zeros
        if cumulative >= rank:
            return 0.0
        for key in sorted(self._buckets):
            cumulative += self._buckets[key]
            if cumulative >= rank:
                break
        return 2.0 * _GAMMA ** key / (_GAMMA + 1.0)

    def values(self) -> Dict[float, float]:
        """The :data:`DEFAULT_QUANTILES` estimates, keyed by quantile."""
        return {q: self.value(q) for q in DEFAULT_QUANTILES}

    def __repr__(self) -> str:
        rendered = ", ".join(
            f"p{q * 100:g}={value:.6g}" for q, value in self.values().items()
        )
        return f"StreamingQuantiles({rendered}, n={self.count})"
