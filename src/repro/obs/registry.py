"""Named metric instruments with labels, snapshots and deterministic merge.

The registry is the aggregation backbone of the observability layer: every
simulation run (in-process or in a ``repro.exec`` worker) populates its own
:class:`MetricsRegistry`, snapshots it to plain JSON-able data, and the
parent merges the snapshots back together.  Three instrument kinds cover
the paper's measured quantities:

* **Counter** — monotonically increasing totals (messages sent, retries),
* **Gauge** — point-in-time values (queue depth, simulated clock),
* **Histogram** — distributions (operation latency): the log-bucket
  sketch of :mod:`repro.obs.quantiles`, any quantile within a fixed
  relative error.

Merging is **bit-deterministic**: series are stored under sorted label
tuples, snapshots list them in sorted order, and ``merge_snapshot`` adds
values in that order — so merging the same snapshots in the same task
order always produces the same floats, which keeps metrics output
cache-stable across serial and parallel execution.

The hot-path contract: a deployment with metrics off holds ``None`` in
place of a registry, and the one live instrument (the operation-latency
histogram) is resolved once at construction.  Everything per-message is
collected *after* the run from the existing ``MessageStats``/scheduler
counters (see :mod:`repro.obs.collect`), so
the simulation kernel itself never pays a per-event metrics call.
"""

import json
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.obs.quantiles import MetricsError, StreamingQuantiles


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise MetricsError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (or be set outright)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


_CHILD_TYPES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": StreamingQuantiles,
}


class Family:
    """One named instrument and its per-label-value children.

    ``labels(*values)`` returns (creating on first use) the child for a
    concrete label-value tuple; the convenience mutators (``inc``, ``set``,
    ``observe``) act on the unlabeled child and require ``labelnames=()``.
    """

    __slots__ = ("name", "kind", "help", "labelnames", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], Any] = {}

    def labels(self, *values: Any):
        """The child instrument for one concrete label-value combination."""
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise MetricsError(
                f"{self.name} takes {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _CHILD_TYPES[self.kind]()
        return child

    # Unlabeled conveniences -------------------------------------------- #

    def inc(self, amount: float = 1) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def series(self) -> Iterable[Tuple[Tuple[str, ...], Any]]:
        """(label values, child) pairs in sorted label order."""
        return sorted(self._children.items())

    def __repr__(self) -> str:
        return (
            f"Family({self.name!r}, {self.kind}, "
            f"series={len(self._children)})"
        )


class MetricsRegistry:
    """A named collection of instruments with snapshot/merge semantics."""

    def __init__(self) -> None:
        self._families: Dict[str, Family] = {}

    # Registration ------------------------------------------------------ #

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
    ) -> Family:
        family = self._families.get(name)
        if family is None:
            family = Family(name, kind, help, labelnames)
            self._families[name] = family
            return family
        if family.kind != kind or family.labelnames != tuple(labelnames):
            raise MetricsError(
                f"instrument {name!r} already registered as {family.kind} "
                f"with labels {family.labelnames}; cannot re-register as "
                f"{kind} with labels {tuple(labelnames)}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Family:
        """Get or create a counter family."""
        return self._register(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Family:
        """Get or create a gauge family."""
        return self._register(name, "gauge", help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Family:
        """Get or create a histogram (log-bucket sketch) family."""
        return self._register(name, "histogram", help, labelnames)

    # Introspection ----------------------------------------------------- #

    def families(self) -> List[Family]:
        """All registered families, in name order."""
        return [self._families[name] for name in sorted(self._families)]

    def sample(self, name: str, labels: Sequence[Any] = ()) -> Any:
        """The scalar value (or sketch) of one series, for tests/CLI.

        Raises :class:`MetricsError` for an unknown instrument; an
        unpopulated label combination reads as a fresh child (0 / empty).
        """
        family = self._families.get(name)
        if family is None:
            raise MetricsError(f"no instrument named {name!r}")
        child = family.labels(*labels)
        return child if family.kind == "histogram" else child.value

    # Snapshot / merge --------------------------------------------------- #

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data (JSON-able) copy of every instrument and series.

        Series are listed under sorted label tuples, so equal registries
        produce byte-identical snapshots regardless of update order.
        """
        instruments = []
        for family in self.families():
            series = []
            for values, child in family.series():
                if family.kind == "histogram":
                    datum: Any = child.snapshot()
                else:
                    datum = child.value
                series.append([list(values), datum])
            instruments.append(
                {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "labelnames": list(family.labelnames),
                    "series": series,
                }
            )
        return {"instruments": instruments}

    def snapshot_bytes(self) -> bytes:
        """The snapshot as canonical UTF-8 JSON bytes.

        Canonical means sorted keys and no whitespace, on top of
        :meth:`snapshot`'s already-sorted series — equal registries
        produce byte-identical encodings.
        """
        return json.dumps(
            self.snapshot(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Aggregate a snapshot into this registry.

        Counters and histograms add; gauges add too (a deliberate,
        order-independent choice — across worker runs a summed gauge reads
        as "total across runs"; per-run values remain in each run's own
        snapshot).  Merging the same snapshots in the same order is
        bit-deterministic because every series iterates in sorted label
        order.
        """
        for instrument in snapshot.get("instruments", ()):
            family = self._register(
                instrument["name"],
                instrument["kind"],
                instrument.get("help", ""),
                instrument.get("labelnames", ()),
            )
            for values, datum in instrument["series"]:
                child = family.labels(*values)
                if family.kind == "histogram":
                    child.merge_snapshot(datum)
                else:
                    child.value += datum

    def __len__(self) -> int:
        return len(self._families)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._families)} instruments)"
