"""Message and load accounting.

The experiments need three kinds of counters:

* total messages sent, to reproduce the Section 6.4 message-complexity
  comparison (Eqns 1-3),
* per-node delivery counts, to measure quorum-system *load* (the access
  frequency of the busiest replica server, Section 4), and
* drop accounting by kind, receiver and reason, so fault-injection
  experiments can report exactly what traffic a crash, partition or
  lossy link destroyed.

The recorders sit on the per-message hot path, so a ``detailed=False``
mode skips every per-kind/per-node ``Counter`` update and maintains only
the three scalar totals — for benchmarks and throughput-bound runs that
never read the breakdowns.  This is the one stats class on both kernel
backends: on ``native`` the C network core adds to a scalar-mode
instance's ``sent`` / ``delivered`` / ``dropped`` itself and calls the
``record_*`` methods of a detailed one.

Those totals, like the per-operation counters of the replica servers and
register clients, are int64 counter fields (:func:`counter_type`): a C
core bumps one in place, allocating nothing, and every reader gets a
plain int.

Reading a breakdown that was never collected raises
:class:`DetailNotCollected` instead of silently answering zero: a
``detailed=False`` deployment must never feed empty load or per-kind
numbers into the Section 6.4 / Section 4 tables as if they were measured.
"""

import functools
import operator
from collections import Counter
from typing import Any, Optional, Tuple

from repro._native import load_kernel

#: The range of an int64 counter field.
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def _set_int64(slot: str, obj: Any, value: Any) -> None:
    value = operator.index(value)
    if not INT64_MIN <= value <= INT64_MAX:
        raise OverflowError(f"{value} does not fit an int64 counter field")
    setattr(obj, slot, value)


def _add(obj: Any, field: str, amount: int = 1) -> None:
    if field not in type(obj)._counter_fields:
        raise TypeError(f"{type(obj).__name__}.{field} is not an int64 "
                        "counter field")
    _set_int64(f"_{field}", obj, getattr(obj, field) + amount)


def counter_type(name: str, fields: Tuple[str, ...]) -> type:
    """A base class with one int64 counter field per name in ``fields``.

    ``name`` is the class's dotted path.  With the native extension built
    this is the C ``counter_type``: each field is a ``T_LONGLONG`` member,
    zero when the object is made, that a native core binds by offset once
    and bumps in place (``+= 1`` on a C ``long long``: no int object is
    made, where a Python int past 256 is a fresh allocation per bump).
    Otherwise it is the pure-Python twin (:func:`_twin_counter_type`)
    with the same field names.  On both, reading a field gives a plain
    int, and assigning a value outside ``[INT64_MIN, INT64_MAX]`` raises
    ``OverflowError`` (what the field holds afterwards is unspecified).
    Python code bumps a field with ``obj.add(field, amount=1)``, which
    raises ``OverflowError`` and leaves the field as it was when the sum
    leaves int64, and ``TypeError`` when ``field`` is not one of the
    base's counter fields: CPython specializes that method call, while
    ``obj.field += 1`` on a C member takes the generic attribute path (it
    works, at about twice the cost).  A core's own bump is unchecked: no
    run comes near 2**63 events.  The field names are the class's
    ``_counter_fields``.
    """
    kernel = load_kernel()
    if kernel is None:
        return _twin_counter_type(name, fields)
    base = kernel.counter_type(name, fields)
    base._counter_fields = fields  # keeps the members' names alive
    return base


def _twin_counter_type(name: str, fields: Tuple[str, ...]) -> type:
    """:func:`counter_type` without the extension: each field a property
    over a ``__slots__`` member (the subclass's ``__init__`` sets it)."""
    module, _, short = name.rpartition(".")
    namespace = {
        "__module__": module, "__slots__": tuple(f"_{f}" for f in fields),
        "_counter_fields": fields, "add": _add,
    }
    for field in fields:
        namespace[field] = property(
            operator.attrgetter(f"_{field}"),
            functools.partial(_set_int64, f"_{field}"),
        )
    return type(short, (), namespace)


MessageCounters = counter_type(
    "repro.sim.metrics.MessageCounters", ("sent", "delivered", "dropped")
)


class DetailNotCollected(RuntimeError):
    """A per-kind/per-node breakdown was read from scalar-totals stats.

    Raised by :class:`MessageStats` accessors when ``detailed=False``:
    the breakdown was never collected, so any answer would be a lie, not
    a zero.  Construct the stats (or the deployment, via
    ``detailed_stats=True``) in detailed mode to measure breakdowns.
    """


class MessageStats(MessageCounters):
    """Counters for messages flowing through a :class:`~repro.sim.network.Network`."""

    __slots__ = (
        "detailed",
        "_by_sender",
        "_by_receiver",
        "_by_kind",
        "_delivered_by_kind",
        "_dropped_by_kind",
        "_dropped_by_receiver",
        "_dropped_by_reason",
    )

    def __init__(self, detailed: bool = True) -> None:
        self.detailed = detailed
        self.sent: int = 0
        self.delivered: int = 0
        self.dropped: int = 0
        self._by_sender: Counter = Counter()
        self._by_receiver: Counter = Counter()
        self._by_kind: Counter = Counter()
        self._delivered_by_kind: Counter = Counter()
        self._dropped_by_kind: Counter = Counter()
        self._dropped_by_receiver: Counter = Counter()
        self._dropped_by_reason: Counter = Counter()

    # ------------------------------------------------------------------ #
    # Guarded breakdown accessors
    # ------------------------------------------------------------------ #

    def _breakdown(self, counter: Counter, name: str) -> Counter:
        if not self.detailed:
            raise DetailNotCollected(
                f"MessageStats.{name} was never collected: this instance "
                f"was built with detailed=False (scalar totals only). "
                f"Use detailed=True / RegisterDeployment(detailed_stats="
                f"True) to measure per-kind/per-node breakdowns."
            )
        return counter

    @property
    def by_sender(self) -> Counter:
        """Sends per source node (detailed mode only)."""
        return self._breakdown(self._by_sender, "by_sender")

    @property
    def by_receiver(self) -> Counter:
        """Deliveries per destination node (detailed mode only)."""
        return self._breakdown(self._by_receiver, "by_receiver")

    @property
    def by_kind(self) -> Counter:
        """Sends per message kind (detailed mode only)."""
        return self._breakdown(self._by_kind, "by_kind")

    @property
    def delivered_by_kind(self) -> Counter:
        """Deliveries per message kind (detailed mode only)."""
        return self._breakdown(self._delivered_by_kind, "delivered_by_kind")

    @property
    def dropped_by_kind(self) -> Counter:
        """Drops per message kind (detailed mode only)."""
        return self._breakdown(self._dropped_by_kind, "dropped_by_kind")

    @property
    def dropped_by_receiver(self) -> Counter:
        """Drops per would-be receiver (detailed mode only)."""
        return self._breakdown(
            self._dropped_by_receiver, "dropped_by_receiver"
        )

    @property
    def dropped_by_reason(self) -> Counter:
        """Drops per cause, "fault" or "loss" (detailed mode only)."""
        return self._breakdown(self._dropped_by_reason, "dropped_by_reason")

    # ------------------------------------------------------------------ #
    # Recording (hot path)
    # ------------------------------------------------------------------ #

    def record_send(self, src: int, dst: int, kind: Optional[str]) -> None:
        """Record one message leaving ``src`` for ``dst``."""
        self.add("sent")
        if self.detailed:
            self._by_sender[src] += 1
            if kind is not None:
                self._by_kind[kind] += 1

    def record_sends(self, src: int, count: int, kind: Optional[str]) -> None:
        """Record ``count`` messages leaving ``src`` in one update.

        Batch form of :meth:`record_send` for :meth:`Network.broadcast`'s
        fast path: one counter update per quorum round instead of one per
        member.  Equivalent to ``count`` individual calls.
        """
        self.add("sent", count)
        if self.detailed:
            self._by_sender[src] += count
            if kind is not None:
                self._by_kind[kind] += count

    def record_delivery(
        self, src: int, dst: int, kind: Optional[str] = None
    ) -> None:
        """Record one message arriving at ``dst``."""
        self.add("delivered")
        if self.detailed:
            self._by_receiver[dst] += 1
            if kind is not None:
                self._delivered_by_kind[kind] += 1

    def record_drop(
        self,
        src: int,
        dst: int,
        kind: Optional[str] = None,
        reason: str = "fault",
    ) -> None:
        """Record a message lost to a crash, partition or lossy link.

        Drops are attributed to the would-be receiver and the message
        kind, so per-sender/per-kind accounting stays honest under fault
        injection (a bare total hides *what* was lost), and to a
        ``reason`` ("fault" for crash/partition, "loss" for probabilistic
        message loss).
        """
        self.add("dropped")
        if self.detailed:
            self._dropped_by_receiver[dst] += 1
            self._dropped_by_reason[reason] += 1
            if kind is not None:
                self._dropped_by_kind[kind] += 1

    # ------------------------------------------------------------------ #
    # Derived readings
    # ------------------------------------------------------------------ #

    def drop_rate(self) -> float:
        """Fraction of sent messages that were dropped."""
        if self.sent == 0:
            return 0.0
        return self.dropped / self.sent

    def reset(self) -> None:
        """Zero every counter.

        Fields are reset explicitly (not via ``__init__``) so subclasses
        adding state keep full control over their own reset behaviour.
        """
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self._by_sender.clear()
        self._by_receiver.clear()
        self._by_kind.clear()
        self._delivered_by_kind.clear()
        self._dropped_by_kind.clear()
        self._dropped_by_receiver.clear()
        self._dropped_by_reason.clear()

    def __repr__(self) -> str:
        return (
            f"MessageStats(sent={self.sent}, delivered={self.delivered}, "
            f"dropped={self.dropped})"
        )
