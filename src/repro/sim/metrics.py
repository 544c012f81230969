"""Message and load accounting.

Every run counts messages sent, delivered and dropped: the Section 6.4
message-complexity comparison (Eqns 1-3) reads the totals.  Three
breakdowns are collected only on request (``detailed=True``): deliveries
per receiver, sends per kind and drops per reason ("fault", "loss",
"adversary").  Quorum-system *load* (the access frequency of the busiest
replica server, Section 4) is read from the servers' own counters, not
from these.

The recorders sit on the per-message hot path, so the default scalar
mode skips every ``Counter`` update and maintains only the three totals.
This is the one stats class on both kernel backends: on ``native`` the C
network core adds to a scalar-mode instance's ``sent`` / ``delivered`` /
``dropped`` itself, and a network with detailed stats gets no C core —
its messages take the Python path, which collects the breakdowns.

Those totals, like the per-operation counters of the replica servers and
register clients, are int64 counter fields (:func:`counter_type`): a C
core bumps one in place, allocating nothing, and every reader gets a
plain int.

Reading a breakdown that was never collected raises
:class:`DetailNotCollected` instead of silently answering zero: a
scalar-mode deployment must never feed empty per-kind numbers into a
table as if they were measured.
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

    Raised by :class:`MessageStats` accessors when ``detailed=False``
    (the default): the breakdown was never collected, so any answer
    would be a lie, not a zero.  Construct the stats (or the deployment, via
    ``detailed_stats=True``) in detailed mode to measure breakdowns.
    """


_NOT_COLLECTED = (
    "MessageStats.{} was never collected: this instance was built with "
    "detailed=False (scalar totals only).  Use detailed=True / "
    "RegisterDeployment(detailed_stats=True) to measure the breakdowns."
)


class MessageStats(MessageCounters):
    """Counters for messages flowing through a :class:`~repro.sim.network.Network`.

    Scalar totals by default, which the native network core bumps in
    place; ``detailed=True`` also collects the breakdowns, and a network
    counting into such stats gets no native core: it and every node on
    it run the Python reference.
    """

    __slots__ = ("detailed", "_by_receiver", "_by_kind", "_dropped_by_reason")

    def __init__(self, detailed: bool = False) -> None:
        self.detailed = detailed
        self.sent: int = 0
        self.delivered: int = 0
        self.dropped: int = 0
        self._by_receiver: Counter = Counter()
        self._by_kind: Counter = Counter()
        self._dropped_by_reason: Counter = Counter()

    # ------------------------------------------------------------------ #
    # Guarded breakdown accessors
    # ------------------------------------------------------------------ #

    @property
    def by_receiver(self) -> Counter:
        """Deliveries per destination node (detailed mode only)."""
        if not self.detailed:
            raise DetailNotCollected(_NOT_COLLECTED.format("by_receiver"))
        return self._by_receiver

    @property
    def by_kind(self) -> Counter:
        """Sends per message kind (detailed mode only)."""
        if not self.detailed:
            raise DetailNotCollected(_NOT_COLLECTED.format("by_kind"))
        return self._by_kind

    @property
    def dropped_by_reason(self) -> Counter:
        """Drops per cause, "fault", "loss" or "adversary" (detailed mode
        only)."""
        if not self.detailed:
            raise DetailNotCollected(_NOT_COLLECTED.format("dropped_by_reason"))
        return self._dropped_by_reason

    # ------------------------------------------------------------------ #
    # Recording (hot path)
    # ------------------------------------------------------------------ #

    def record_send(self, src: int, dst: int, kind: Optional[str]) -> None:
        """Record one message leaving ``src`` for ``dst``."""
        self.add("sent")
        if self.detailed and kind is not None:
            self._by_kind[kind] += 1

    def record_sends(self, src: int, count: int, kind: Optional[str]) -> None:
        """Record ``count`` messages leaving ``src`` in one update.

        Batch form of :meth:`record_send` for :meth:`Network.broadcast`'s
        fast path: one counter update per quorum round instead of one per
        member.  Equivalent to ``count`` individual calls.
        """
        self.add("sent", count)
        if self.detailed and kind is not None:
            self._by_kind[kind] += count

    def record_delivery(
        self, src: int, dst: int, kind: Optional[str] = None
    ) -> None:
        """Record one message arriving at ``dst``."""
        self.add("delivered")
        if self.detailed:
            self._by_receiver[dst] += 1

    def record_drop(
        self,
        src: int,
        dst: int,
        kind: Optional[str] = None,
        reason: str = "fault",
    ) -> None:
        """Record a message lost to a crash, partition, lossy link or
        adversary, attributed to a ``reason`` ("fault" for
        crash/partition, "loss" for probabilistic message loss,
        "adversary")."""
        self.add("dropped")
        if self.detailed:
            self._dropped_by_reason[reason] += 1

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
        self._by_receiver.clear()
        self._by_kind.clear()
        self._dropped_by_reason.clear()

    def __repr__(self) -> str:
        return (
            f"MessageStats(sent={self.sent}, delivered={self.delivered}, "
            f"dropped={self.dropped})"
        )
