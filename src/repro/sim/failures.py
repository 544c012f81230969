"""Crash, partition and failure-timeline injection.

The paper analyses availability in the face of replica *server* crashes
(Section 4).  The injector lets experiments crash servers (messages to and
from a crashed node are silently dropped, matching the fail-stop model) and
partition the network into non-communicating groups.

:class:`FailureSchedule` scripts those primitives onto the simulated
clock: a timeline of timed crash/recover/partition/heal events (one-shot
or repeating) that experiments install on a scheduler, so churn and
fault-tolerance runs can exercise *ongoing* failures instead of a static
crash set fixed before the run.
"""

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.sim.scheduler import Scheduler
from repro.specs import arguments


class FailureInjector:
    """Tracks crashed nodes and network partitions for a simulation."""

    # The native network core reads ``active``, ``_crashed`` and
    # ``_partition`` per message by slot offset.
    __slots__ = (
        "_crashed", "_partition", "active", "crashes_injected", "recoveries",
        "partitions_installed", "heals",
    )

    def __init__(self) -> None:
        self._crashed: Set[int] = set()
        self._partition: Optional[list] = None  # list of frozensets or None
        # Plain attribute mirroring any_failures, maintained by every
        # mutator: the network reads it once per message, and a C-level
        # attribute load there is cheaper than a property call.  In the
        # common all-healthy case the per-message fault check is then a
        # single attribute read.
        self.active: bool = False
        # Lifetime event counters (chaos campaigns report these as the
        # fault "dose" a run actually received; repeating schedule entries
        # make the static timeline length an undercount).
        self.crashes_injected = 0
        self.recoveries = 0
        self.partitions_installed = 0
        self.heals = 0

    def _refresh_active(self) -> None:
        self.active = bool(self._crashed) or self._partition is not None

    @property
    def any_failures(self) -> bool:
        """True while any crash or partition is active (O(1))."""
        return self.active

    def crash(self, node_id: int) -> None:
        """Crash a node; idempotent."""
        if node_id not in self._crashed:
            self.crashes_injected += 1
        self._crashed.add(node_id)
        self.active = True

    def crash_many(self, node_ids: Iterable[int]) -> None:
        """Crash several nodes at once."""
        before = len(self._crashed)
        self._crashed.update(node_ids)
        self.crashes_injected += len(self._crashed) - before
        self._refresh_active()

    def recover_many(self, node_ids: Iterable[int]) -> None:
        """Recover several nodes at once."""
        before = len(self._crashed)
        self._crashed.difference_update(node_ids)
        self.recoveries += before - len(self._crashed)
        self._refresh_active()

    def recover_all(self) -> None:
        """Bring every node back up."""
        self.recoveries += len(self._crashed)
        self._crashed.clear()
        self._refresh_active()

    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Split the network: messages cross group boundaries get dropped.

        Nodes absent from every group remain able to talk to everyone.
        """
        self._partition = [frozenset(group) for group in groups]
        self.partitions_installed += 1
        self.active = True

    def heal_partition(self) -> None:
        """Remove any active partition."""
        if self._partition is not None:
            self.heals += 1
        self._partition = None
        self._refresh_active()

    def is_crashed(self, node_id: int) -> bool:
        """True if the node is currently crashed."""
        return node_id in self._crashed

    def can_deliver(self, src: int, dst: int) -> bool:
        """Whether a message from ``src`` can currently reach ``dst``.

        This sits on the per-message hot path, so the partition check is a
        single pass over the groups: delivery is allowed unless both
        endpoints belong to partition groups yet share none.
        """
        if src in self._crashed or dst in self._crashed:
            return False
        if self._partition is not None:
            src_grouped = dst_grouped = False
            for group in self._partition:
                src_in = src in group
                dst_in = dst in group
                if src_in and dst_in:
                    return True
                src_grouped = src_grouped or src_in
                dst_grouped = dst_grouped or dst_in
            if src_grouped and dst_grouped:
                return False
        return True

    def __repr__(self) -> str:
        part = f", partition={self._partition}" if self._partition else ""
        return f"FailureInjector(crashed={sorted(self._crashed)}{part})"


class ScheduleError(ValueError):
    """Raised on a malformed failure-schedule event."""


#: Actions a FailureEvent may perform, mapped to the injector calls.
_ACTIONS = ("crash", "recover", "recover_all", "partition", "heal")


@dataclass(frozen=True)
class FailureEvent:
    """One scripted failure-timeline entry.

    ``action`` is one of ``crash``, ``recover``, ``recover_all``,
    ``partition`` and ``heal``.  ``nodes`` names the affected nodes for
    crash/recover; ``groups`` the partition groups for ``partition``.
    An event fires once: a periodic fault process is a timeline of
    events (:meth:`FailureSchedule.churn`).
    """

    time: float
    action: str
    nodes: Tuple[int, ...] = ()
    groups: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ScheduleError(f"event time must be non-negative: {self}")
        if self.action not in _ACTIONS:
            raise ScheduleError(
                f"unknown action {self.action!r}; known: {_ACTIONS}"
            )

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FailureEvent":
        """Build an event from its plain-data (JSON-able) spec dict."""
        args = arguments("failure event", cls, spec)
        return cls(
            time=float(args["time"]),
            action=args["action"],
            nodes=tuple(args.get("nodes", ())),
            groups=tuple(tuple(g) for g in args.get("groups", ())),
        )

    def to_spec(self) -> Dict[str, Any]:
        """The JSON-able form of this event (inverse of from_spec)."""
        spec: Dict[str, Any] = {"time": self.time, "action": self.action}
        if self.nodes:
            spec["nodes"] = list(self.nodes)
        if self.groups:
            spec["groups"] = [list(g) for g in self.groups]
        return spec


class Timeline:
    """A time-sorted list of scripted events, plain data end to end.

    The storage, spec round-trip and rotating-window clock shared by
    :class:`FailureSchedule` and
    :class:`repro.membership.MembershipSchedule`; a subclass names its
    ``event_class`` (anything with ``time``, ``from_spec`` and
    ``to_spec``) and adds its own fluent builders.  Events sharing a
    timestamp keep insertion order (the sort is stable).
    """

    event_class: type

    def __init__(self, events: Iterable[Any] = ()) -> None:
        self.events: List[Any] = sorted(events, key=lambda event: event.time)

    def add(self, event: Any) -> "Timeline":
        """Insert one event, keeping the timeline time-sorted: after every
        event at the same or an earlier time, as a stable sort would.  The
        builders add in (near) time order, so the scan back from the end
        is short — not a re-sort of the whole list per event."""
        events = self.events
        index = len(events)
        while index and events[index - 1].time > event.time:
            index -= 1
        events.insert(index, event)
        return self

    @staticmethod
    def cycles(
        period: float, horizon: float, start: Optional[float] = None
    ) -> Iterator[Tuple[int, float]]:
        """``(cycle, time)`` every ``period`` from ``start`` (default one
        period) through ``horizon``; nothing when ``period`` is not
        positive — the clock of a rotating-window churn timeline."""
        if period <= 0:
            return
        cycle = 0
        time = period if start is None else start
        while time <= horizon:
            yield cycle, time
            cycle += 1
            time += period

    @classmethod
    def from_specs(cls, events: Sequence[Dict[str, Any]]) -> "Timeline":
        """Build a timeline from a list of plain-data event dicts."""
        return cls(cls.event_class.from_spec(spec) for spec in events)

    def to_specs(self) -> List[Dict[str, Any]]:
        """The JSON-able form of this timeline (inverse of from_specs)."""
        return [event.to_spec() for event in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        name = type(self).__name__
        if not self.events:
            return f"{name}(empty)"
        return (
            f"{name}({len(self.events)} events, "
            f"t={self.events[0].time:g}..{self.events[-1].time:g})"
        )


class FailureSchedule(Timeline):
    """A scripted timeline of crash/recover/partition/heal events.

    Build one with the fluent helpers (:meth:`crash`, :meth:`recover`,
    :meth:`outage`, :meth:`churn`) or from plain-data specs
    (:meth:`from_specs`, the only way to script ``recover_all``,
    ``partition`` and ``heal``), then :meth:`install` it on a scheduler.
    ``resolve`` maps scripted node labels (e.g. server *indices*) to
    network node ids at install time, so schedules stay deployment-
    independent data until then.
    """

    event_class = FailureEvent

    # -- builders ------------------------------------------------------ #

    def crash(self, time: float, nodes: Iterable[int]) -> "FailureSchedule":
        """Crash ``nodes`` at ``time``."""
        return self.add(FailureEvent(time, "crash", nodes=tuple(nodes)))

    def recover(self, time: float, nodes: Iterable[int]) -> "FailureSchedule":
        """Recover ``nodes`` at ``time``."""
        return self.add(FailureEvent(time, "recover", nodes=tuple(nodes)))

    def outage(
        self, time: float, nodes: Iterable[int], duration: float
    ) -> "FailureSchedule":
        """Crash ``nodes`` at ``time`` and recover them ``duration`` later."""
        nodes = tuple(nodes)
        self.crash(time, nodes)
        return self.recover(time + duration, nodes)

    @classmethod
    def crash_batch(
        cls,
        num_servers: int,
        time: float,
        count: int,
        side: int,
    ) -> "FailureSchedule":
        """``count`` servers crash at ``time``, one per grid row (of
        ``side``) first — the strict grid's worst case, the E-FAULT
        schedule."""
        servers = [
            ((index % side) * side + index // side) % num_servers
            for index in range(count)
        ]
        return cls().crash(time, servers)

    @classmethod
    def churn(
        cls,
        num_servers: int,
        period: float,
        batch: int,
        outage: float,
        horizon: float,
        start: Optional[float] = None,
    ) -> "FailureSchedule":
        """A rotating-window churn timeline up to ``horizon``.

        Every ``period``, the next window of ``batch`` server indices
        (mod ``num_servers``) goes down for ``outage`` time units — the
        E-EXT-CHURN failure process, expressed as scripted data.
        """
        schedule = cls()
        for cycle, time in cls.cycles(period, horizon, start):
            first = (cycle * batch) % num_servers
            window = tuple(
                (first + offset) % num_servers for offset in range(batch)
            )
            schedule.outage(time, window, outage)
        return schedule

    # -- installation -------------------------------------------------- #

    def install(
        self,
        scheduler: Scheduler,
        injector: FailureInjector,
        resolve: Optional[Callable[[int], int]] = None,
    ) -> List[Any]:
        """Schedule every event; returns the cancellable handles.

        ``resolve`` maps each scripted node label to an injector node id
        (e.g. replica index -> network node id); identity by default.
        """
        mapper = resolve if resolve is not None else (lambda node: node)
        return [
            scheduler.schedule_at(
                event.time, self._applier(event, injector, mapper)
            )
            for event in self.events
        ]

    @staticmethod
    def _applier(
        event: FailureEvent,
        injector: FailureInjector,
        mapper: Callable[[int], int],
    ) -> Callable[[], None]:
        if event.action == "crash":
            nodes = [mapper(node) for node in event.nodes]
            return lambda: injector.crash_many(nodes)
        if event.action == "recover":
            nodes = [mapper(node) for node in event.nodes]
            return lambda: injector.recover_many(nodes)
        if event.action == "recover_all":
            return injector.recover_all
        if event.action == "partition":
            groups = [
                frozenset(mapper(node) for node in group)
                for group in event.groups
            ]
            return lambda: injector.partition(groups)
        return injector.heal_partition  # "heal"


#: Fault spec kinds, built by :func:`repro.specs.build`: ``crash_batch``
#: and ``churn`` are canned timelines, ``schedule`` an explicit event list
#: (any crash/recover/partition/heal script).
KINDS = {
    "crash_batch": FailureSchedule.crash_batch,
    "churn": FailureSchedule.churn,
    "schedule": FailureSchedule.from_specs,
}
