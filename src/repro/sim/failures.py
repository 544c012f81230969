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


class FailureInjector:
    """Tracks crashed nodes and network partitions for a simulation."""

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
    def crashed(self) -> Set[int]:
        """The set of currently crashed node ids."""
        return set(self._crashed)

    @property
    def any_crashed(self) -> bool:
        """True while at least one node is down (O(1), hot-path safe)."""
        return bool(self._crashed)

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

    def recover(self, node_id: int) -> None:
        """Recover a crashed node; no-op if it was up."""
        if node_id in self._crashed:
            self.recoveries += 1
        self._crashed.discard(node_id)
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
    A positive ``every`` makes the event repeat with that period, starting
    at ``time``.
    """

    time: float
    action: str
    nodes: Tuple[int, ...] = ()
    groups: Tuple[Tuple[int, ...], ...] = ()
    every: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ScheduleError(f"event time must be non-negative: {self}")
        if self.action not in _ACTIONS:
            raise ScheduleError(
                f"unknown action {self.action!r}; known: {_ACTIONS}"
            )
        if self.every < 0:
            raise ScheduleError(f"repeat period must be non-negative: {self}")

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FailureEvent":
        """Build an event from its plain-data (JSON-able) spec dict."""
        try:
            time = spec["time"]
            action = spec["action"]
        except (TypeError, KeyError):
            raise ScheduleError(
                f"event spec needs 'time' and 'action': {spec!r}"
            ) from None
        return cls(
            time=float(time),
            action=action,
            nodes=tuple(spec.get("nodes", ())),
            groups=tuple(tuple(g) for g in spec.get("groups", ())),
            every=float(spec.get("every", 0.0)),
        )

    def to_spec(self) -> Dict[str, Any]:
        """The JSON-able form of this event (inverse of from_spec)."""
        spec: Dict[str, Any] = {"time": self.time, "action": self.action}
        if self.nodes:
            spec["nodes"] = list(self.nodes)
        if self.groups:
            spec["groups"] = [list(g) for g in self.groups]
        if self.every:
            spec["every"] = self.every
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
    def from_specs(cls, specs: Sequence[Dict[str, Any]]) -> "Timeline":
        """Build a timeline from a list of plain-data event dicts."""
        return cls(cls.event_class.from_spec(spec) for spec in specs)

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
    :meth:`partition`, :meth:`heal`, :meth:`churn`) or from plain-data
    specs (:meth:`from_specs`), then :meth:`install` it on a scheduler.
    ``resolve`` maps scripted node labels (e.g. server *indices*) to
    network node ids at install time, so schedules stay deployment-
    independent data until then.
    """

    event_class = FailureEvent

    # -- builders ------------------------------------------------------ #

    def crash(
        self, time: float, nodes: Iterable[int], every: float = 0.0
    ) -> "FailureSchedule":
        """Crash ``nodes`` at ``time`` (repeating every ``every`` if > 0)."""
        return self.add(
            FailureEvent(time, "crash", nodes=tuple(nodes), every=every)
        )

    def recover(
        self, time: float, nodes: Iterable[int], every: float = 0.0
    ) -> "FailureSchedule":
        """Recover ``nodes`` at ``time``."""
        return self.add(
            FailureEvent(time, "recover", nodes=tuple(nodes), every=every)
        )

    def recover_all(self, time: float) -> "FailureSchedule":
        """Recover every crashed node at ``time``."""
        return self.add(FailureEvent(time, "recover_all"))

    def partition(
        self, time: float, groups: Iterable[Iterable[int]]
    ) -> "FailureSchedule":
        """Install a partition at ``time``."""
        return self.add(
            FailureEvent(
                time, "partition", groups=tuple(tuple(g) for g in groups)
            )
        )

    def heal(self, time: float) -> "FailureSchedule":
        """Heal any partition at ``time``."""
        return self.add(FailureEvent(time, "heal"))

    def outage(
        self, time: float, nodes: Iterable[int], duration: float
    ) -> "FailureSchedule":
        """Crash ``nodes`` at ``time`` and recover them ``duration`` later."""
        nodes = tuple(nodes)
        self.crash(time, nodes)
        return self.recover(time + duration, nodes)

    @classmethod
    def churn(
        cls,
        num_nodes: int,
        period: float,
        batch: int,
        outage: float,
        horizon: float,
        start: Optional[float] = None,
    ) -> "FailureSchedule":
        """A rotating-window churn timeline up to ``horizon``.

        Every ``period``, the next window of ``batch`` node indices
        (mod ``num_nodes``) goes down for ``outage`` time units — the
        E-EXT-CHURN failure process, expressed as scripted data.
        """
        schedule = cls()
        for cycle, time in cls.cycles(period, horizon, start):
            first = (cycle * batch) % num_nodes
            window = tuple(
                (first + offset) % num_nodes for offset in range(batch)
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
        handles: List[Any] = []
        for event in self.events:
            apply_event = self._applier(event, injector, mapper)
            if event.every > 0:
                handles.append(
                    scheduler.schedule_repeating(
                        event.every, apply_event, first_delay=event.time
                    )
                )
            else:
                handles.append(scheduler.schedule_at(event.time, apply_event))
        return handles

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
