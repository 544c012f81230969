"""Scripted membership timelines (replica joins and retirements).

A :class:`MembershipSchedule` is a time-sorted list of
:class:`MembershipEvent` entries, each naming replica *roster indices*
that join or leave at a simulated time.  Like
:class:`~repro.sim.failures.FailureSchedule` it is plain data end to
end: events round-trip through JSON-able spec dicts
(:meth:`from_specs`/:meth:`to_specs`), so a timeline travels unchanged
through task params, the run cache's canonical-JSON keys, chaos
campaign generation, and ddmin shrinking.

Roster indices are stable for the life of a deployment: the initial
servers occupy indices ``0..n-1`` and every joiner gets a fresh index
(the deployment grows its roster on demand).  A ``join`` naming an index
already in the current view, or a ``leave`` naming one outside it, is a
no-op — this makes *every* event sublist a valid timeline, which is what
lets ddmin shrink membership histories without re-validating them.
"""

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.sim.failures import Timeline
from repro.specs import arguments


class MembershipError(ValueError):
    """Raised on a malformed membership event or schedule."""


#: Actions a MembershipEvent may perform.
_ACTIONS = ("join", "leave")


@dataclass(frozen=True)
class MembershipEvent:
    """One scripted membership change.

    ``action`` is ``join`` or ``leave``; ``nodes`` names the affected
    replica roster indices.
    """

    time: float
    action: str
    nodes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.time < 0:
            raise MembershipError(f"event time must be non-negative: {self}")
        if self.action not in _ACTIONS:
            raise MembershipError(
                f"unknown action {self.action!r}; known: {_ACTIONS}"
            )
        if not self.nodes:
            raise MembershipError(f"membership event names no nodes: {self}")
        if any(node < 0 for node in self.nodes):
            raise MembershipError(f"negative roster index: {self}")

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "MembershipEvent":
        """Build an event from its plain-data (JSON-able) spec dict."""
        args = arguments("membership event", cls, spec)
        return cls(
            time=float(args["time"]),
            action=args["action"],
            nodes=tuple(int(node) for node in args.get("nodes", ())),
        )

    def to_spec(self) -> Dict[str, Any]:
        """The JSON-able form of this event (inverse of from_spec)."""
        return {
            "time": self.time,
            "action": self.action,
            "nodes": list(self.nodes),
        }


class MembershipSchedule(Timeline):
    """A scripted timeline of replica joins and retirements.

    Build one with the fluent helpers (:meth:`join`, :meth:`leave`,
    :meth:`replace`, :meth:`churn`) or from plain-data specs
    (:meth:`from_specs`), then hand it to
    :meth:`repro.registers.deployment.RegisterDeployment.install_membership`.
    Events sharing a timestamp apply in insertion order (the sort is
    stable), so a same-time join+leave pair installs two views with the
    join first.
    """

    event_class = MembershipEvent

    # -- builders ------------------------------------------------------ #

    def join(self, time: float, nodes: Iterable[int]) -> "MembershipSchedule":
        """Roster indices ``nodes`` join the view at ``time``."""
        return self.add(MembershipEvent(time, "join", nodes=tuple(nodes)))

    def leave(self, time: float, nodes: Iterable[int]) -> "MembershipSchedule":
        """Members ``nodes`` retire (drain, then stop answering) at ``time``."""
        return self.add(MembershipEvent(time, "leave", nodes=tuple(nodes)))

    def replace(
        self,
        time: float,
        joining: Iterable[int],
        leaving: Iterable[int],
    ) -> "MembershipSchedule":
        """At ``time``: ``joining`` enter, then ``leaving`` retire."""
        self.join(time, joining)
        return self.leave(time, leaving)

    @classmethod
    def churn(
        cls,
        num_servers: int,
        period: float,
        horizon: float,
        batch: int = 1,
        start: Optional[float] = None,
    ) -> "MembershipSchedule":
        """A rotating-membership timeline up to ``horizon``.

        Every ``period``, ``batch`` fresh replicas join and the ``batch``
        oldest current members retire, keeping the view size constant at
        ``num_servers`` while the membership itself rotates — the
        membership analogue of :meth:`FailureSchedule.churn`.  Joiners
        take consecutive fresh roster indices starting at
        ``num_servers``; leavers go in FIFO (join-order) sequence.
        """
        if period > 0 and not 1 <= batch <= num_servers:
            raise MembershipError(
                f"churn batch {batch} must be in [1, {num_servers}]"
            )
        schedule = cls()
        for cycle, time in cls.cycles(period, horizon, start):
            joining = tuple(
                num_servers + cycle * batch + offset for offset in range(batch)
            )
            leaving = tuple(
                cycle * batch + offset for offset in range(batch)
            )
            schedule.replace(time, joining, leaving)
        return schedule

    def max_roster_index(self, num_initial: int) -> int:
        """The largest roster index this timeline can touch."""
        indices = [node for event in self.events for node in event.nodes]
        return max(indices + [num_initial - 1])


#: Membership spec kinds, built by :func:`repro.specs.build`: ``churn``
#: expands a rotating timeline up to the run's horizon, ``schedule``
#: passes an explicit event list through.
KINDS = {
    "churn": MembershipSchedule.churn,
    "schedule": MembershipSchedule.from_specs,
}
