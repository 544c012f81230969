"""Wire messages of the quorum register protocol.

Four message kinds, matching the two round trips of the algorithm in
Section 4: a read is a (ReadQuery, ReadReply) exchange with each quorum
member, a write a (WriteUpdate, WriteAck) exchange.  Messages carry the
register name so one server can host replicas of many registers.

Every one of the four ends in a ``view`` field: requests carry the view
id the client dispatched under, replies the server's current view id.
A static deployment is simply view 0 everywhere — the default, so
positional construction (``ReadQuery("r0", 1)``) needs no stamp — and
dynamic membership (:mod:`repro.membership`) raises it.  Both kernel
backends handle this one family; the control messages below
(:class:`StaleViewNack`, :class:`StateRequest`, :class:`StateReply`) are
genuinely different exchanges, handled in Python on receipt.

Messages are frozen tuples (:class:`typing.NamedTuple`): construction is
a single C-level ``tuple.__new__`` — these are allocated on every quorum
round, so they sit on the simulation hot path — and immutability lets
:meth:`~repro.sim.network.Network.broadcast` share one instance across a
whole quorum.  Each class precomputes its stats label as a class-level
``kind``, so the network never falls back to ``type(message).__name__``.
"""

from typing import Any, NamedTuple

from repro.core.timestamps import Timestamp


class ReadQuery(NamedTuple):
    """Client -> server: request the server's replica of a register."""

    register: str
    op_id: int
    view: int = 0

    kind = "read_query"


class ReadReply(NamedTuple):
    """Server -> client: the replica's current value and timestamp."""

    register: str
    op_id: int
    value: Any
    timestamp: Timestamp
    view: int = 0

    kind = "read_reply"


class WriteUpdate(NamedTuple):
    """Client -> server: install a value if its timestamp is newer."""

    register: str
    op_id: int
    value: Any
    timestamp: Timestamp
    view: int = 0

    kind = "write_update"


class WriteAck(NamedTuple):
    """Server -> client: acknowledge a WriteUpdate."""

    register: str
    op_id: int
    view: int = 0

    kind = "write_ack"


class StaleViewNack(NamedTuple):
    """Server -> client: request refused, stamped view is out of date.

    ``view`` is the server's *current* view id; the client refreshes to
    it and re-dispatches the operation under the new view's quorum.
    """

    register: str
    op_id: int
    view: int

    kind = "stale_view_nack"


class StateRequest(NamedTuple):
    """Joiner -> old-view member: request the member's replica state."""

    transfer_id: int
    view: int

    kind = "state_request"


class StateReply(NamedTuple):
    """Old-view member -> joiner: every materialised replica entry.

    ``entries`` is a tuple of ``(register, timestamp, value)`` triples;
    registers the member never touched stay at their declared initial
    values, which the joiner's lazy replica probe supplies on demand.
    """

    transfer_id: int
    view: int
    entries: Any

    kind = "state_reply"

