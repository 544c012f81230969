"""Replica server.

Each server keeps, per register, a local replica value and its timestamp
(Section 4).  A ReadQuery is answered with the current replica; a
WriteUpdate installs the value only when its timestamp is newer than the
stored one, which makes the protocol tolerate message reordering.

Every request and reply carries a view id (:mod:`repro.registers.messages`).
On a static deployment no ``view_state`` is ever attached: requests are
answered unconditionally and replies are stamped view 0.  When a
:class:`~repro.membership.manager.ViewManager` attaches a
:class:`~repro.membership.manager.ServerViewState`, the same two
branches first pass the view gate — a request stamped with an older view
is nacked (``StaleViewNack``: the client refreshes and re-dispatches), a
retired server ignores all traffic, counted — and stamp replies with the
server's current view id.  The server also serves ``StateRequest``
catch-up queries from joining replicas.
"""

from typing import Any, Dict, Optional, Tuple

from repro.core.timestamps import Timestamp
from repro.registers.messages import (
    ReadQuery,
    ReadReply,
    StaleViewNack,
    StateReply,
    StateRequest,
    WriteAck,
    WriteUpdate,
)
from repro.registers.space import RegisterSpace
from repro.sim.network import Node


class ReplicaServer(Node):
    """One replica server hosting a replica of every register in the space."""

    def __init__(self, space: RegisterSpace) -> None:
        super().__init__()
        self.space = space
        self._replicas: Dict[str, Tuple[Timestamp, Any]] = {}
        self.reads_served = 0
        self.writes_applied = 0
        self.stale_updates_ignored = 0
        self.unknown_messages_ignored = 0
        # Membership state, attached by a ViewManager; None on static
        # deployments (the overwhelmingly common case).
        self.view_state: Optional[Any] = None
        self.stale_nacks_sent = 0
        self.retired_messages_ignored = 0
        self.state_requests_served = 0
        self.state_entries_applied = 0

    def _replica(self, register: str) -> Tuple[Timestamp, Any]:
        # Hot path: one dict probe per message.  The space.info lookup
        # (and its KeyError validation) is paid once per register, on the
        # first message that touches it; every later access hits the
        # local replica cache directly.
        try:
            return self._replicas[register]
        except KeyError:
            info = self.space.info(register)
            entry = (Timestamp.ZERO, info.initial_value)
            self._replicas[register] = entry
            return entry

    def replica_timestamp(self, register: str) -> Timestamp:
        """The timestamp of this server's replica (for tests/inspection)."""
        return self._replica(register)[0]

    def replica_value(self, register: str) -> Any:
        """The value of this server's replica (for tests/inspection)."""
        return self._replica(register)[1]

    def metric_counters(self) -> Dict[str, int]:
        """This server's counters, keyed for the metrics collectors.

        Read post-run by :func:`repro.obs.collect.collect_deployment`; the
        dict shape is the contract, so any node exposing it can feed the
        per-server instrument families.  Membership counters appear only
        when a view manager is attached, keeping membership-free metric
        exports identical to builds without the feature.
        """
        counters = {
            "reads_served": self.reads_served,
            "writes_applied": self.writes_applied,
            "stale_updates_ignored": self.stale_updates_ignored,
            "unknown_messages_ignored": self.unknown_messages_ignored,
        }
        if self.view_state is not None:
            counters.update(
                stale_nacks_sent=self.stale_nacks_sent,
                retired_messages_ignored=self.retired_messages_ignored,
                state_requests_served=self.state_requests_served,
                state_entries_applied=self.state_entries_applied,
            )
        return counters

    def on_message(self, src: int, message: Any) -> None:
        # Replies go through network.send directly: Node.send's attachment
        # checks cost a function call per reply, and every message a
        # server handles produces exactly one reply.
        if isinstance(message, (ReadQuery, WriteUpdate)):
            state = self.view_state
            view_id = 0
            if state is not None:
                if not self._gate(state, message, src):
                    return
                view_id = state.view_id
            register = message.register
            current_ts, value = self._replica(register)
            if isinstance(message, ReadQuery):
                self.reads_served += 1
                reply = ReadReply(
                    register, message.op_id, value, current_ts, view_id
                )
            else:
                if message.timestamp > current_ts:
                    self._replicas[register] = (message.timestamp, message.value)
                    self.writes_applied += 1
                else:
                    self.stale_updates_ignored += 1
                reply = WriteAck(register, message.op_id, view_id)
            self.network.send(self.node_id, src, reply)
        elif isinstance(message, StateRequest):
            self._on_state_request(src, message)
        elif isinstance(message, StateReply):
            self._on_state_reply(src, message)
        else:
            # Unknown message kinds are ignored, matching Node's default —
            # but counted, so a misrouted or malformed stream leaves a
            # trace instead of vanishing.
            self.unknown_messages_ignored += 1

    # ------------------------------------------------------------------ #
    # Dynamic membership
    # ------------------------------------------------------------------ #

    def _gate(self, state: Any, message: Any, src: int) -> bool:
        """The view check; True when the request should be answered.

        Retired servers ignore everything (counted).  An *active* member
        nacks requests stamped with an older view, forcing the client to
        refresh; a *draining* leaver keeps answering them — its reply
        carries the new view id, which refreshes the client anyway —
        so in-flight old-view operations complete during the drain.
        """
        if state.retired:
            self.retired_messages_ignored += 1
            return False
        if message.view < state.view_id and not state.retiring:
            self.stale_nacks_sent += 1
            self.network.send(
                self.node_id,
                src,
                StaleViewNack(message.register, message.op_id, state.view_id),
            )
            return False
        return True

    def _on_state_request(self, src: int, message: StateRequest) -> None:
        state = self.view_state
        if state is None:
            self.unknown_messages_ignored += 1
            return
        if state.retired:
            self.retired_messages_ignored += 1
            return
        # Every materialised replica, in sorted register order so the
        # reply payload is deterministic.  Untouched registers stay at
        # their declared initial values, which the joiner's lazy replica
        # probe supplies on first access.
        entries = tuple(
            (name, timestamp, value)
            for name, (timestamp, value) in sorted(self._replicas.items())
        )
        self.state_requests_served += 1
        self.network.send(
            self.node_id,
            src,
            StateReply(message.transfer_id, state.view_id, entries),
        )

    def _on_state_reply(self, src: int, message: StateReply) -> None:
        state = self.view_state
        if (
            state is None
            or state.transfer is None
            or message.transfer_id != state.transfer.transfer_id
        ):
            self.unknown_messages_ignored += 1
            return
        for name, timestamp, value in message.entries:
            current_ts, _ = self._replica(name)
            if timestamp > current_ts:
                self._replicas[name] = (timestamp, value)
                self.state_entries_applied += 1
        manager = state.manager
        src_index = manager.deployment.server_index[src]
        manager.on_transfer_reply(state.index, src_index, message.transfer_id)

    def __repr__(self) -> str:
        return (
            f"ReplicaServer(id={self.node_id}, reads={self.reads_served}, "
            f"writes={self.writes_applied})"
        )
