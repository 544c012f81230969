"""Multi-writer and atomic registers over quorum systems.

Section 8 of the paper points at "building stronger kinds of registers,
such as multi-writer and atomic, out of the registers implemented with
their quorum algorithms, by applying known register implementation
algorithms".  This module supplies those known algorithms:

* :class:`MultiWriterClient` — a two-phase write (Attiya-Bar-Noy-Dolev
  style): query a read quorum for the highest timestamp, then install the
  value with a greater timestamp tie-broken by writer id.  Over a
  *strict* quorum system writes are totally ordered; over a
  probabilistic system this yields a natural multi-writer *random*
  register (order may be probabilistically violated — which the tests
  observe, matching the paper's remark that it is "not clear how random
  registers can be used as building blocks" for strong ones).
* :class:`AtomicClient` — additionally performs the ABD read-write-back:
  a read installs the value it is about to return into a write quorum
  before returning it, which upgrades regularity to atomicity over strict
  quorum systems (certified by :func:`repro.core.atomicity.check_atomic`).
"""

import itertools
from typing import Any, Dict, FrozenSet, List, Optional

from repro.core.history import ReadRecord, WriteRecord
from repro.core.timestamps import Timestamp
from repro.registers.client import QuorumRegisterClient, _PendingOp
from repro.registers.messages import ReadQuery, ReadReply, WriteAck, WriteUpdate
from repro.sim.futures import Future


class _TwoPhaseOp:
    """State for an operation that runs a query phase then an update phase."""

    __slots__ = (
        "op_id", "register", "kind", "future", "record", "phase",
        "quorum", "replies", "value", "timestamp", "invoke_time",
    )

    def __init__(self, op_id, register, kind, future, record, value=None,
                 invoke_time=0.0):
        self.op_id = op_id
        self.register = register
        self.kind = kind                    # "write" or "read"
        self.future = future
        self.record = record
        self.phase = 1
        self.quorum: FrozenSet[int] = frozenset()
        self.replies: Dict[int, Any] = {}
        self.value = value
        self.timestamp: Optional[Timestamp] = None
        self.invoke_time = invoke_time

    def complete_against_quorum(self) -> bool:
        return self.quorum.issubset(self.replies)


class MultiWriterClient(QuorumRegisterClient):
    """Two-phase multi-writer writes; reads as in the base client.

    Registers written through this client should be declared with
    ``writer=None`` (any client may write).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Two-phase op ids stay disjoint from the base-class ids issued by
        # the same instance: replies are routed by probing _two_phase
        # first, and an id collision would cross-wire the two tables.
        self._op_ids = itertools.count(10_000_000)
        self._two_phase: Dict[int, _TwoPhaseOp] = {}
        # Largest sequence number this client has ever issued per register.
        # Over a probabilistic system the query phase can miss this
        # client's own previous write, and reusing a timestamp would be a
        # correctness (and history-uniqueness) bug.
        self._mw_last_seq: Dict[str, int] = {}

    @property
    def pending_ops(self) -> int:
        """Operations in flight, two-phase ones included."""
        return super().pending_ops + len(self._two_phase)

    @property
    def hung_ops(self) -> int:
        """Operations with no settlement path left.

        A two-phase operation has neither a retry nor a deadline timer:
        while one is in flight nothing guarantees it ever settles (one
        lost message strands it), so every one counts, whatever the
        retry policy of the base-class operations says.
        """
        return super().hung_ops + len(self._two_phase)

    # ------------------------------------------------------------------ #

    def write(self, register: str, value: Any) -> Future:
        """Two-phase write: discover the max timestamp, then exceed it."""
        info = self.space.info(register)
        if info.writer is not None and info.writer != self.client_id:
            # Honour single-writer declarations if present.
            return super().write(register, value)
        future = Future(f"mw-write({register}) by c{self.client_id}")
        op = _TwoPhaseOp(
            next(self._op_ids), register, "write", future, record=None,
            value=value, invoke_time=self.network.scheduler.now,
        )
        self._two_phase[op.op_id] = op
        self.writes_performed += 1
        self._start_query_phase(op)
        return future

    def _start_query_phase(self, op: _TwoPhaseOp) -> None:
        op.phase = 1
        op.quorum = self.quorum_system.read_quorum(self.rng)
        op.replies = {}
        self.network.broadcast(
            self.node_id,
            self._members(op.quorum),
            ReadQuery(op.register, op.op_id),
        )

    def _start_update_phase(self, op: _TwoPhaseOp, timestamp: Timestamp,
                            value: Any) -> None:
        op.phase = 2
        op.timestamp = timestamp
        op.value = value
        op.quorum = self.quorum_system.write_quorum(self.rng)
        op.replies = {}
        if op.kind == "write":
            # The history record can only be created once the timestamp is
            # known (after the query phase); backdate its invocation to the
            # operation's true start so real-time ordering checks ([L1])
            # see the full write interval.
            op.record = self.space.info(op.register).history.begin_write(
                self.client_id, op.invoke_time, value, timestamp
            )
        self.network.broadcast(
            self.node_id,
            self._members(op.quorum),
            WriteUpdate(op.register, op.op_id, value, timestamp),
        )

    # ------------------------------------------------------------------ #

    def on_message(self, src: int, message: Any) -> None:
        op = self._two_phase.get(getattr(message, "op_id", None))
        if op is None:
            super().on_message(src, message)
            return
        server_index = self._server_index.get(src)
        if server_index is None:
            return
        if op.phase == 1 and isinstance(message, ReadReply):
            op.replies[server_index] = message
            if op.complete_against_quorum():
                self._finish_query_phase(op)
        elif op.phase == 2 and isinstance(message, WriteAck):
            op.replies[server_index] = message
            if op.complete_against_quorum():
                self._finish_update_phase(op)

    def _finish_query_phase(self, op: _TwoPhaseOp) -> None:
        best = max(
            (r for r in op.replies.values() if isinstance(r, ReadReply)),
            key=lambda reply: reply.timestamp,
        )
        if op.kind == "write":
            seq = 1 + max(
                best.timestamp.seq, self._mw_last_seq.get(op.register, 0)
            )
            self._mw_last_seq[op.register] = seq
            self._start_update_phase(op, Timestamp(seq, self.client_id), op.value)
        else:  # atomic read: write back what we will return
            self._start_update_phase(op, best.timestamp, best.value)

    def _finish_update_phase(self, op: _TwoPhaseOp) -> None:
        del self._two_phase[op.op_id]
        now = self.network.scheduler.now
        if op.kind == "write":
            op.record.respond(now)
            if self._monitor_on:
                self.spec_monitor.on_write_complete(
                    self.client_id, op.record,
                    self.space.info(op.register).history,
                )
            op.future.resolve(None)
        else:
            op.record.complete(now, op.value, op.timestamp)
            if self._monitor_on:
                self.spec_monitor.on_read_complete(
                    self.client_id, op.record,
                    self.space.info(op.register).history,
                )
            op.future.resolve(op.value)


class AtomicClient(MultiWriterClient):
    """ABD reads (query + write-back) on top of two-phase writes.

    Over a strict quorum system this implements a multi-writer *atomic*
    register: every completed history passes
    :func:`repro.core.atomicity.check_atomic`.
    """

    def read(self, register: str) -> Future:
        info = self.space.info(register)
        now = self.network.scheduler.now
        record: ReadRecord = info.history.begin_read(self.client_id, now)
        future = Future(f"atomic-read({register}) by c{self.client_id}")
        op = _TwoPhaseOp(
            next(self._op_ids), register, "read", future, record=record
        )
        self._two_phase[op.op_id] = op
        self.reads_performed += 1
        self._start_query_phase(op)
        return future
