"""Multi-writer and atomic registers over quorum systems.

Section 8 of the paper points at "building stronger kinds of registers,
such as multi-writer and atomic, out of the registers implemented with
their quorum algorithms, by applying known register implementation
algorithms".  This module supplies those known algorithms, as what they
are — two of the base client's quorum rounds, composed:

* :class:`MultiWriterClient` — a two-round write (Attiya-Bar-Noy-Dolev
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

A two-round operation is **one** pending operation of
:class:`~repro.registers.client.QuorumRegisterClient`: both rounds go
through its ``_begin`` / ``_send_round`` / ``_retry`` / ``_expire`` /
``_redispatch`` machinery, so one retry chain, one deadline, one view
stamp, one span and one completion (``_settle``) cover the whole
operation, under loss, crashes and membership churn alike.
"""

from typing import Any

from repro.core.timestamps import Timestamp
from repro.registers.client import QuorumRegisterClient, _PendingOp
from repro.registers.messages import ReadReply, WriteAck
from repro.sim.futures import Future


class _TwoRoundOp(_PendingOp):
    """A pending op that runs a query round, then an update round.

    ``is_read`` names the round in flight — the base machinery builds
    the request and samples the quorum from it — and flips once, when the
    query quorum is covered.  ``kind`` (a slot here, shadowing the base
    property) keeps what the caller invoked, which is what the span, the
    latency label, a timeout and the completion are named after.
    """

    __slots__ = ("kind",)


class MultiWriterClient(QuorumRegisterClient):
    """Two-round multi-writer writes; reads as in the base client.

    Registers written through this client should be declared with
    ``writer=None`` (any client may write).
    """

    def write(self, register: str, value: Any) -> Future:
        """Two-round write: discover the max timestamp, then exceed it."""
        info = self.space.info(register)
        if info.writer is not None and info.writer != self.client_id:
            # Honour single-writer declarations if present.
            return super().write(register, value)
        self.writes_performed += 1
        return self._query(register, "write", None, value)

    def _query(self, register: str, kind: str, record, value=None) -> Future:
        """Begin a two-round operation with its query round."""
        future = Future(f"{kind}({register}) by c{self.client_id}")
        op = _TwoRoundOp(
            next(self._op_ids), register, True, self._sample_quorum(True),
            future, record, value=value,
        )
        op.kind = kind
        op.view = self.view_id
        self._begin(op)
        return future

    def on_message(self, src: int, message: Any) -> None:
        if isinstance(message, (ReadReply, WriteAck)):
            op = self._pending.get(message.op_id)
            if op is not None and op.is_read != isinstance(message, ReadReply):
                # A retried query round leaves duplicate and late
                # ReadReplys in flight under the op's id; one landing in
                # the update round is not that server's ack.
                return
        super().on_message(src, message)

    def _finish(self, op: _PendingOp) -> None:
        if type(op) is not _TwoRoundOp:
            super()._finish(op)
        elif not op.is_read:
            self._settle(op, op.timestamp, op.value)
        else:
            self._update(op)

    def _update(self, op: _TwoRoundOp) -> None:
        """Query quorum covered: fix the timestamp, start the update round.

        The monotone cache is neither consulted nor fed: the timestamp
        must come from the replicas, not from this client's past reads.
        """
        best = max(
            self._quorum_read_replies(op), key=lambda reply: reply.timestamp
        )
        if op.kind == "write":
            # Also above every sequence number this client has issued:
            # over a probabilistic system the query round can miss its
            # own previous write, and a reused timestamp would be a
            # correctness (and history-uniqueness) bug.
            seq = 1 + max(
                best.timestamp.seq, self._write_seq.get(op.register, 0)
            )
            self._write_seq[op.register] = seq
            op.timestamp = Timestamp(seq, self.client_id)
            # The history record needs the timestamp, known only now;
            # back-date its invocation to the operation's true start so
            # real-time ordering checks ([L1]) see the whole interval.
            op.record = self.space.info(op.register).history.begin_write(
                self.client_id, op.started, op.value, op.timestamp
            )
        else:  # atomic read: write back what it will return
            op.timestamp, op.value = best.timestamp, best.value
        op.is_read = False
        op.replies = {}
        op.message = None
        self._resample(op)
        self._send_round(op)


class AtomicClient(MultiWriterClient):
    """ABD reads (query + write-back) on top of two-round writes.

    Over a strict quorum system this implements a multi-writer *atomic*
    register: every completed history passes
    :func:`repro.core.atomicity.check_atomic`.
    """

    def read(self, register: str) -> Future:
        record = self.space.info(register).history.begin_read(
            self.client_id, self.network.scheduler.now
        )
        self.reads_performed += 1
        return self._query(register, "read", record)
