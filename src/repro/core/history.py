"""Operation histories and the reads-from relation.

A :class:`RegisterHistory` records every read and write on one register:
invocation time, response time, the value, and (for bookkeeping) the
timestamp the implementation attached to the value.  Because the paper's
registers are single-writer and every write gets a fresh timestamp, the
timestamp of the value a read returned identifies *exactly* which write it
read from — this is the implementation-level ground truth.

The paper's *specification-level* reads-from definition (Section 3) is also
implemented (:meth:`RegisterHistory.reads_from_spec`): a read R reads from
the latest write W such that W begins before R ends and W wrote the value R
returned.  As the paper's footnote notes, the two can disagree when values
repeat; the spec-level one is what conditions [R2]-[R4] are stated over.
"""

import itertools
from typing import Any, Dict, Iterator, List, Optional

from repro.core.timestamps import Timestamp


class HistoryError(RuntimeError):
    """Raised on malformed history usage (e.g. responding twice)."""


# Fallback id source for records constructed outside a RegisterHistory
# (tests build records directly).  Histories assign ids from their own
# per-instance counter: a module-level counter would leak across runs in
# one process, giving back-to-back in-process runs different op ids than
# fresh-process runs and breaking byte-stable repro files.
_unowned_op_counter = itertools.count(1_000_000_000)


class OperationRecord:
    """Common fields of a read or write record."""

    __slots__ = ("op_id", "process", "invoke_time", "response_time")

    def __init__(
        self, process: int, invoke_time: float, op_id: Optional[int] = None
    ) -> None:
        self.op_id: int = (
            op_id if op_id is not None else next(_unowned_op_counter)
        )
        self.process = process
        self.invoke_time = invoke_time
        self.response_time: Optional[float] = None

    @property
    def pending(self) -> bool:
        """True while the operation has not yet received its response."""
        return self.response_time is None

    def respond(self, time: float) -> None:
        """Record the operation's response time."""
        if self.response_time is not None:
            raise HistoryError(f"operation {self.op_id} responded twice")
        if time < self.invoke_time:
            raise HistoryError(
                f"response at t={time} precedes invocation at t={self.invoke_time}"
            )
        self.response_time = time


class WriteRecord(OperationRecord):
    """One write operation: value written and the timestamp it received."""

    __slots__ = ("value", "timestamp")

    def __init__(
        self,
        process: int,
        invoke_time: float,
        value: Any,
        timestamp: Timestamp,
        op_id: Optional[int] = None,
    ) -> None:
        super().__init__(process, invoke_time, op_id)
        self.value = value
        self.timestamp = timestamp

    def __repr__(self) -> str:
        return (
            f"Write(op={self.op_id}, p{self.process}, v={self.value!r}, "
            f"ts={self.timestamp.seq}, t=[{self.invoke_time:.4g},"
            f"{self.response_time if self.response_time is None else round(self.response_time, 4)}])"
        )


class ReadRecord(OperationRecord):
    """One read operation: the value returned and its timestamp."""

    __slots__ = ("value", "timestamp")

    def __init__(
        self, process: int, invoke_time: float, op_id: Optional[int] = None
    ) -> None:
        super().__init__(process, invoke_time, op_id)
        self.value: Any = None
        self.timestamp: Optional[Timestamp] = None

    def complete(self, time: float, value: Any, timestamp: Timestamp) -> None:
        """Record the read's response, returned value and value timestamp."""
        self.respond(time)
        self.value = value
        self.timestamp = timestamp

    def __repr__(self) -> str:
        ts = self.timestamp.seq if self.timestamp is not None else None
        return (
            f"Read(op={self.op_id}, p{self.process}, v={self.value!r}, ts={ts}, "
            f"t=[{self.invoke_time:.4g},"
            f"{self.response_time if self.response_time is None else round(self.response_time, 4)}])"
        )


class RegisterHistory:
    """The full operation history of one register.

    The register's initial value is modelled, as in the paper's algorithm,
    as a virtual write with timestamp 0 completing at time 0 before the
    execution starts.
    """

    def __init__(self, name: str = "X", initial_value: Any = None) -> None:
        self.name = name
        # Per-history op ids: id 0 is always the virtual initial write and
        # real operations count up from 1, so two runs in one process (or
        # in different processes) assign identical ids to identical
        # histories.
        self._op_counter = itertools.count()
        self.initial_write = WriteRecord(
            process=-1,
            invoke_time=0.0,
            value=initial_value,
            timestamp=Timestamp.ZERO,
            op_id=next(self._op_counter),
        )
        self.initial_write.respond(0.0)
        self.writes: List[WriteRecord] = [self.initial_write]
        self.reads: List[ReadRecord] = []
        self._writes_by_ts: Dict[Timestamp, WriteRecord] = {
            Timestamp.ZERO: self.initial_write
        }

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def begin_write(
        self, process: int, time: float, value: Any, timestamp: Timestamp
    ) -> WriteRecord:
        """Record a write invocation."""
        if timestamp in self._writes_by_ts:
            raise HistoryError(
                f"duplicate write timestamp {timestamp} on register {self.name}"
            )
        record = WriteRecord(
            process, time, value, timestamp, op_id=next(self._op_counter)
        )
        self.writes.append(record)
        self._writes_by_ts[timestamp] = record
        return record

    def begin_read(self, process: int, time: float) -> ReadRecord:
        """Record a read invocation."""
        record = ReadRecord(process, time, op_id=next(self._op_counter))
        self.reads.append(record)
        return record

    # ------------------------------------------------------------------ #
    # The reads-from relation
    # ------------------------------------------------------------------ #

    def write_for_timestamp(self, timestamp: Timestamp) -> Optional[WriteRecord]:
        """The write that produced ``timestamp`` (implementation ground truth)."""
        return self._writes_by_ts.get(timestamp)

    def reads_from(self, read: ReadRecord) -> Optional[WriteRecord]:
        """Implementation-level reads-from, via the value's timestamp."""
        if read.timestamp is None:
            return None
        return self._writes_by_ts.get(read.timestamp)

    def reads_from_spec(self, read: ReadRecord) -> Optional[WriteRecord]:
        """The paper's reads-from: the latest write that (1) begins before
        the read ends and (2) wrote the value the read returned."""
        if read.pending:
            return None
        candidates = [
            w
            for w in self.writes
            if w.invoke_time < read.response_time and w.value == read.value
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda w: (w.invoke_time, w.timestamp))

    def staleness(self, read: ReadRecord) -> Optional[int]:
        """How many writes *completed* before the read's response but are
        newer than the write the read returned.  0 means the read saw the
        most recent completed write."""
        source = self.reads_from(read)
        if source is None or read.pending:
            return None
        newer = [
            w
            for w in self.writes
            if w.timestamp > source.timestamp
            and w.response_time is not None
            and w.response_time <= read.response_time
        ]
        return len(newer)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def operations(self) -> Iterator[OperationRecord]:
        """All operations (reads and real writes) in invocation order."""
        real_writes = [w for w in self.writes if w is not self.initial_write]
        ops: List[OperationRecord] = list(real_writes) + list(self.reads)
        return iter(sorted(ops, key=lambda op: (op.invoke_time, op.op_id)))

    def reads_by_process(self, process: int) -> List[ReadRecord]:
        """This process's reads, in invocation order."""
        return sorted(
            (r for r in self.reads if r.process == process),
            key=lambda r: (r.invoke_time, r.op_id),
        )

    def latest_write_before(self, time: float) -> WriteRecord:
        """The completed write with the largest timestamp responding <= time."""
        done = [
            w
            for w in self.writes
            if w.response_time is not None and w.response_time <= time
        ]
        return max(done, key=lambda w: w.timestamp)

    def __repr__(self) -> str:
        return (
            f"RegisterHistory({self.name!r}, writes={len(self.writes) - 1}, "
            f"reads={len(self.reads)})"
        )
