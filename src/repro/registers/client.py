"""Client-side shared register subsystem.

Implements the read and write protocols of the probabilistic quorum
algorithm (Section 4) and, when ``monotone=True``, the monotone variant of
Section 6.2: the client remembers the largest timestamp (and value) any of
its reads has returned, and answers from that cache when a read quorum
returns only older values.  Exactly the same client code over a *strict*
quorum system yields the regular-register baseline.

Fault tolerance (the paper's Section 4 availability story, made
operational) lives in :class:`RetryPolicy`: a stalled operation resamples
a fresh quorum on an exponential-backoff timer with deterministic
RNG-driven jitter, re-sending only to members that have not yet replied,
and an optional per-operation deadline rejects the operation's future
with :class:`OperationTimeout` so callers never hang on a dead system.
"""

import itertools
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.register import AbstractRegister
from repro.core.timestamps import Timestamp
from repro.obs.core import Observability
from repro.quorum.base import QuorumSystem
from repro.registers.messages import (
    ReadQuery,
    ReadReply,
    StaleViewNack,
    WriteAck,
    WriteUpdate,
)
from repro.registers.space import RegisterSpace
from repro.sim.futures import Future
from repro.sim.metrics import counter_type
from repro.sim.network import Node
from repro.sim.scheduler import EventHandle


class SingleWriterViolation(RuntimeError):
    """Raised when a client writes a register it does not own."""


class OperationTimeout(RuntimeError):
    """An operation missed its deadline; its future is rejected with this."""


class QuorumUnreachable(OperationTimeout):
    """The client gave up on an operation after ``max_attempts`` resamples.

    Subclasses :class:`OperationTimeout` so every caller that already
    tolerates deadline misses (the service frontend sheds them, the
    workload driver counts them) handles permanent quorum loss the same
    way — but as a distinct type with structured fields, so tests and
    degradation counters can tell "slow" from "gone".
    """

    def __init__(self, register: str, kind: str, attempts: int) -> None:
        super().__init__(
            f"{kind}({register}) unreachable: no quorum assembled after "
            f"{attempts} attempt(s)"
        )
        self.register = register
        self.kind = kind
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries stalled quorum operations.

    * ``interval`` — delay before the first retry.
    * ``backoff`` — multiplier applied per attempt (1.0 = fixed interval).
    * ``max_interval`` — cap on the backed-off delay (None = uncapped).
    * ``jitter`` — symmetric fractional jitter: each delay is scaled by a
      factor drawn uniformly from [1-jitter, 1+jitter].  The draw comes
      from a named RNG stream, so jittered runs stay exactly reproducible.
    * ``deadline`` — per-operation budget in simulated time; an operation
      still incomplete after this long fails with
      :class:`OperationTimeout`.  None disables deadlines.
    * ``max_attempts`` — total attempt budget (initial send plus
      retries); an operation that has resampled this many times without
      completing fails with :class:`QuorumUnreachable` instead of
      retrying forever.  None (the default) keeps the historical
      retry-until-deadline behaviour.
    """

    interval: float
    backoff: float = 2.0
    max_interval: Optional[float] = None
    jitter: float = 0.1
    deadline: Optional[float] = None
    max_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        # Stored as floats, whatever number was passed: the native client
        # core reads these four as C doubles.
        for name in ("interval", "backoff", "jitter", "max_interval"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))
        if self.interval <= 0:
            raise ValueError(f"retry interval must be positive: {self.interval}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1: {self.backoff}")
        if self.max_interval is not None and self.max_interval < self.interval:
            raise ValueError(
                f"max_interval {self.max_interval} < interval {self.interval}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1): {self.jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive: {self.deadline}")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )

    @classmethod
    def fixed(
        cls, interval: float, deadline: Optional[float] = None
    ) -> "RetryPolicy":
        """The legacy fixed-interval policy (no backoff, no jitter)."""
        return cls(
            interval=interval, backoff=1.0, jitter=0.0, deadline=deadline
        )

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """The delay before retry number ``attempt`` (0-based)."""
        value = self.interval * self.backoff ** attempt
        if self.max_interval is not None:
            value = min(value, self.max_interval)
        if self.jitter > 0.0:
            value *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return value


# Round plans.  An operation is a tuple of rounds run on one pending op,
# each a (request, decision, carry) triple.  A client class declares one
# plan per kind (``READ_PLAN``, ``WRITE_PLAN``) and both kernels interpret
# it: the methods below, and the native client core, which reads the
# plans once, when it is built.
#: request: what the round sends its quorum.
QUERY, UPDATE = "query", "update"
#: decision over the round's quorum read replies, or None: the highest
#: timestamp, or the highest vouched for by b+1 members (masking).
MAX_TS, VOUCHED = "max_ts", "vouched"
#: carry: what the round's request carries, or None — this client's next
#: timestamp, one above both that and the previous round's chosen
#: timestamp, or the (timestamp, value) pair the previous round chose.
OWN_SEQ, NEXT_SEQ, CHOSEN = "own_seq", "next_seq", "chosen"


class _PendingOp:
    """Book-keeping for one in-flight read or write."""

    __slots__ = (
        "op_id",
        "register",
        "kind",
        "plan",
        "stage",
        "is_read",
        "quorum",
        "replies",
        "future",
        "record",
        "value",
        "timestamp",
        "retry_handle",
        "deadline_handle",
        "attempts",
        "started",
        "span",
        "message",
        "view",
    )

    def __init__(
        self,
        op_id: int,
        register: str,
        kind: str,
        plan: Tuple[Tuple[str, Optional[str], Optional[str]], ...],
        quorum: FrozenSet[int],
        future: Future,
        record,
        value: Any = None,
    ) -> None:
        self.op_id = op_id
        self.register = register
        # What the caller invoked ("read" / "write": the span, latency
        # label, timeout and completion are named after it), the rounds
        # that implement it, and the round in flight — whose request kind
        # ``is_read`` caches for the message build and the quorum draw.
        self.kind = kind
        self.plan = plan
        self.stage = 0
        self.is_read = plan[0][0] == QUERY
        self.quorum = quorum
        self.replies: Dict[int, Any] = {}
        self.future = future
        self.record = record
        self.value = value
        self.timestamp: Optional[Timestamp] = None
        self.retry_handle: Optional[EventHandle] = None
        self.deadline_handle: Optional[EventHandle] = None
        self.attempts = 0
        self.started = 0.0
        self.span = None
        # The round's immutable query/update message, built lazily by
        # _send_round and re-sent by every retry: its fields are constant
        # for the round's life unless a view refresh re-stamps it.
        self.message: Any = None
        # View id this op is currently dispatched under (and its requests
        # are stamped with); 0 for the life of a static deployment.
        self.view = 0

    def complete_against_quorum(self) -> bool:
        """True once every member of the current quorum has replied."""
        # frozenset.issubset over the replies dict runs the membership
        # loop in C; this is checked once per reply on the hot path.
        return self.quorum.issubset(self.replies)


#: The counters the native client core bumps per operation or per reply.
ClientCounters = counter_type(
    "repro.registers.client.ClientCounters",
    ("reads_performed", "writes_performed", "cache_hits", "ops_completed",
     "ops_completed_under_failure", "retries", "stale_nacks"),
)


class QuorumRegisterClient(Node, ClientCounters):
    """The shared register subsystem attached to one application process."""

    #: The Section 4 protocol: a read is one query round deciding the
    #: highest timestamp, a write one update round under this client's
    #: next timestamp.  Flavours replace the plans, nothing else
    #: (registers/atomic.py, registers/masking.py).
    READ_PLAN = ((QUERY, MAX_TS, None),)
    WRITE_PLAN = ((UPDATE, None, OWN_SEQ),)

    # The state the native client core reads per operation or per reply,
    # which it binds by slot offset when it is built, as it does the
    # counter fields (the rest of a node's state stays in its __dict__).
    __slots__ = (
        "view_id", "_membership", "_view", "_view_rng", "_srtt", "_rttvar",
    )

    def __init__(
        self,
        client_id: int,
        space: RegisterSpace,
        quorum_system: QuorumSystem,
        server_ids: List[int],
        rng: np.random.Generator,
        monotone: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
        retry_rng: Optional[np.random.Generator] = None,
        observability: Optional[Observability] = None,
        spec_monitor: Optional[Any] = None,
    ) -> None:
        super().__init__()
        # Per-instance message op ids: a class-level counter would leak
        # across deployments in one process, making back-to-back runs
        # carry different wire-level op ids than fresh-process runs.
        self._op_ids = itertools.count(1)
        self.client_id = client_id
        self.space = space
        self.quorum_system = quorum_system
        self.server_ids = list(server_ids)
        # Reverse map for reply handling: node id -> quorum member index.
        # list.index is O(n) and runs once per reply, which dominates at
        # large n; the dict probe is O(1).
        self._server_index = {
            node_id: index for index, node_id in enumerate(self.server_ids)
        }
        self.rng = rng
        self.monotone = monotone
        self.retry_policy = retry_policy
        # Jitter draws get their own stream (falling back to the quorum
        # stream) so backoff randomisation never perturbs quorum choice.
        self._retry_rng = retry_rng if retry_rng is not None else rng
        # The round-trip estimator the retry timer waits for (RFC 6298):
        # smoothed latency and its mean deviation, None before the first
        # sample (see _sample_rtt and _retry_delay).
        self._srtt: Optional[float] = None
        self._rttvar: Optional[float] = None
        self._pending: Dict[int, _PendingOp] = {}
        # Monotone cache: register name -> (timestamp, value) of the most
        # recent value this client has returned (Section 6.2).
        self._cache: Dict[str, Tuple[Timestamp, Any]] = {}
        # Writer state: next sequence number per owned register.
        self._write_seq: Dict[str, int] = {}
        self.reads_performed = 0
        self.writes_performed = 0
        self.cache_hits = 0
        # Fault-tolerance accounting (per client, surfaced by Alg1Result).
        self.retries = 0
        self.timeouts = 0
        self.ops_completed = 0
        self.ops_completed_under_failure = 0
        # Dynamic membership (repro.membership): attached post-construction
        # by the deployment when a schedule is installed.  A static
        # deployment has no manager and stays in view 0 forever.
        self._membership: Optional[Any] = None
        self._view: Optional[Any] = None
        self.view_id = 0
        self._view_rng: Optional[np.random.Generator] = None
        self.unreachable = 0
        self.stale_nacks = 0
        self.view_refreshes = 0
        # Observability: per-op spans and the latency histogram are the
        # only *live* instrumentation in the register stack (everything
        # else is collected post-run).  Each is prefetched as the live
        # instrument or None, so a run with them off pays one ``is None``
        # test per operation — and nothing at all per message.
        self.observability = (
            observability if observability is not None else Observability()
        )
        self._spans = self.observability.spans
        # Online spec monitor (repro.core.monitor), None when unmonitored:
        # every hook is guarded by the same ``is None`` test.
        self.spec_monitor = spec_monitor
        if self.observability.metrics is not None:
            latency = self.observability.metrics.histogram(
                "repro_op_latency",
                "Operation latency in simulated time units, by op kind.",
                labelnames=("kind",),
            )
            self._latency = {
                "read": latency.labels("read"),
                "write": latency.labels("write"),
            }
        else:
            self._latency = None

    @property
    def pending_ops(self) -> int:
        """Number of operations currently in flight."""
        return len(self._pending)

    @property
    def overdue_ops(self) -> int:
        """Pending operations older than the armed deadline (0 without one).

        Always zero, since the deadline event rejects them first; the
        counter is the run-level assertion of that invariant.
        """
        policy = self.retry_policy
        if policy is None or policy.deadline is None:
            return 0
        now = self.network.scheduler.now
        return sum(
            1 for op in self._pending.values()
            if now - op.started > policy.deadline
        )

    # ------------------------------------------------------------------ #
    # Quorum plumbing
    # ------------------------------------------------------------------ #

    def _send_round(self, op: _PendingOp) -> None:
        """(Re)send the operation to quorum members that have not replied.

        Skipping already-answered members keeps the Section 6.4 message
        counts honest: a retry that re-sent to every member of the
        resampled quorum would double-count traffic the servers already
        answered.
        """
        # Every call follows a fresh quorum (_begin, _resample), so the
        # member list is built here, once per quorum.
        replies = op.replies
        servers = [
            self.server_ids[member] for member in sorted(op.quorum)
            if member not in replies
        ]
        if not servers:
            return
        if op.span is not None:
            op.span.event(
                self.network.scheduler.now, "quorum_round",
                members=len(servers), attempt=op.attempts,
            )
        message = op.message
        if message is None:
            # Built once per dispatch: the fields never change across
            # rounds, and immutability lets retries re-send the same
            # instance.  (A view refresh clears the cache — the stamp
            # changes — but a static deployment never does.)
            if op.is_read:
                message = ReadQuery(op.register, op.op_id, op.view)
            else:
                message = WriteUpdate(
                    op.register, op.op_id, op.value, op.timestamp, op.view
                )
            op.message = message
        # One immutable message shared across the round, one batched
        # delay draw for the whole quorum (Network.broadcast) — instead
        # of a message allocation and a scalar Generator call per member.
        self.network.broadcast(self.node_id, servers, message)

    def _begin(self, op: _PendingOp) -> None:
        """Register the op, send the first round, arm retry and deadline."""
        self._pending[op.op_id] = op
        op.started = self.network.scheduler.now
        if self._spans is not None:
            op.span = self._spans.start(
                op.kind,
                op.started,
                client=self.client_id,
                register=op.register,
                op_id=op.op_id,
            )
        carry = op.plan[0][2]
        if carry is not None:
            self._carry(op, carry, None)
        self._send_round(op)
        scheduler = self.network.scheduler
        if self.retry_policy is not None:
            op.retry_handle = scheduler.schedule(
                self._retry_delay(0), self._retry, op.op_id
            )
            if self.retry_policy.deadline is not None:
                op.deadline_handle = scheduler.schedule(
                    self.retry_policy.deadline, self._expire, op.op_id
                )

    def _retry(self, op_id: int) -> None:
        """Resample a fresh quorum for a stalled operation (crash tolerance)."""
        op = self._pending.get(op_id)
        if op is None:
            return
        policy = self.retry_policy
        if (
            policy.max_attempts is not None
            and op.attempts + 1 >= policy.max_attempts
        ):
            # Attempt budget exhausted (initial send counts as attempt
            # one): give up instead of resampling forever against a
            # permanently lost quorum.
            self._give_up(op)
            return
        op.attempts += 1
        self.add("retries")
        if self.spec_monitor is not None:
            self.spec_monitor.on_retry(op.register, op.kind, op.attempts)
        if op.span is not None:
            op.span.event(
                self.network.scheduler.now, "retry", attempt=op.attempts
            )
        # Retry time is also view-refresh time: a stalled quorum is
        # often stalled *because* its members left the view.
        self._resample(op)
        if op.complete_against_quorum():
            # The fresh quorum is already fully covered by earlier replies.
            self._finish(op)
            return
        self._send_round(op)
        op.retry_handle = self.network.scheduler.schedule(
            self._retry_delay(op.attempts), self._retry, op.op_id
        )

    def _retry_delay(self, attempt: int) -> float:
        """The policy's delay before retry ``attempt``, floored at the
        retransmission timeout RTO = SRTT + 4 RTTVAR once a sample exists:
        a timer that fires inside the client's own round-trip tail only
        resamples an op that was about to complete.  The jitter is drawn
        on every arm, floored or not."""
        delay = self.retry_policy.delay(attempt, self._retry_rng)
        if self._srtt is not None:
            delay = max(delay, self._srtt + 4.0 * self._rttvar)
        return delay

    def _sample_rtt(self, sample: float) -> None:
        """Fold one operation's latency into the estimator (RFC 6298,
        Jacobson/Karels: alpha = 1/8, beta = 1/4; the first sample sets
        SRTT = R, RTTVAR = R/2).  Only ops settled on their first attempt
        are samples (Karn's rule): a retried op's latency does not say
        which send was answered."""
        srtt = self._srtt
        if srtt is None:
            self._srtt, self._rttvar = sample, sample / 2.0
            return
        self._rttvar = 0.75 * self._rttvar + 0.25 * abs(srtt - sample)
        self._srtt = 0.875 * srtt + 0.125 * sample

    def _expire(self, op_id: int) -> None:
        """Deadline hit: reject the operation's future with OperationTimeout."""
        op = self._pending.get(op_id)
        if op is None:
            return
        self._teardown(op)
        self.timeouts += 1
        kind = op.kind
        if self.spec_monitor is not None:
            self.spec_monitor.on_timeout(op.register, kind)
        if op.span is not None:
            self._spans.finish(
                op.span, self.network.scheduler.now, status="timeout"
            )
        op.future.fail(
            OperationTimeout(
                f"{op.future.label} exceeded its deadline of "
                f"{self.retry_policy.deadline} after {op.attempts + 1} "
                "attempt(s)"
            )
        )

    def _give_up(self, op: _PendingOp) -> None:
        """Attempt budget exhausted: fail the future with QuorumUnreachable."""
        self._teardown(op)
        self.unreachable += 1
        kind = op.kind
        if self.spec_monitor is not None:
            self.spec_monitor.on_timeout(op.register, kind)
        if op.span is not None:
            self._spans.finish(
                op.span, self.network.scheduler.now, status="unreachable"
            )
        op.future.fail(QuorumUnreachable(op.register, kind, op.attempts + 1))

    def _teardown(self, op: _PendingOp) -> None:
        """Drop the op from the pending table and cancel its timers."""
        del self._pending[op.op_id]
        if op.retry_handle is not None:
            op.retry_handle.cancel()
        if op.deadline_handle is not None:
            op.deadline_handle.cancel()

    # ------------------------------------------------------------------ #
    # Dynamic membership (repro.membership)
    # ------------------------------------------------------------------ #

    def attach_membership(self, manager: Any) -> None:
        """Join a view-managed deployment (called by install_membership)."""
        self._membership = manager
        self._view = manager.current_view
        self.view_id = self._view.view_id
        self._view_rng = manager.client_view_rng(
            self.view_id, self.client_id, self.rng
        )

    def _roster_extended(self, node_id: int) -> None:
        """A new replica server exists; extend the id/index maps."""
        self._server_index[node_id] = len(self.server_ids)
        self.server_ids.append(node_id)

    def _refresh_view(self) -> None:
        """Adopt the manager's current view if it is newer than ours."""
        if self._membership is None:
            return  # static deployment: view 0 is the only view
        view = self._membership.current_view
        if view.view_id != self.view_id:
            self._view = view
            self.view_id = view.view_id
            self._view_rng = self._membership.client_view_rng(
                view.view_id, self.client_id, self.rng
            )
            self.view_refreshes += 1

    def _sample_quorum(self, is_read: bool) -> FrozenSet[int]:
        """Draw a quorum: from the freshest view, or the static system."""
        if self._membership is not None:
            self._refresh_view()
            return self._view.sample(self._view_rng)
        if is_read:
            quorum = self.quorum_system.read_quorum(self.rng)
        else:
            quorum = self.quorum_system.write_quorum(self.rng)
        self.quorum_system.validate_quorum(quorum)
        return quorum

    def _resample(self, op: _PendingOp) -> None:
        """Move ``op`` to a fresh quorum under the client's current view."""
        op.quorum = self._sample_quorum(op.is_read)
        # The message is rebuilt only when its stamp changed (its other
        # fields are op-constant).
        if op.view != self.view_id:
            op.view = self.view_id
            op.message = None

    def _redispatch(self, op: _PendingOp) -> None:
        """Re-dispatch a nacked op under the client's current view.

        Earlier replies are kept — their values are valid regardless of
        which view served them — so the op completes as soon as the new
        quorum is covered, possibly immediately.
        """
        if op.view == self.view_id:
            return  # duplicate nacks from one stale round; already moved
        self._resample(op)
        if op.span is not None:
            op.span.event(
                self.network.scheduler.now, "view_redispatch",
                view=op.view,
            )
        if op.complete_against_quorum():
            self._finish(op)
            return
        self._send_round(op)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    #
    # ``read``, ``write``, ``_issue``, ``_begin`` and ``_send_round`` are
    # the issue path, ``_retry`` the retry timer (``_retry_delay`` and,
    # from ``_settle``, ``_sample_rtt`` its round-trip floor).  On the
    # native backend the deployment shadows ``read``, ``write``, ``_retry``
    # and ``on_message``, on clients whose class overrides none of these
    # methods and whose span tracing is off, with a C client core
    # (``repro.sim.kernel.make_client_cores``) that transcribes these
    # definitions — ``_redispatch``, ``_finish``, ``_settle``,
    # ``_retry_delay`` and ``_sample_rtt`` inside; a
    # change here must be made there too, and tests/test_kernel_fastpath.py
    # compares the two draw for draw.  The core is wired once, when it is
    # built, and builds every op of its client as C types — a
    # ``PendingOp`` with this ``_PendingOp``'s fields and a ``Future`` with
    # the contract of ``repro.sim.futures.Future``; ``_expire`` /
    # ``_give_up`` / ``_teardown`` / ``_vouched`` act on those too.  What
    # an operation does is its plan: a covered round
    # is decided (``_choose``), then either the next round starts on the
    # same op (``_carry``, ``_resample``, ``_send_round``) or the op
    # settles (``_settle``: counters, latency, span, history, monitor,
    # future) — one completion path for every flavour.

    def read(self, register: str, /) -> Future:
        """Invoke a read; the future resolves with the returned value."""
        history = self.space.info(register).history
        record = None if history is None else history.begin_read(
            self.client_id, self.network.scheduler.now
        )
        self.add("reads_performed")
        return self._issue(register, "read", self.READ_PLAN, record)

    def write(self, register: str, value: Any, /) -> Future:
        """Invoke a write; the future resolves (with None) on the Ack."""
        info = self.space.info(register)
        if info.writer is not None and info.writer != self.client_id:
            raise SingleWriterViolation(
                f"client {self.client_id} cannot write {register!r}; "
                f"owner is client {info.writer}"
            )
        self.add("writes_performed")
        return self._issue(register, "write", self.WRITE_PLAN, None, value)

    def _issue(self, register: str, kind: str, plan, record, value=None):
        """Build the op for ``plan``'s first round and begin it."""
        future = Future((kind, register, self.client_id))
        quorum = self._sample_quorum(plan[0][0] == QUERY)
        op = _PendingOp(
            next(self._op_ids), register, kind, plan, quorum, future, record,
            value,
        )
        op.view = self.view_id
        self._begin(op)
        return future

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #

    def on_message(self, src: int, message: Any) -> None:
        if isinstance(message, (ReadReply, WriteAck)):
            op = self._pending.get(message.op_id)
            if op is not None and op.is_read != isinstance(message, ReadReply):
                # A retried query round leaves duplicate and late
                # ReadReplys in flight under the op's id; one landing in
                # the update round is not that server's ack.
                return
            if message.view > self.view_id:
                # A draining leaver (or newer member) answered an op we
                # stamped with an old view; the reply is still a valid
                # answer, and its stamp tells us to refresh.
                self._refresh_view()
            if op is None:
                return  # late reply for a completed operation
            server_index = self._server_index.get(src)
            if server_index is None:
                return  # reply from an unknown node
            op.replies[server_index] = message
            if op.span is not None:
                op.span.event(
                    self.network.scheduler.now, "reply", server=server_index
                )
            if op.complete_against_quorum():
                self._finish(op)
        elif isinstance(message, StaleViewNack):
            self.add("stale_nacks")
            self._refresh_view()
            op = self._pending.get(message.op_id)
            if op is None:
                return  # op already completed (or expired) elsewhere
            self._redispatch(op)

    def _quorum_read_replies(self, op: _PendingOp) -> List[ReadReply]:
        """The read replies gathered from members of the op's quorum."""
        return [
            op.replies[i]
            for i in op.quorum
            if isinstance(op.replies.get(i), ReadReply)
        ]

    def _finish(self, op: _PendingOp) -> None:
        """The round's quorum is covered: decide, then start the plan's
        next round or settle the op with the decision (or, for a round
        that decides nothing, with what the op carries)."""
        plan, stage = op.plan, op.stage
        chosen = self._choose(op) if plan[stage][1] is not None else None
        if stage + 1 == len(plan):
            self._settle(op, *(chosen or (op.timestamp, op.value)))
            return
        op.stage = stage = stage + 1
        request, _, carry = plan[stage]
        op.is_read = request == QUERY
        op.replies = {}
        op.message = None
        if carry is not None:
            self._carry(op, carry, chosen)
        self._resample(op)
        self._send_round(op)

    def _carry(self, op: _PendingOp, carry: str, chosen) -> None:
        """Load what the round in flight carries: the pair the previous
        round chose, or a fresh timestamp of this client's with the
        write's history record, back-dated to the op's start so real-time
        ordering checks ([L1]) see the whole interval."""
        if carry == CHOSEN:
            op.timestamp, op.value = chosen
            return
        seq = self._write_seq.get(op.register, 0)
        if carry == NEXT_SEQ:
            # Above the queried timestamp and every one this client has
            # issued: over a probabilistic system the query round can
            # miss its own previous write, and a reused timestamp would
            # be a correctness (and history-uniqueness) bug.
            seq = max(chosen[0].seq, seq)
        self._write_seq[op.register] = seq + 1
        op.timestamp = Timestamp(seq + 1, self.client_id)
        history = self.space.info(op.register).history
        if history is not None:
            op.record = history.begin_write(
                self.client_id, op.started, op.value, op.timestamp
            )

    def _choose(self, op: _PendingOp) -> Tuple[Timestamp, Any]:
        """The decision of the round in flight: the highest-timestamped
        quorum reply or, for a VOUCHED round, the class's ``_vouched``
        (:meth:`~repro.registers.masking.MaskingClient._vouched`).  Only a
        read's final decision — what it returns — goes through the
        monotone cache of Section 6.2: the cached pair wins when newer.
        A decision feeding a later round (the multi-writer query, the ABD
        write-back) must come from the replicas."""
        if op.plan[op.stage][1] == VOUCHED:
            return self._vouched(op)
        best = max(
            self._quorum_read_replies(op), key=lambda reply: reply.timestamp
        )
        timestamp, value = best.timestamp, best.value
        if self.monotone and op.stage + 1 == len(op.plan):
            cached = self._cache.get(op.register)
            if cached is not None and cached[0] > timestamp:
                timestamp, value = cached
                self.add("cache_hits")
            else:
                self._cache[op.register] = (timestamp, value)
        return timestamp, value

    def _settle(self, op: _PendingOp, timestamp=None, value=None) -> None:
        """The one completion path: settle ``op`` as what the caller
        invoked — a read returning ``value`` at ``timestamp``, or a write
        (which ignores both)."""
        self._teardown(op)
        self.add("ops_completed")
        if self.network.failures.any_failures:
            self.add("ops_completed_under_failure")
        now = self.network.scheduler.now
        kind = op.kind
        if self.retry_policy is not None and op.attempts == 0:
            self._sample_rtt(now - op.started)
        if self._latency is not None:
            self._latency[kind].observe(now - op.started)
        if op.span is not None:
            self._spans.finish(op.span, now, status="ok")
        if kind == "read":
            if op.record is not None:
                op.record.complete(now, value, timestamp)
            if self.spec_monitor is not None:
                self.spec_monitor.on_read_complete(
                    self.client_id, op.record,
                    self.space.info(op.register).history,
                )
            op.future.resolve(value)
        else:
            if op.record is not None:
                op.record.respond(now)
            if self.spec_monitor is not None:
                self.spec_monitor.on_write_complete(
                    self.client_id, op.record,
                    self.space.info(op.register).history,
                )
            op.future.resolve(None)

    def handle(self, register: str) -> "RegisterHandle":
        """A per-register view implementing :class:`AbstractRegister`."""
        return RegisterHandle(self, register)

    def __repr__(self) -> str:
        mode = "monotone" if self.monotone else "plain"
        return (
            f"QuorumRegisterClient(c{self.client_id}, {mode}, "
            f"reads={self.reads_performed}, writes={self.writes_performed})"
        )


class RegisterHandle(AbstractRegister):
    """Binds a client and a register name to the AbstractRegister interface."""

    def __init__(self, client: QuorumRegisterClient, register: str) -> None:
        super().__init__(register, client.space.history(register))
        self.client = client

    def read(self) -> Future:
        return self.client.read(self.name)

    def write(self, value: Any) -> Future:
        return self.client.write(self.name, value)

    def __repr__(self) -> str:
        return f"RegisterHandle({self.name!r} via c{self.client.client_id})"
