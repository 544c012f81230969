"""Online specification monitoring: catch violations *during* the run.

The post-hoc checkers in :mod:`repro.core.spec` audit a finished history;
under fault injection and adversarial scheduling that is too late — a
violating run completes "successfully" and only a later audit (if anyone
runs one) notices.  :class:`OnlineSpecMonitor` checks incrementally, as
each operation completes:

* **[R1]/liveness** — every operation resolves or times out: at
  :meth:`finalize` no operation may be past its deadline or left pending
  once nothing is scheduled, and
  no operation may retry more than ``max_attempts`` times (a retry storm
  is a liveness failure even if the op eventually settles);
* **[R2] (online)** — a completed read must return a (value, timestamp)
  some write actually began writing, and that write must have begun
  before the read responded ("no reads-from before the write begins");
* **[R4]/[R5] (monotone mode)** — per (register, process), a later read
  never returns an older timestamp than an earlier read did.

Every check is O(1) per completed operation (two dict probes and an
integer compare), so monitoring adds no asymptotic cost.  An unmonitored
client holds ``spec_monitor = None`` and guards every hook with one
``is None`` test, so ``check_spec=False`` runs pay nothing else — pinned
by the golden trace in ``tests/test_kernel_determinism.py``.

Violations raise :class:`~repro.core.spec.SpecViolation` carrying the
offending operation records, which aborts the simulated run at the
violating event instead of silently completing.
"""

from typing import Any, Dict, Optional, Tuple

from repro.core.spec import SpecViolation
from repro.core.timestamps import Timestamp


class OnlineSpecMonitor:
    """Incremental [R1]/[R2]/[R4] + liveness checker for live runs."""

    __slots__ = (
        "monotone",
        "max_attempts",
        "reads_checked",
        "writes_checked",
        "retries_seen",
        "timeouts_seen",
        "views_seen",
        "_last_read",
    )

    def __init__(
        self, monotone: bool = False, max_attempts: Optional[int] = 64
    ) -> None:
        if max_attempts is not None and max_attempts < 1:
            raise ValueError(
                f"max_attempts must be positive or None, got {max_attempts}"
            )
        self.monotone = monotone
        self.max_attempts = max_attempts
        self.reads_checked = 0
        self.writes_checked = 0
        self.retries_seen = 0
        self.timeouts_seen = 0
        self.views_seen = 0
        # (register, process) -> (timestamp, record) of the last completed
        # read: the [R4] state, one entry per reader per register.
        self._last_read: Dict[Tuple[str, int], Tuple[Timestamp, Any]] = {}

    # ------------------------------------------------------------------ #
    # Per-operation hooks (called by the register clients)
    # ------------------------------------------------------------------ #

    def on_read_complete(self, process: int, record: Any, history: Any) -> None:
        """Check a completed read: [R2] online, then [R4] when monotone."""
        self.reads_checked += 1
        timestamp = record.timestamp
        source = history.write_for_timestamp(timestamp)
        if source is None:
            raise SpecViolation(
                f"[R2] violated online on {history.name}: {record!r} returned "
                f"a (value, timestamp) no write ever began writing",
                condition="R2",
                register=history.name,
                ops=[record],
            )
        if source.invoke_time > record.response_time:
            raise SpecViolation(
                f"[R2] violated online on {history.name}: {record!r} read "
                f"from {source!r}, which begins only after the read responded",
                condition="R2",
                register=history.name,
                ops=[record, source],
            )
        if self.monotone:
            key = (history.name, process)
            previous = self._last_read.get(key)
            if previous is not None and timestamp < previous[0]:
                raise SpecViolation(
                    f"[R4] violated online on {history.name}: process "
                    f"{process} read ts={timestamp.seq} after having read "
                    f"ts={previous[0].seq}",
                    condition="R4",
                    register=history.name,
                    ops=[previous[1], record],
                )
            self._last_read[key] = (timestamp, record)

    def on_write_complete(self, process: int, record: Any, history: Any) -> None:
        """Count a completed write (the ack itself is the [R1] evidence)."""
        self.writes_checked += 1

    def on_retry(self, register: str, op_kind: str, attempts: int) -> None:
        """Bound retry storms: an op retrying forever is a liveness bug."""
        self.retries_seen += 1
        if self.max_attempts is not None and attempts > self.max_attempts:
            raise SpecViolation(
                f"liveness violated: {op_kind}({register}) retried "
                f"{attempts} times (bound: {self.max_attempts}) without "
                f"settling — unbounded retry storm",
                condition="liveness",
                register=register,
            )

    def on_timeout(self, register: str, op_kind: str) -> None:
        """A deadline rejection settles the op; count it for reporting."""
        self.timeouts_seen += 1

    def on_view_change(self, view_id: int, members: Any, now: float) -> None:
        """A membership view was installed (dynamic membership runs).

        Deliberately does **not** reset any checker state: [R2] resolves
        against the register history (view-independent by construction)
        and the [R4] per-(register, process) last-read table must survive
        reconfiguration — a read regressing *across* a view boundary is
        exactly the bug class this monitor exists to catch.
        """
        self.views_seen += 1

    # ------------------------------------------------------------------ #
    # End-of-run check
    # ------------------------------------------------------------------ #

    def finalize(self, deployment: Any) -> None:
        """[R1]/liveness at end of run: no operation may be left hung
        (``deployment.hung_ops``: pending once the scheduler drained its
        heap, or past an armed deadline)."""
        hung = deployment.hung_ops
        if hung:
            raise SpecViolation(
                f"[R1]/liveness violated: {hung} operation(s) left with no "
                f"settlement path at end of run (pending="
                f"{deployment.pending_ops})",
                condition="liveness",
            )

    def __repr__(self) -> str:
        mode = "monotone" if self.monotone else "plain"
        return (
            f"OnlineSpecMonitor({mode}, reads={self.reads_checked}, "
            f"writes={self.writes_checked})"
        )
