"""Deliberately broken clients: ground truth for the violation pipeline.

A chaos pipeline that never fires is indistinguishable from one that
cannot fire.  These clients break the protocol in controlled, targeted
ways so tests (and the chaos smoke job) can assert the online monitor
catches real bugs, the campaign surfaces them, and shrinking reproduces
them — without planting bugs in the production protocol code.
"""

from typing import Any

from repro.registers.client import QuorumRegisterClient, _PendingOp


class RegressingClient(QuorumRegisterClient):
    """A client whose reads regress after a warm-up period.

    The first ``regress_after`` reads behave correctly (populating the
    monotone cache and the monitor's per-process watermark); every read
    after that returns the *stalest* quorum reply and skips the monotone
    cache — a timestamp regression, violating [R4] exactly as a buggy
    cache-invalidation path would.  [R2] still holds: the stale value was
    genuinely written, just superseded.
    """

    regress_after = 3

    @classmethod
    def configured(cls, after: int) -> type:
        """A subclass with the warm-up threshold baked in (deployments
        instantiate client classes with a fixed signature, so per-run
        configuration travels as a class attribute)."""
        return type(cls.__name__, (cls,), {"regress_after": after})

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._reads_finished = 0

    def _finish(self, op: _PendingOp) -> None:
        if not op.is_read:
            super()._finish(op)
            return
        self._reads_finished += 1
        if self._reads_finished <= self.regress_after:
            super()._finish(op)
            return
        # Broken path: minimal completion bookkeeping, stalest reply wins.
        self._teardown(op)
        self.ops_completed += 1
        now = self.network.scheduler.now
        worst = min(
            self._quorum_read_replies(op), key=lambda reply: reply.timestamp
        )
        op.record.complete(now, worst.value, worst.timestamp)
        if self._monitor_on:
            self.spec_monitor.on_read_complete(
                self.client_id, op.record, self.space.info(op.register).history
            )
        op.future.resolve(worst.value)
