"""Deliberately broken clients: ground truth for the violation pipeline.

A chaos pipeline that never fires is indistinguishable from one that
cannot fire.  These clients break the protocol in controlled, targeted
ways so tests (and the chaos smoke job) can assert the online monitor
catches real bugs, the campaign surfaces them, and shrinking reproduces
them — without planting bugs in the production protocol code.  Only the
read *decision* (``_choose``) is broken: a mutant's operations still run
the base client's rounds and its one completion path, so they count,
time and trace like any other.
"""

from typing import Any, Tuple

from repro.core.timestamps import Timestamp
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

    def _choose(self, op: _PendingOp) -> Tuple[Timestamp, Any]:
        self._reads_finished += 1
        if self._reads_finished <= self.regress_after:
            return super()._choose(op)
        # Broken decision: the stalest reply wins, the cache is skipped.
        worst = min(
            self._quorum_read_replies(op), key=lambda reply: reply.timestamp
        )
        return worst.timestamp, worst.value
