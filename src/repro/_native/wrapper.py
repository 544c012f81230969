"""Python-side wrappers over the compiled kernel core.

The C types implement the hot paths only; everything cold (repeating
chains, mark tables, guarded breakdown accessors) lives here in plain
Python, subclassing the C cores.  Importing this module requires the
extension to be built — :mod:`repro.sim.kernel` guards the import.
"""

from typing import Optional, Tuple

from repro._native import load_kernel
from repro.sim.metrics import DetailNotCollected
from repro.sim.scheduler import Scheduler

_kernel = load_kernel()
if _kernel is None:  # pragma: no cover - guarded by repro.sim.kernel
    raise ImportError("repro._native._kernel is not built")


class NativeScheduler(_kernel.SchedulerCore):
    """The native scheduler core plus the cold-path Python API.

    ``schedule``/``call_soon``/``schedule_uncancellable``/``step``/``run``
    are C methods on the core; repeating chains *are*
    :meth:`repro.sim.scheduler.Scheduler.schedule_repeating`, which only
    calls ``now``, ``schedule`` and ``schedule_at``.
    """

    __slots__ = ()

    schedule_repeating = Scheduler.schedule_repeating

    def __repr__(self) -> str:
        return (
            f"NativeScheduler(t={self.now:.6g}, "
            f"pending={self.pending}, processed={self.events_processed})"
        )


class NativeMessageStats(_kernel.StatsCore):
    """Scalar-totals message stats backed by C counters.

    The drop-in equivalent of ``MessageStats(detailed=False)``: the four
    ``record_*`` methods are C (and the network core bumps the
    counters without any method call at all), while the breakdown
    accessors raise :class:`~repro.sim.metrics.DetailNotCollected`
    exactly like the pure-python scalar mode does.
    """

    __slots__ = ("_marks",)

    def __init__(self, detailed: bool = False) -> None:
        super().__init__(detailed=detailed)
        self._marks = {}

    def _not_collected(self, name: str):
        raise DetailNotCollected(
            f"MessageStats.{name} was never collected: this instance "
            f"was built with detailed=False (scalar totals only). "
            f"Use detailed=True / RegisterDeployment(detailed_stats="
            f"True) to measure per-kind/per-node breakdowns."
        )

    @property
    def by_sender(self):
        return self._not_collected("by_sender")

    @property
    def by_receiver(self):
        return self._not_collected("by_receiver")

    @property
    def by_kind(self):
        return self._not_collected("by_kind")

    @property
    def delivered_by_kind(self):
        return self._not_collected("delivered_by_kind")

    @property
    def dropped_by_kind(self):
        return self._not_collected("dropped_by_kind")

    @property
    def dropped_by_receiver(self):
        return self._not_collected("dropped_by_receiver")

    @property
    def dropped_by_reason(self):
        return self._not_collected("dropped_by_reason")

    def busiest_receiver(self) -> Tuple[Optional[int], int]:
        return self._not_collected("busiest_receiver")

    def receiver_load(self, node: int) -> float:
        return self._not_collected("receiver_load")

    def mark(self, name: str) -> None:
        """Remember the current sent-count under ``name`` (for deltas)."""
        self._marks[name] = self.sent

    def since_mark(self, name: str) -> int:
        """Messages sent since :meth:`mark` was called with ``name``."""
        return self.sent - self._marks.get(name, 0)

    def drop_rate(self) -> float:
        """Fraction of sent messages that were dropped."""
        if self.sent == 0:
            return 0.0
        return self.dropped / self.sent

    def reset(self) -> None:
        """Zero every counter — including the :meth:`mark` table."""
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self._marks.clear()
