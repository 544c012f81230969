"""Python-side wrapper over the compiled scheduler core.

The C type implements the hot path only; the cold repeating-chain API
lives here in plain Python, subclassing the C core.  Importing this
module requires the extension to be built — :mod:`repro.sim.kernel`
guards the import.
"""

from repro._native import load_kernel
from repro.sim.scheduler import Scheduler

_kernel = load_kernel()
if _kernel is None:  # pragma: no cover - guarded by repro.sim.kernel
    raise ImportError("repro._native._kernel is not built")


class NativeScheduler(_kernel.SchedulerCore):
    """The native scheduler core plus the cold-path Python API.

    ``schedule``/``call_soon``/``schedule_uncancellable``/``run`` are C
    methods on the core; repeating chains *are*
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
