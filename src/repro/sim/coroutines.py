"""Generator-based coroutine processes over the scheduler.

A process is a Python generator that yields either a future — a
:class:`~repro.sim.futures.Future` or the native kernel's, any of
:data:`~repro.sim.futures.FUTURE_TYPES` — (suspend until it settles) or a
:class:`Sleep` (suspend for a duration).
The value sent back into the generator after yielding a future is the
future's result, so protocol code reads naturally::

    def client(register):
        value = yield register.read()
        yield Sleep(1.0)
        yield register.write(value + 1)

``spawn`` drives a generator on a scheduler and returns a future that
resolves with the generator's return value.
"""

import traceback
from typing import Any, Generator, Optional

from repro._native import load_kernel
from repro.sim.futures import FUTURE_TYPES, Future
from repro.sim.scheduler import Scheduler


_kernel = load_kernel()


class Sleep:
    """Yielded by a coroutine to suspend for ``duration`` simulated time."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"sleep duration must be non-negative, got {duration}")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Sleep({self.duration})"


class CoroutineError(RuntimeError):
    """Raised when a coroutine yields an unsupported object."""


class _Process:
    """One spawned generator and the future its return value settles.

    The scheduler events and future callbacks that drive the generator
    are this object's bound methods, so a process holds no reference to
    itself: it lives exactly as long as an event or a future still
    refers to it, and reference counting frees it after that.
    """

    __slots__ = ("scheduler", "generator", "done")

    def __init__(self, scheduler: Scheduler, generator, done) -> None:
        self.scheduler = scheduler
        self.generator = generator
        self.done = done

    def resume(self, value: Any = None,
               exception: Optional[BaseException] = None) -> None:
        try:
            if exception is None:
                yielded = self.generator.send(value)
            else:
                yielded = self.generator.throw(exception)
                # Caught, the exception keeps the traceback it gained
                # through the generator's frame, whose locals may hold it
                # again (the future that failed with it): drop it.
                exception.__traceback__ = None
        except StopIteration as stop:
            if exception is not None:
                exception.__traceback__ = None
            self.done.resolve(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via future
            # The traceback's first entry is this frame, which holds the
            # process and so the future: keep the generator's entries,
            # without the locals of their finished frames.
            entries = exc.__traceback__.tb_next
            traceback.clear_frames(entries)
            self.done.fail(exc.with_traceback(entries))
            return
        self.wait_on(yielded)

    def settled(self, future: Any) -> None:
        # Defer to a fresh scheduler slot so callback chains stay flat.
        if future.failed:
            self.scheduler.call_soon(self.resume, None, future.exception)
        else:
            self.scheduler.call_soon(self.resume, future.result())

    def wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, FUTURE_TYPES):
            yielded.add_callback(self.settled)
        elif isinstance(yielded, Sleep):
            self.scheduler.schedule(yielded.duration, self.resume)
        else:
            self.scheduler.call_soon(
                self.resume,
                None,
                CoroutineError(
                    f"coroutine {self.done.label!r} yielded unsupported "
                    f"{yielded!r}; yield a Future or Sleep"
                ),
            )


def spawn(
    scheduler: Scheduler,
    generator: Generator[Any, Any, Any],
    label: str = "",
) -> Future:
    """Run ``generator`` as a process on ``scheduler``.

    :returns: a future resolving to the generator's return value, or failing
        with any exception the generator raises — the native kernel's
        future on its scheduler.
    """
    native = _kernel is not None and isinstance(
        scheduler, _kernel.SchedulerCore
    )
    done = (_kernel.Future if native else Future)(
        label or getattr(generator, "__name__", "coroutine")
    )
    scheduler.call_soon(_Process(scheduler, generator, done).resume)
    return done
