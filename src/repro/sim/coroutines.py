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

    def resume(value: Any = None, exception: Optional[BaseException] = None) -> None:
        try:
            if exception is not None:
                yielded = generator.throw(exception)
            else:
                yielded = generator.send(value)
        except StopIteration as stop:
            done.resolve(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via future
            done.fail(exc)
            return
        _wait_on(yielded)

    def _wait_on(yielded: Any) -> None:
        if isinstance(yielded, FUTURE_TYPES):
            def on_settle(fut: Future) -> None:
                if fut.failed:
                    # Defer to a fresh scheduler slot so callback chains stay flat.
                    scheduler.call_soon(resume, None, fut.exception)
                else:
                    scheduler.call_soon(resume, fut.result())
            yielded.add_callback(on_settle)
        elif isinstance(yielded, Sleep):
            scheduler.schedule(yielded.duration, resume)
        else:
            scheduler.call_soon(
                resume,
                None,
                CoroutineError(
                    f"coroutine {done.label!r} yielded unsupported {yielded!r}; "
                    "yield a Future or Sleep"
                ),
            )

    scheduler.call_soon(resume)
    return done
