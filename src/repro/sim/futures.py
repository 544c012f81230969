"""Futures for the simulation kernel.

A :class:`Future` is a single-assignment cell that coroutine processes can
suspend on.  Callbacks registered on a future run synchronously when it is
resolved, in registration order; this keeps delivery deterministic.

The definitions here are the reference.  The native kernel has the same
future in C (``repro._native._kernel.Future``: the native client core's
operations return it) and the same countdown behind :func:`gather`, which
takes it for a list made only of native futures.  :data:`FUTURE_TYPES`
names every future class a coroutine may yield.
"""

from typing import Any, Callable, List, Optional, Tuple, Union

from repro._native import load_kernel


class FutureError(RuntimeError):
    """Raised on invalid future usage (double resolve, unresolved result)."""


class Future:
    """A single-assignment result cell.

    Futures may be resolved with a value or failed with an exception.
    Coroutines yield a future to suspend until it settles.
    """

    __slots__ = ("_value", "_exception", "_done", "_callbacks", "_label")

    def __init__(self, label: Union[str, Tuple[str, str, int]] = "") -> None:
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._done = False
        self._callbacks: List[Callable[["Future"], None]] = []
        self._label = label

    @property
    def label(self) -> str:
        """The future's name.  An operation's future is given its ``(kind,
        register, client id)``, formatted ``kind(register) by cN`` when
        first read: by an error message or a repr, so rarely."""
        label = self._label
        if type(label) is tuple:
            label = self._label = "%s(%s) by c%s" % label
        return label

    @property
    def done(self) -> bool:
        """True once the future has been resolved or failed."""
        return self._done

    @property
    def failed(self) -> bool:
        """True if the future settled with an exception."""
        return self._done and self._exception is not None

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception the future failed with, or None.

        Unlike :meth:`result` this never raises, so rejection paths
        (timeouts, cancelled operations) can be inspected without
        try/except plumbing.
        """
        return self._exception

    def result(self) -> Any:
        """Return the value, raising the stored exception if it failed."""
        if not self._done:
            raise FutureError(f"future {self.label!r} is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Settle the future with ``value`` and run callbacks."""
        if self._done:
            raise FutureError(f"future {self.label!r} resolved twice")
        self._value = value
        self._done = True
        self._run_callbacks()

    def fail(self, exception: BaseException) -> None:
        """Settle the future with an exception and run callbacks."""
        if self._done:
            raise FutureError(f"future {self.label!r} resolved twice")
        self._exception = exception
        self._done = True
        self._run_callbacks()

    def add_callback(self, callback: Callable[["Future"], None]) -> None:
        """Register ``callback(self)``; runs immediately if already settled."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def discard(self) -> None:
        """Drop the callbacks of a future that will never settle.

        What waits on an operation abandoned with its finished run (a
        ``gather`` over it, a service front end) is referenced from here;
        a pending ``gather`` and its inputs reference each other.
        """
        self._callbacks = []

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        if not self._done:
            state = "pending"
        elif self._exception is not None:
            state = f"failed({self._exception!r})"
        else:
            state = f"done({self._value!r})"
        return f"Future({self.label!r}, {state})"


def gather(futures: List[Future], label: str = "gather") -> Future:
    """Return a future resolving to the list of results of ``futures``.

    Results come in input order.  Fails with the first failure observed:
    inputs that had already failed count, in input order, since their
    callbacks run at registration.  Once the combined future has settled,
    later failures and resolutions of inputs are ignored.
    An empty list resolves immediately to ``[]``.

    Each settlement is decided from the future that just settled — its
    own exception plus a countdown — never by rescanning the inputs, so
    settling m inputs costs O(m) in total.  A non-empty list or tuple of
    native futures gets the native countdown (same contract, no Python
    frame per settlement), over a snapshot of the inputs.
    """
    if _native_gather is not None:
        combined = _native_gather(futures, label)
        if combined is not None:
            return combined
    combined = Future(label)
    remaining = len(futures)
    if remaining == 0:
        combined.resolve([])
        return combined

    def on_done(settled: Future) -> None:
        nonlocal remaining
        if combined._done:
            return
        if settled._exception is not None:
            combined.fail(settled._exception)
            return
        remaining -= 1
        if remaining == 0:
            # A failed input never counts down, so every input resolved.
            combined.resolve([fut._value for fut in futures])

    for fut in futures:
        fut.add_callback(on_done)
    return combined


_kernel = load_kernel()
_native_gather = None if _kernel is None else _kernel.gather

#: The future classes: this module's, and the native one when built.
FUTURE_TYPES = (Future,) if _kernel is None else (Future, _kernel.Future)
