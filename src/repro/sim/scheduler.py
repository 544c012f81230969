"""Deterministic discrete-event scheduler.

The scheduler maintains a priority queue of events ordered by simulated time,
with a monotone sequence number breaking ties so that events scheduled first
run first.  All nondeterminism in a simulation therefore comes from the
random-number streams, never from the event queue itself, which makes every
run exactly reproducible from its root seed.

Heap entries are plain ``(time, seq, handle)`` tuples rather than bare
:class:`EventHandle` objects: heap sift comparisons then use C-level tuple
ordering, the single hottest operation in a simulation (every message is
one push and one pop).  The ``seq`` tiebreaker guarantees the comparison
never reaches the third element, so handles define no ordering at all.
"""

import heapq
from typing import Any, Callable, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop


class SchedulerError(RuntimeError):
    """Raised on invalid scheduler usage (e.g. scheduling in the past)."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the heap entry stays in the queue but is skipped
    when popped.  This keeps :meth:`Scheduler.cancel` O(1).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_owner", "_dequeued")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable,
        args: tuple,
        owner: Optional["Scheduler"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._owner = owner
        self._dequeued = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # Keep the owner's live-event counter exact: a handle leaves the
        # live count exactly once — here, or when it is popped and run.
        if self._owner is not None and not self._dequeued:
            self._owner._live -= 1

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"EventHandle(t={self.time:.6g}, seq={self.seq}, {name}, {state})"


class RepeatingHandle:
    """A cancellable reference to a repeating event chain.

    Each firing schedules the next occurrence, so cancellation must go
    through this wrapper rather than any single :class:`EventHandle`.
    The chain's events call the handle's :meth:`_fire`, and the handle
    holds only the next of them: a stopped chain is no reference cycle.
    """

    __slots__ = (
        "_current", "cancelled", "_scheduler", "_callback", "_args",
        "_base", "_interval", "_until", "_count",
    )

    def __init__(self, scheduler: "Scheduler", callback: Callable, args: tuple,
                 base: float, interval: float, until: Optional[float]) -> None:
        self._current: Optional[EventHandle] = None
        self.cancelled = False
        self._scheduler = scheduler
        self._callback = callback
        self._args = args
        self._base = base
        self._interval = interval
        self._until = until
        self._count = 0

    def cancel(self) -> None:
        """Stop the chain: no further occurrences fire.  Idempotent."""
        self.cancelled = True
        if self._current is not None:
            self._current.cancel()
            self._current = None

    def _occurrence(self, index: int) -> Optional[float]:
        """Time of occurrence ``index``, None once past the horizon."""
        time = self._base + index * self._interval
        until = self._until
        if until is not None and time > until:
            # Float drift past the horizon fires on it (schedule_repeating).
            return until if time - until <= self._interval * 1e-9 else None
        return time

    def _fire(self) -> None:
        if self.cancelled:
            return
        self._count += 1
        next_time = self._occurrence(self._count)
        if next_time is not None:
            self._current = self._scheduler.schedule_at(next_time, self._fire)
        else:
            self.cancelled = True
            self._current = None
        self._callback(*self._args)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "active"
        return f"RepeatingHandle({state}, next={self._current!r})"


class Scheduler:
    """A discrete-event scheduler with simulated time.

    Example::

        sched = Scheduler()
        sched.schedule(1.5, print, "hello at t=1.5")
        sched.run()
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._events_processed: int = 0
        self._stopped: bool = False
        self._live: int = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still queued.

        Maintained as a live counter (incremented on schedule, decremented
        on first cancel or on execution), so reading it is O(1) instead of
        an O(n) scan of the queue — it is polled on hot paths.
        """
        return self._live

    def _push(self, time: float, callback: Callable, args: tuple) -> EventHandle:
        """Validated fast path shared by every schedule entry point."""
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, owner=self)
        self._live += 1
        _heappush(self._queue, (time, seq, handle))
        return handle

    def schedule(self, delay: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SchedulerError(f"cannot schedule into the past (delay={delay})")
        return self._push(self._now + delay, callback, args)

    def schedule_uncancellable(
        self, delay: float, callback: Callable, *args: Any
    ) -> None:
        """Schedule an event that can never be cancelled; returns no handle.

        Hot-path variant for fire-and-forget events (message deliveries:
        the bulk of all events in a simulation).  The heap entry is a bare
        ``(time, seq, callback, args)`` tuple — no :class:`EventHandle`
        allocation, no cancellation bookkeeping.  Ordering is identical to
        :meth:`schedule`: the shared ``seq`` counter breaks ties, so heap
        comparisons never look past the second element even when handle
        and handle-free entries share the queue.
        """
        if delay < 0:
            raise SchedulerError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        _heappush(self._queue, (self._now + delay, seq, callback, args))

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SchedulerError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        return self._push(time, callback, args)

    def call_soon(self, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current time (after queued events).

        ``now`` can never be in the past, so this skips the time validation
        of :meth:`schedule_at` entirely.
        """
        return self._push(self._now, callback, args)

    def schedule_repeating(
        self,
        interval: float,
        callback: Callable,
        *args: Any,
        first_delay: Optional[float] = None,
        until: Optional[float] = None,
    ) -> RepeatingHandle:
        """Run ``callback(*args)`` every ``interval`` time units until cancelled.

        The first occurrence fires after ``first_delay`` (default: one
        ``interval``).  With ``until`` set, the chain stops by itself once
        the next occurrence would fire past that simulated time — without
        it, repeating events keep the queue non-empty forever, so runs
        driving them must bound themselves with ``until`` / ``max_events``
        / ``stop_when``.

        Occurrence times are computed as ``base + i * interval`` (not by
        repeatedly adding ``interval``), and an occurrence that overshoots
        the horizon by at most ``interval * 1e-9`` — float representation
        drift, e.g. ``0.2 + 2 * 0.2 > 0.6`` — is snapped to fire exactly
        at ``t == until``.  An event landing on the horizon therefore
        fires exactly once, deterministically, on both kernel backends;
        before this rule such occurrences were silently dropped.
        """
        if interval <= 0:
            raise SchedulerError(
                f"repeating interval must be positive, got {interval}"
            )
        delay = interval if first_delay is None else first_delay
        # ``now``, not ``_now``: NativeScheduler borrows this function and
        # its C core exposes the clock only under the public name.
        base = self.now + delay
        handle = RepeatingHandle(self, callback, args, base, interval, until)
        first_time = handle._occurrence(0)
        if first_time is None:
            handle.cancelled = True
        elif first_time != base:
            handle._current = self.schedule_at(first_time, handle._fire)
        else:
            handle._current = self.schedule(delay, handle._fire)
        return handle

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def clear(self) -> None:
        """Drop every queued event without running it.

        ``pending`` reads 0 afterwards.  A dropped handle counts as
        dequeued, so cancelling it later changes nothing, and lets go of
        its callback, arguments and scheduler: whoever still holds it
        (an operation's retry timer, a repeating chain) is no longer tied
        by it into a reference cycle.
        """
        queue, self._queue = self._queue, []
        self._live = 0
        for entry in queue:
            if len(entry) == 3:
                handle = entry[2]
                handle._dequeued = True
                handle.callback, handle.args, handle._owner = None, (), None

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            entry = _heappop(queue)
            if len(entry) == 4:
                time, _seq, callback, args = entry
            else:
                time, _seq, handle = entry
                handle._dequeued = True
                if handle.cancelled:
                    continue
                callback, args = handle.callback, handle.args
            self._live -= 1
            self._now = time
            self._events_processed += 1
            callback(*args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run events until the queue drains or a limit is reached.

        :param until: stop once simulated time would exceed this value.
        :param max_events: stop after this many events (guards runaway sims).
        :param stop_when: predicate checked after every event.
        :returns: the simulated time at which the run stopped.
        """
        self._stopped = False
        executed = 0
        queue = self._queue
        unbounded = until is None and max_events is None and stop_when is None
        if unbounded:
            # Fast drain loop: no limit checks, one pop per event, the
            # event body inlined (run() is the hot loop of every
            # simulation; a step() call per event is measurable).
            while queue:
                if self._stopped:
                    break
                entry = _heappop(queue)
                if len(entry) == 4:
                    time, _seq, callback, args = entry
                else:
                    time, _seq, handle = entry
                    handle._dequeued = True
                    if handle.cancelled:
                        continue
                    callback = handle.callback
                    args = handle.args
                self._live -= 1
                self._now = time
                self._events_processed += 1
                callback(*args)
            return self._now
        while queue:
            if self._stopped:
                break
            head = queue[0]
            if len(head) == 4:
                head_time, _seq, callback, args = head
            else:
                head_time, _seq, handle = head
                if handle.cancelled:
                    handle._dequeued = True
                    _heappop(queue)
                    continue
                callback = handle.callback
                args = handle.args
            if until is not None and head_time > until:
                self._now = until
                break
            if max_events is not None and executed >= max_events:
                break
            _heappop(queue)
            if len(head) == 3:
                head[2]._dequeued = True
            self._live -= 1
            self._now = head_time
            self._events_processed += 1
            callback(*args)
            executed += 1
            if stop_when is not None and stop_when():
                break
        return self._now
