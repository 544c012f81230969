"""Tests for the discrete-event scheduler."""

import pytest

from repro.sim.scheduler import Scheduler, SchedulerError


def test_starts_at_time_zero(scheduler):
    assert scheduler.now == 0.0


def test_runs_event_at_scheduled_time(scheduler):
    fired = []
    scheduler.schedule(2.5, lambda: fired.append(scheduler.now))
    scheduler.run()
    assert fired == [2.5]


def test_events_run_in_time_order(scheduler):
    order = []
    scheduler.schedule(3.0, order.append, "c")
    scheduler.schedule(1.0, order.append, "a")
    scheduler.schedule(2.0, order.append, "b")
    scheduler.run()
    assert order == ["a", "b", "c"]


def test_ties_broken_by_scheduling_order(scheduler):
    order = []
    scheduler.schedule(1.0, order.append, "first")
    scheduler.schedule(1.0, order.append, "second")
    scheduler.schedule(1.0, order.append, "third")
    scheduler.run()
    assert order == ["first", "second", "third"]


def test_callback_args_passed(scheduler):
    received = []
    scheduler.schedule(1.0, lambda a, b: received.append((a, b)), 1, "x")
    scheduler.run()
    assert received == [(1, "x")]


def test_negative_delay_rejected(scheduler):
    with pytest.raises(SchedulerError):
        scheduler.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected(scheduler):
    scheduler.schedule(5.0, lambda: None)
    scheduler.run()
    assert scheduler.now == 5.0
    with pytest.raises(SchedulerError):
        scheduler.schedule_at(3.0, lambda: None)


def test_cancelled_event_does_not_fire(scheduler):
    fired = []
    handle = scheduler.schedule(1.0, fired.append, "x")
    handle.cancel()
    scheduler.run()
    assert fired == []


def test_cancel_is_idempotent(scheduler):
    handle = scheduler.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    scheduler.run()


def test_events_scheduled_during_events_run(scheduler):
    order = []

    def outer():
        order.append("outer")
        scheduler.schedule(1.0, lambda: order.append("inner"))

    scheduler.schedule(1.0, outer)
    scheduler.run()
    assert order == ["outer", "inner"]
    assert scheduler.now == 2.0


def test_call_soon_runs_at_current_time(scheduler):
    times = []
    scheduler.schedule(4.0, lambda: scheduler.call_soon(
        lambda: times.append(scheduler.now)))
    scheduler.run()
    assert times == [4.0]


def test_run_until_stops_clock(scheduler):
    fired = []
    scheduler.schedule(1.0, fired.append, "early")
    scheduler.schedule(10.0, fired.append, "late")
    end = scheduler.run(until=5.0)
    assert fired == ["early"]
    assert end == 5.0
    # Continuing the run executes the remaining event.
    scheduler.run()
    assert fired == ["early", "late"]


def test_run_max_events(scheduler):
    fired = []
    for i in range(5):
        scheduler.schedule(float(i + 1), fired.append, i)
    scheduler.run(max_events=2)
    assert fired == [0, 1]


def test_run_stop_when_predicate(scheduler):
    fired = []
    for i in range(5):
        scheduler.schedule(float(i + 1), fired.append, i)
    scheduler.run(stop_when=lambda: len(fired) >= 3)
    assert fired == [0, 1, 2]


def test_stop_inside_event(scheduler):
    fired = []

    def first():
        fired.append("a")
        scheduler.stop()

    scheduler.schedule(1.0, first)
    scheduler.schedule(2.0, fired.append, "b")
    scheduler.run()
    assert fired == ["a"]
    # The second event remains queued.
    assert scheduler.pending == 1


def test_events_processed_counter(scheduler):
    for i in range(3):
        scheduler.schedule(1.0, lambda: None)
    scheduler.run()
    assert scheduler.events_processed == 3


def test_pending_excludes_cancelled(scheduler):
    handle = scheduler.schedule(1.0, lambda: None)
    scheduler.schedule(2.0, lambda: None)
    handle.cancel()
    assert scheduler.pending == 1


def test_step_returns_false_when_empty(scheduler):
    assert scheduler.step() is False


def test_run_on_empty_queue_runs_nothing(scheduler):
    assert scheduler.run(max_events=1) == 0.0
    assert scheduler.events_processed == 0


def test_clock_never_goes_backwards(scheduler):
    times = []
    scheduler.schedule(5.0, lambda: times.append(scheduler.now))
    scheduler.schedule(1.0, lambda: times.append(scheduler.now))
    scheduler.schedule(3.0, lambda: times.append(scheduler.now))
    scheduler.run()
    assert times == sorted(times)


# --- pending counter (O(1) live count) -------------------------------------


def test_pending_counts_down_as_events_run(scheduler):
    for i in range(5):
        scheduler.schedule(float(i + 1), lambda: None)
    assert scheduler.pending == 5
    scheduler.run(max_events=1)
    assert scheduler.pending == 4
    scheduler.run()
    assert scheduler.pending == 0


def test_cancel_is_idempotent_for_pending(scheduler):
    handle = scheduler.schedule(1.0, lambda: None)
    scheduler.schedule(2.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert scheduler.pending == 1


def test_cancel_after_execution_does_not_corrupt_pending(scheduler):
    handle = scheduler.schedule(1.0, lambda: None)
    scheduler.schedule(2.0, lambda: None)
    scheduler.run(max_events=1)  # executes the first event
    handle.cancel()   # stale cancel of an already-run event: no-op
    assert scheduler.pending == 1
    scheduler.run()
    assert scheduler.pending == 0


def _queue_scan(scheduler):
    """Count live events by scanning the heap's (time, seq, handle) tuples."""
    return sum(
        1 for _time, _seq, handle in scheduler._queue if not handle.cancelled
    )


def test_pending_matches_queue_scan(scheduler):
    # The live counter must agree with an explicit scan of the heap.
    handles = [scheduler.schedule(float(i + 1), lambda: None)
               for i in range(10)]
    for handle in handles[::3]:
        handle.cancel()
    assert scheduler.pending == _queue_scan(scheduler)


def test_queue_entries_are_time_seq_handle_tuples(scheduler):
    # The heap stores (time, seq, handle) so sift comparisons use C-level
    # tuple ordering; seq breaks every tie, so handles are never compared.
    handle = scheduler.schedule(1.5, lambda: None)
    ((time, seq, entry_handle),) = scheduler._queue
    assert time == 1.5
    assert seq == handle.seq
    assert entry_handle is handle


# --- pending under heavy cancel/requeue churn ------------------------------


def test_pending_under_cancel_requeue_churn(scheduler):
    # Interleave scheduling, cancelling and running so lazily-cancelled
    # entries pile up in the heap, then check the O(1) counter against a
    # scan at every step.
    import random

    rand = random.Random(42)
    live_handles = []
    for step in range(300):
        action = rand.random()
        if action < 0.5 or not live_handles:
            live_handles.append(
                scheduler.schedule(rand.random() * 5.0, lambda: None)
            )
        elif action < 0.8:
            victim = live_handles.pop(rand.randrange(len(live_handles)))
            victim.cancel()
            victim.cancel()  # idempotent double-cancel must not double-count
        else:
            scheduler.run(max_events=1)
            live_handles = [h for h in live_handles if not h._dequeued]
        assert scheduler.pending == _queue_scan(scheduler)
    scheduler.run()
    assert scheduler.pending == 0
    assert _queue_scan(scheduler) == 0


def test_pending_with_repeating_handle_cancelled_mid_chain(scheduler):
    # A repeating chain keeps exactly one live event queued; cancelling
    # the chain removes it from the live count exactly once.
    fired = []
    repeating = scheduler.schedule_repeating(1.0, fired.append, "tick")
    assert scheduler.pending == 1
    scheduler.run(max_events=3)
    assert fired == ["tick"] * 3
    assert scheduler.pending == 1  # the next occurrence is queued
    repeating.cancel()
    assert scheduler.pending == 0
    repeating.cancel()  # idempotent
    assert scheduler.pending == 0
    scheduler.run()
    assert fired == ["tick"] * 3


def test_pending_cancel_after_pop_of_repeating_chain(scheduler):
    # Cancel a repeating chain from inside its own callback: the firing
    # event was already popped, and the freshly-requeued occurrence must
    # be the one removed from the live count.
    fired = []
    handle_box = {}

    def tick():
        fired.append(scheduler.now)
        if len(fired) == 2:
            handle_box["handle"].cancel()

    handle_box["handle"] = scheduler.schedule_repeating(1.0, tick)
    scheduler.run(max_events=50)
    assert len(fired) == 2
    assert scheduler.pending == 0
    assert _queue_scan(scheduler) == 0


def test_pending_mass_cancel_then_requeue(scheduler):
    # Cancel an entire batch, requeue a new batch at the same times, and
    # drain: the counter must track the live entries, not the heap size.
    first = [scheduler.schedule(float(i % 7) + 0.5, lambda: None)
             for i in range(50)]
    for handle in first:
        handle.cancel()
    assert scheduler.pending == 0
    assert len(scheduler._queue) == 50  # lazily-cancelled entries remain
    second = [scheduler.schedule(float(i % 7) + 0.5, lambda: None)
              for i in range(25)]
    assert scheduler.pending == 25
    assert scheduler.pending == _queue_scan(scheduler)
    scheduler.run(max_events=1)
    assert scheduler.pending == 24
    for handle in second:
        handle.cancel()  # includes a stale cancel of the popped event
    assert scheduler.pending == 0
    scheduler.run()
    assert scheduler.pending == 0


class TestRepeatingHorizonBoundary:
    """schedule_repeating(until=...) must include an occurrence landing
    exactly at the horizon — once, deterministically (the rule view
    installs at sweep boundaries rely on)."""

    def test_integer_multiple_fires_at_horizon(self, scheduler):
        fired = []
        scheduler.schedule_repeating(
            5.0, lambda: fired.append(scheduler.now), until=10.0
        )
        scheduler.run()
        assert fired == [5.0, 10.0]

    def test_first_delay_exactly_at_horizon_fires_once(self, scheduler):
        fired = []
        scheduler.schedule_repeating(
            5.0, lambda: fired.append(scheduler.now),
            first_delay=10.0, until=10.0,
        )
        scheduler.run()
        assert fired == [10.0]

    def test_float_drift_occurrence_snapped_to_horizon(self, scheduler):
        # 0.2 + 2 * 0.2 overshoots 0.6 by one ulp; the occurrence used to
        # be dropped entirely.  It must fire, at exactly t == until.
        fired = []
        scheduler.schedule_repeating(
            0.2, lambda: fired.append(scheduler.now), until=0.6
        )
        scheduler.run()
        assert fired == [0.2, 0.4, 0.6]
        assert fired[-1] == 0.6  # snapped, not 0.6000000000000001

    def test_genuine_overshoot_still_excluded(self, scheduler):
        fired = []
        scheduler.schedule_repeating(
            2.0, lambda: fired.append(scheduler.now), until=7.0
        )
        scheduler.run()
        assert fired == [2.0, 4.0, 6.0]

    def test_past_horizon_never_fires(self, scheduler):
        fired = []
        handle = scheduler.schedule_repeating(
            2.0, lambda: fired.append(scheduler.now),
            first_delay=8.0, until=7.0,
        )
        scheduler.run()
        assert fired == []
        assert handle.cancelled
