"""Tests for futures and gather."""

import pytest

from repro.sim.futures import Future, FutureError, gather


def test_future_starts_pending():
    fut = Future("f")
    assert not fut.done
    assert not fut.failed


def test_resolve_sets_result():
    fut = Future()
    fut.resolve(42)
    assert fut.done
    assert fut.result() == 42


def test_result_before_resolve_raises():
    fut = Future("pending")
    with pytest.raises(FutureError):
        fut.result()


def test_double_resolve_raises():
    fut = Future()
    fut.resolve(1)
    with pytest.raises(FutureError):
        fut.resolve(2)


def test_fail_then_result_raises_original():
    fut = Future()
    fut.fail(ValueError("boom"))
    assert fut.failed
    with pytest.raises(ValueError, match="boom"):
        fut.result()


def test_fail_after_resolve_raises():
    fut = Future()
    fut.resolve(1)
    with pytest.raises(FutureError):
        fut.fail(RuntimeError("late"))


def test_callback_runs_on_resolve():
    fut = Future()
    seen = []
    fut.add_callback(lambda f: seen.append(f.result()))
    fut.resolve("value")
    assert seen == ["value"]


def test_callback_on_already_resolved_runs_immediately():
    fut = Future()
    fut.resolve(7)
    seen = []
    fut.add_callback(lambda f: seen.append(f.result()))
    assert seen == [7]


def test_callbacks_run_in_registration_order():
    fut = Future()
    order = []
    fut.add_callback(lambda f: order.append(1))
    fut.add_callback(lambda f: order.append(2))
    fut.add_callback(lambda f: order.append(3))
    fut.resolve(None)
    assert order == [1, 2, 3]


def test_gather_collects_in_input_order():
    futures = [Future(str(i)) for i in range(3)]
    combined = gather(futures)
    futures[2].resolve("c")
    futures[0].resolve("a")
    assert not combined.done
    futures[1].resolve("b")
    assert combined.done
    assert combined.result() == ["a", "b", "c"]


def test_gather_empty_resolves_immediately():
    combined = gather([])
    assert combined.done
    assert combined.result() == []


def test_gather_propagates_failure():
    futures = [Future(), Future()]
    combined = gather(futures)
    futures[0].fail(RuntimeError("dead"))
    assert combined.done
    assert combined.failed
    with pytest.raises(RuntimeError, match="dead"):
        combined.result()
    # Late resolutions of other members are harmless.
    futures[1].resolve("ok")


def test_gather_with_pre_resolved_inputs():
    done = Future()
    done.resolve(1)
    pending = Future()
    combined = gather([done, pending])
    assert not combined.done
    pending.resolve(2)
    assert combined.result() == [1, 2]


# --------------------------------------------------------------------- #
# gather's contract
# --------------------------------------------------------------------- #


def test_gather_fails_with_first_failure_observed():
    futures = [Future(str(i)) for i in range(4)]
    combined = gather(futures)
    futures[3].resolve("d")
    assert not combined.done
    futures[2].fail(RuntimeError("first"))
    assert combined.failed
    # Later failures — even of an input earlier in the list — and later
    # resolutions change nothing once the combined future has settled.
    futures[0].fail(RuntimeError("second"))
    futures[1].resolve("b")
    with pytest.raises(RuntimeError, match="first"):
        combined.result()


def test_gather_sees_inputs_that_failed_before_the_call():
    resolved, failed_early, failed_late = Future(), Future(), Future()
    resolved.resolve(1)
    failed_early.fail(ValueError("early"))
    failed_late.fail(ValueError("late"))
    # Callbacks run at registration, in input order: the first failed
    # input in the list wins, although a resolved one precedes it.
    combined = gather([resolved, failed_early, failed_late, Future()])
    assert combined.failed
    assert str(combined.exception) == "early"


def test_gather_never_resolves_once_an_input_failed():
    futures = [Future(), Future()]
    combined = gather(futures)
    seen = []
    combined.add_callback(seen.append)
    futures[1].fail(KeyError("gone"))
    futures[0].resolve("late")
    assert seen == [combined]  # settled exactly once, by the failure
    assert isinstance(combined.exception, KeyError)


class _CountingFuture(Future):
    """A future that counts every attribute read made on it."""

    __slots__ = ()
    reads = 0

    def __getattribute__(self, name):
        _CountingFuture.reads += 1
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("fail_last", [False, True])
def test_gather_settling_m_inputs_is_linear_work(fail_last):
    """Scaling guard on work, not wall time: settling m inputs may read
    the inputs' attributes O(m) times in total.  Rescanning every input
    on every settlement is quadratic (about 140 000 reads at m = 200)."""
    m = 200
    futures = [_CountingFuture(str(i)) for i in range(m)]
    combined = gather(futures)
    before = _CountingFuture.reads
    for fut in futures[:-1]:
        fut.resolve(fut.label)
    if fail_last:
        futures[-1].fail(RuntimeError("last"))
        assert combined.failed
    else:
        futures[-1].resolve(futures[-1].label)
        assert combined.result() == [str(i) for i in range(m)]
    # Settling a future reads a dozen of its own slots (resolve, the
    # callback hand-over, gather's verdict); none of that grows with m.
    assert _CountingFuture.reads - before <= 16 * m
