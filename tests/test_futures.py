"""Tests for futures and gather.

Every test takes the future class under test from the ``impl`` fixture:
the Python reference, :class:`repro.sim.futures.Future`, at module level;
:class:`TestNative` re-runs them all with the native kernel's ``Future``,
which :func:`~repro.sim.futures.gather` hands to the C countdown.
"""

import math
import time
import types

import pytest

from repro._native import load_kernel
from repro.sim.futures import FUTURE_TYPES, Future, FutureError, gather
from tests.conftest import needs_native


@pytest.fixture
def impl():
    """The future class under test (the Python reference here)."""
    return Future


def test_future_starts_pending(impl):
    fut = impl("f")
    assert not fut.done
    assert not fut.failed


def test_resolve_sets_result(impl):
    fut = impl()
    fut.resolve(42)
    assert fut.done
    assert fut.result() == 42


def test_result_before_resolve_raises(impl):
    fut = impl("pending")
    with pytest.raises(FutureError, match="future 'pending' is not resolved"):
        fut.result()


def test_double_resolve_raises(impl):
    fut = impl("twice")
    fut.resolve(1)
    with pytest.raises(FutureError, match="future 'twice' resolved twice"):
        fut.resolve(2)


def test_fail_then_result_raises_original(impl):
    fut = impl()
    fut.fail(ValueError("boom"))
    assert fut.failed
    with pytest.raises(ValueError, match="boom"):
        fut.result()


def test_fail_after_resolve_raises(impl):
    fut = impl()
    fut.resolve(1)
    with pytest.raises(FutureError, match="resolved twice"):
        fut.fail(RuntimeError("late"))


def test_callback_runs_on_resolve(impl):
    fut = impl()
    seen = []
    fut.add_callback(lambda f: seen.append(f.result()))
    fut.resolve("value")
    assert seen == ["value"]


def test_callback_on_already_resolved_runs_immediately(impl):
    fut = impl()
    fut.resolve(7)
    seen = []
    fut.add_callback(lambda f: seen.append(f.result()))
    assert seen == [7]


def test_callbacks_run_in_registration_order(impl):
    fut = impl()
    order = []
    fut.add_callback(lambda f: order.append(1))
    fut.add_callback(lambda f: order.append(2))
    fut.add_callback(lambda f: order.append(3))
    fut.resolve(None)
    assert order == [1, 2, 3]


def test_gather_collects_in_input_order(impl):
    futures = [impl(str(i)) for i in range(3)]
    combined = gather(futures)
    futures[2].resolve("c")
    futures[0].resolve("a")
    assert not combined.done
    futures[1].resolve("b")
    assert combined.done
    assert combined.result() == ["a", "b", "c"]


def test_gather_empty_resolves_immediately(impl):
    combined = gather([])
    assert combined.done
    assert combined.result() == []


def test_gather_propagates_failure(impl):
    futures = [impl(), impl()]
    combined = gather(futures)
    futures[0].fail(RuntimeError("dead"))
    assert combined.done
    assert combined.failed
    with pytest.raises(RuntimeError, match="dead"):
        combined.result()
    # Late resolutions of other members are harmless.
    futures[1].resolve("ok")


def test_gather_with_pre_resolved_inputs(impl):
    done = impl()
    done.resolve(1)
    pending = impl()
    combined = gather([done, pending])
    assert not combined.done
    pending.resolve(2)
    assert combined.result() == [1, 2]


# --------------------------------------------------------------------- #
# gather's contract
# --------------------------------------------------------------------- #


def test_gather_fails_with_first_failure_observed(impl):
    futures = [impl(str(i)) for i in range(4)]
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


def test_gather_sees_inputs_that_failed_before_the_call(impl):
    resolved, failed_early, failed_late = impl(), impl(), impl()
    resolved.resolve(1)
    failed_early.fail(ValueError("early"))
    failed_late.fail(ValueError("late"))
    # Callbacks run at registration, in input order: the first failed
    # input in the list wins, although a resolved one precedes it.
    combined = gather([resolved, failed_early, failed_late, impl()])
    assert combined.failed
    assert str(combined.exception) == "early"


def test_gather_never_resolves_once_an_input_failed(impl):
    futures = [impl(), impl()]
    combined = gather(futures)
    seen = []
    combined.add_callback(seen.append)
    futures[1].fail(KeyError("gone"))
    futures[0].resolve("late")
    assert seen == [combined]  # settled exactly once, by the failure
    assert isinstance(combined.exception, KeyError)


def test_gather_takes_the_inputs_future_class(impl):
    """The inputs' class picks the countdown: the combined future is of
    the inputs' class, and a mixed list takes the Python gather."""
    futures = [impl("a"), impl("b")]
    combined = gather(futures, label="both")
    assert type(combined) is impl and combined.label == "both"
    assert isinstance(combined, FUTURE_TYPES)
    mixed = gather([futures[0], Future("python")])
    assert type(mixed) is Future
    futures[0].resolve(1)
    futures[1].resolve(2)
    assert combined.result() == [1, 2] and not mixed.done


def test_a_raising_callback_stops_the_rest(impl):
    fut = impl("f")
    seen = []

    def boom(settled):
        raise KeyError("boom")

    fut.add_callback(seen.append)
    fut.add_callback(boom)
    fut.add_callback(seen.append)
    with pytest.raises(KeyError):
        fut.resolve(1)
    assert seen == [fut] and fut.done
    assert repr(fut) == "Future('f', done(1))"


def test_an_operation_label_is_formatted_when_read(impl):
    fut = impl(("write", "X3", 2))
    assert repr(fut) == "Future('write(X3) by c2', pending)"
    assert fut.label == "write(X3) by c2"
    fut.resolve(None)
    with pytest.raises(FutureError,
                       match=r"^future 'write\(X3\) by c2' resolved twice$"):
        fut.resolve(None)


def test_discard_drops_the_callbacks(impl):
    fut = impl("f")
    seen = []
    fut.add_callback(seen.append)
    fut.discard()
    fut.resolve(1)
    assert seen == [] and fut.result() == 1


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


@needs_native
class TestNative:
    """Every module-level test above, against the native ``Future`` (and
    so the native gather countdown), plus the native-only checks."""

    @pytest.fixture
    def impl(self):
        return load_kernel().Future

    @pytest.mark.parametrize("fail_last", [False, True])
    def test_gather_settling_m_inputs_is_linear_work(self, impl, fail_last):
        """The countdown's scaling guard, on time (C reads no Python
        attributes to count): settling m inputs costs O(m) in total, so
        the per-input cost at m = 20 000 stays within a small factor of
        that at m = 200; a rescan of every input per settlement would
        make it about 100 times larger."""

        def per_input(m):
            best = math.inf
            for _ in range(5):
                futures = [impl(str(i)) for i in range(m)]
                combined = gather(futures)
                start = time.perf_counter()
                for fut in futures[:-1]:
                    fut.resolve(None)
                if fail_last:
                    futures[-1].fail(RuntimeError("last"))
                else:
                    futures[-1].resolve(None)
                best = min(best, (time.perf_counter() - start) / m)
                assert combined.done and combined.failed == fail_last
            return best

        assert per_input(20_000) < 10 * per_input(200)

    def test_pending_op_fields_are_the_python_slots(self):
        from repro.registers.client import _PendingOp

        fields = tuple(
            name for name, attr in vars(load_kernel().PendingOp).items()
            if isinstance(attr, types.GetSetDescriptorType)
        )
        assert fields == _PendingOp.__slots__


for _name, _test in list(globals().items()):
    if _name.startswith("test_") and not hasattr(TestNative, _name):
        setattr(TestNative, _name, staticmethod(_test))
