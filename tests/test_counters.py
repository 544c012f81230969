"""The int64 counter-field contract (``repro.sim.metrics.counter_type``).

Every counter a native core bumps — ``MessageStats``' totals, the replica
server's and the register client's per-operation counters — is an int64
field of a counter base: the C ``counter_type`` when the extension is
built, a pure-Python twin otherwise.  Both flavours must behave as a
Python int under ``+=``, ``add`` (the bump Python code makes) and
assignment within the int64 range, refuse a value outside it with
``OverflowError``, and read back as plain ints; a core's in-place bump
and a Python bump of the same field must add up.
"""

import types
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timestamps import Timestamp
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.deployment import RegisterDeployment
from repro.registers.messages import ReadQuery, WriteUpdate
from repro.sim import kernel
from repro.sim.delays import ConstantDelay
from repro.sim.metrics import (
    INT64_MAX,
    INT64_MIN,
    MessageStats,
    _twin_counter_type,
    counter_type,
)
from tests.conftest import backend_param, needs_native

FIELDS = ("hits", "misses")


#: The two flavours: the pure-Python twin, and the C type that
#: ``counter_type`` gives with the extension built.
FLAVOURS = {"twin": _twin_counter_type, "native": counter_type}


@pytest.fixture(scope="module", params=[
    pytest.param("twin"),
    pytest.param("native", marks=needs_native),
])
def counters(request):
    """A class on a counter base of each flavour, as the shipped classes
    are built (its ``__init__`` zeroes the fields)."""
    base = FLAVOURS[request.param]("tests.Counted", FIELDS)

    class Counted(base):
        __slots__ = ("other",)
        twin = request.param == "twin"

        def __init__(self):
            self.hits = 0
            self.misses = 0

    return Counted


def int64s():
    return st.integers(INT64_MIN, INT64_MAX)


def test_each_flavour_is_the_one_asked_for(counters):
    base = counters.__mro__[1]
    assert base._counter_fields == FIELDS
    assert (base.__module__, base.__name__) == ("tests", "Counted")
    expected = property if counters.twin else types.MemberDescriptorType
    assert all(type(vars(base)[name]) is expected for name in FIELDS)
    assert counters().hits == 0 and type(counters().misses) is int


@given(x=st.integers())
def test_assignment_holds_an_int64_and_refuses_the_rest(counters, x):
    counted = counters()
    fits = INT64_MIN <= x <= INT64_MAX
    with nullcontext() if fits else pytest.raises(OverflowError):
        counted.hits = x
    if fits:
        assert counted.hits == x and type(counted.hits) is int
    assert counted.misses == 0


@given(x=int64s(), y=int64s())
def test_iadd_matches_python_ints_up_to_the_bounds(counters, x, y):
    counted = counters()
    counted.hits = x
    if INT64_MIN <= x + y <= INT64_MAX:
        counted.hits += y
        assert counted.hits == x + y
    else:
        with pytest.raises(OverflowError):
            counted.hits += y


@given(x=int64s(), y=int64s())
def test_add_matches_python_ints_and_keeps_the_field_on_overflow(
        counters, x, y):
    counted = counters()
    counted.hits = x
    if INT64_MIN <= x + y <= INT64_MAX:
        counted.add("hits", y)
        assert counted.hits == x + y and type(counted.hits) is int
    else:
        with pytest.raises(OverflowError):
            counted.add("hits", y)
        assert counted.hits == x
    counted.add("misses")
    assert counted.misses == 1


def test_add_refuses_what_is_not_a_counter_field(counters):
    flavour = FLAVOURS["twin" if counters.twin else "native"]
    foreign = flavour("tests.Foreign", ("x", "y", "z", "borrowed"))

    class WithDict(counters):
        """A subclass with a ``__dict__``, as the shipped nodes have, and
        another counter type's field in its namespace."""
        borrowed = vars(foreign)["borrowed"]

    for counted in (counters(), WithDict()):
        counted.other = 5
        for name in ("other", "nothing", "borrowed", 7):
            with pytest.raises(TypeError):
                counted.add(name)
        with pytest.raises(TypeError):
            counted.add("hits", 1.5)
        assert (counted.hits, counted.other) == (0, 5)
    with_dict = WithDict()
    with_dict.plain = 7
    with pytest.raises(TypeError):
        with_dict.add("plain")
    assert vars(with_dict) == {"plain": 7}


def test_the_bounds_themselves_are_held(counters):
    counted = counters()
    counted.hits = INT64_MAX
    counted.misses = INT64_MIN
    assert (counted.hits, counted.misses) == (INT64_MAX, INT64_MIN)
    with pytest.raises(OverflowError):
        counted.hits += 1
    with pytest.raises(OverflowError):
        counted.misses -= 1
    with pytest.raises(TypeError):
        counted.hits = 1.0


def test_the_shipped_classes_sit_on_one_flavour():
    """With the extension built every shipped counter base is the C type;
    the twin is what a build without it gets."""
    from repro.registers.client import ClientCounters
    from repro.registers.server import ServerCounters
    from repro.sim.metrics import MessageCounters

    for base in (MessageCounters, ServerCounters, ClientCounters):
        twin = isinstance(vars(base)[base._counter_fields[0]], property)
        assert twin == (not kernel.native_available()), base


def _wired_server(backend):
    with kernel.use_backend(backend):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(6, 2), num_clients=1,
            delay_model=ConstantDelay(1.0), seed=1, detailed_stats=False,
        )
    deployment.declare_register("x", writer=None)
    return deployment


@pytest.mark.parametrize("backend", [backend_param(b)
                                     for b in kernel.BACKENDS])
@settings(max_examples=25, deadline=None)
@given(start=st.integers(0, INT64_MAX // 2), reads=st.integers(0, 40),
       writes=st.integers(0, 40), extra=st.integers(-1000, 1000))
def test_handler_bumps_and_python_bumps_add_up(backend, start, reads,
                                               writes, extra):
    """The server's handler (the C core on native, the Python method on
    python) bumps ``reads_served`` / ``writes_applied`` /
    ``stale_updates_ignored`` and the network stats' ``sent`` per reply;
    Python bumps of the same fields in between are neither lost nor
    doubled."""
    deployment = _wired_server(backend)
    server = deployment.servers[0]
    stats = deployment.network.stats
    src = deployment.clients[0].node_id
    assert type(stats) is MessageStats and not stats.detailed
    core = type(vars(server).get("on_message")).__name__
    assert core == ("ServerCore" if backend == "native" else "NoneType")
    server.reads_served = start
    stats.sent = start
    for op_id in range(reads):
        server.on_message(src, ReadQuery("x", op_id, 0))
    server.reads_served += extra
    stats.add("sent", extra)
    for op_id in range(writes):
        stamp = Timestamp(1 + op_id // 2, 0)
        server.on_message(src, WriteUpdate("x", op_id, op_id, stamp, 0))
    assert server.reads_served == start + reads + extra
    assert server.writes_applied + server.stale_updates_ignored == writes
    assert server.writes_applied == (writes + 1) // 2
    assert stats.sent == start + extra + reads + writes
