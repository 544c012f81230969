"""The spec codec (repro.specs): one table-driven check over every family.

Every ``KINDS`` entry (plus the kind-less retry spec) has a minimal valid
spec below holding exactly its required keys.  Each must build; an unknown
key, each required key dropped, or an unknown kind must raise SpecError
naming the family, the kind and the key.
"""

import pytest

from repro import quorum, specs
from repro.adversary import strategies
from repro.apps import graphs
from repro.chaos import broken
from repro.membership import schedule as membership_schedule
from repro.membership.schedule import MembershipEvent
from repro.registers.client import RetryPolicy
from repro.sim import arrivals, delays, failures
from repro.sim.failures import FailureEvent
from repro.specs import SpecError

#: The run-level values workers and service mode pass to every build.
CONTEXT = {"num_servers": 6, "horizon": 50.0}

#: family -> (table, {kind: minimal spec without its "kind"}).
FAMILIES = {
    "graph": (graphs.KINDS, {
        "chain": {"n": 4},
        "ring": {"n": 4},
        "complete": {"n": 3},
        "grid": {"rows": 2, "cols": 3},
        "random": {"n": 5, "p": 0.3, "seed": 1},
    }),
    "quorum": (quorum.KINDS, {
        "probabilistic": {"n": 6, "k": 2},
        "majority": {"n": 5},
        "grid": {"rows": 2, "cols": 3},
        "grid_square": {"n": 9},
    }),
    "delay": (delays.KINDS, {
        "constant": {},
        "exponential": {},
        "uniform": {},
        "lognormal": {},
    }),
    "faults": (failures.KINDS, {
        "crash_batch": {"time": 5.0, "count": 2, "side": 2},
        "churn": {"period": 10.0, "batch": 2, "outage": 3.0},
        "schedule": {"events": [{"time": 1.0, "action": "crash", "nodes": [0]}]},
    }),
    "membership": (membership_schedule.KINDS, {
        "churn": {"period": 10.0},
        "schedule": {"events": [{"time": 1.0, "action": "join", "nodes": [6]}]},
    }),
    "arrivals": (arrivals.KINDS, {
        "poisson": {"rate": 2.0},
        "bursty": {"rate": 2.0},
        "diurnal": {"rate": 2.0},
    }),
    "adversary": (strategies.KINDS, {
        "stale_favoring": {},
        "random_hostile": {},
        "partition_oscillator": {},
        "crash_targeter": {},
        "view_change_racer": {},
    }),
    "broken_client": (broken.KINDS, {"regressing": {}}),
}

CASES = [
    (family, kind, minimal)
    for family, (_, minimal_specs) in FAMILIES.items()
    for kind, minimal in minimal_specs.items()
] + [("retry", None, {"interval": 1.0})]


def _build(family, kind, args):
    if kind is None:
        return specs.build(family, RetryPolicy, args, **CONTEXT)
    kinds = FAMILIES[family][0]
    return specs.build(family, kinds, {"kind": kind, **args}, **CONTEXT)


def _prefix(family, kind):
    return f"{family} spec" + ("" if kind is None else f" {kind!r}")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_kind_has_a_case(family):
    kinds, minimal_specs = FAMILIES[family]
    assert set(minimal_specs) == set(kinds)


@pytest.mark.parametrize(
    "family, kind, minimal", CASES,
    ids=[f"{family}-{kind}" for family, kind, _ in CASES],
)
class TestCodec:
    def test_minimal_spec_builds(self, family, kind, minimal):
        assert _build(family, kind, dict(minimal)) is not None

    def test_unknown_key_is_named(self, family, kind, minimal):
        with pytest.raises(SpecError) as caught:
            _build(family, kind, {**minimal, "typo": 1})
        assert str(caught.value).startswith(
            f"{_prefix(family, kind)}: unknown key 'typo'"
        )

    def test_each_required_key_is_named_when_dropped(
        self, family, kind, minimal
    ):
        for key in minimal:
            args = {name: value for name, value in minimal.items() if name != key}
            with pytest.raises(SpecError) as caught:
                _build(family, kind, args)
            assert str(caught.value) == (
                f"{_prefix(family, kind)}: missing key {key!r}"
            )

@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_unknown_kind_is_named(family):
    with pytest.raises(SpecError, match=f"^{family} spec: unknown kind 'nope'"):
        specs.build(family, FAMILIES[family][0], {"kind": "nope"})


@pytest.mark.parametrize("spec", [None, [], {"n": 4}, {"kind": ["chain"]}])
def test_a_spec_without_a_string_kind_is_rejected(spec):
    with pytest.raises(SpecError, match="^graph spec"):
        specs.build("graph", graphs.KINDS, spec)


def test_constructor_errors_carry_the_prefix():
    with pytest.raises(SpecError, match="^graph spec 'ring': ring needs"):
        specs.build("graph", graphs.KINDS, {"kind": "ring", "n": 1})
    with pytest.raises(SpecError, match="^retry spec: retry interval"):
        specs.build("retry", RetryPolicy, {"interval": 0.0})


@pytest.mark.parametrize(
    "event_class, spec",
    [
        (FailureEvent, {"time": 1.0, "action": "crash", "typo": 1}),
        (MembershipEvent, {"time": 1.0, "action": "join", "nodes": [4], "typo": 1}),
    ],
    ids=["failure", "membership"],
)
def test_event_records_check_their_keys(event_class, spec):
    with pytest.raises(SpecError, match="unknown key 'typo'"):
        event_class.from_spec(spec)
