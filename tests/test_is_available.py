"""Tests for the structural availability predicates (is_available)."""

import itertools

import pytest

from repro.quorum.fpp import FppQuorumSystem
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.quorum.singleton import SingletonQuorumSystem
from repro.quorum.tree import TreeQuorumSystem

ENUMERABLE_SYSTEMS = [
    MajorityQuorumSystem(5),
    GridQuorumSystem(2, 3),
    FppQuorumSystem(2),
    TreeQuorumSystem(7),
    SingletonQuorumSystem(4, coordinator=2),
]


@pytest.mark.parametrize(
    "system", ENUMERABLE_SYSTEMS, ids=lambda s: type(s).__name__
)
def test_structural_predicate_matches_enumeration(system):
    """is_available must agree with brute-force quorum enumeration on
    every possible alive-set of a small universe."""
    quorums = list(system.enumerate_quorums())
    for size in range(system.n + 1):
        for combo in itertools.combinations(range(system.n), size):
            alive = frozenset(combo)
            truth = any(quorum <= alive for quorum in quorums)
            assert system.is_available(alive) == truth, (
                type(system).__name__, sorted(alive)
            )


def test_probabilistic_threshold():
    system = ProbabilisticQuorumSystem(10, 4)
    assert system.is_available(frozenset(range(4)))
    assert not system.is_available(frozenset(range(3)))


def test_availability_consistent_with_predicate():
    """Crashing (availability - 1) servers can never kill a system whose
    availability method is correct; crashing the witness set does."""
    for system in ENUMERABLE_SYSTEMS:
        availability = system.availability()
        # Any (availability - 1)-subset of crashes leaves it available.
        for combo in itertools.combinations(range(system.n), availability - 1):
            alive = frozenset(range(system.n)) - set(combo)
            assert system.is_available(alive), (
                type(system).__name__, combo
            )
        # Some availability-sized crash set kills it.
        dead_witness = any(
            not system.is_available(frozenset(range(system.n)) - set(combo))
            for combo in itertools.combinations(range(system.n), availability)
        )
        assert dead_witness, type(system).__name__
