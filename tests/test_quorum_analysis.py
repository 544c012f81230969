"""Tests for quorum-system load/availability analysis."""

import pytest

from repro.quorum.analysis import (
    brute_force_availability,
    empirical_intersection_probability,
    empirical_load,
    failure_probability,
)
from repro.quorum.base import QuorumSystem
from repro.quorum.fpp import FppQuorumSystem
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.quorum.singleton import SingletonQuorumSystem
from repro.quorum.tree import TreeQuorumSystem


def test_empirical_load_close_to_analytic_probabilistic(rng):
    system = ProbabilisticQuorumSystem(16, 4)
    load = empirical_load(system, rng, trials=8000)
    # The busiest server's load is a max over 16 near-0.25 estimates.
    assert 0.23 <= load <= 0.30


def test_empirical_load_singleton_is_one(rng):
    assert empirical_load(SingletonQuorumSystem(5), rng, trials=100) == 1.0


class ReadOneWriteAll(QuorumSystem):
    """An asymmetric system: a read asks one random server, a write all."""

    def read_quorum(self, rng):
        return frozenset([int(rng.integers(self.n))])

    def write_quorum(self, rng):
        return frozenset(range(self.n))


def test_empirical_load_respects_read_fraction(rng):
    # All-write sampling on an asymmetric system loads servers at w/n.
    system = ReadOneWriteAll(10)
    write_load = empirical_load(system, rng, trials=4000, read_fraction=0.0)
    read_load = empirical_load(system, rng, trials=4000, read_fraction=1.0)
    assert write_load > read_load


def test_empirical_intersection_probability(rng):
    system = ProbabilisticQuorumSystem(20, 4)
    estimate = empirical_intersection_probability(system, rng, trials=5000)
    assert estimate == pytest.approx(system.intersection_probability(), abs=0.03)


def test_empirical_intersection_strict_is_one(rng):
    assert (
        empirical_intersection_probability(GridQuorumSystem(3, 3), rng, 200)
        == 1.0
    )


def test_trials_validation(rng):
    with pytest.raises(ValueError):
        empirical_load(SingletonQuorumSystem(3), rng, trials=0)
    with pytest.raises(ValueError):
        empirical_intersection_probability(SingletonQuorumSystem(3), rng, 0)


class TestBruteForceAvailability:
    def test_matches_analytic_for_majority(self):
        system = MajorityQuorumSystem(5)
        assert brute_force_availability(system) == system.availability()

    def test_matches_analytic_for_grid(self):
        system = GridQuorumSystem(2, 3)
        assert brute_force_availability(system) == system.availability()

    def test_matches_analytic_for_fpp(self):
        system = FppQuorumSystem(2)
        assert brute_force_availability(system) == system.availability()

    def test_matches_analytic_for_tree(self):
        system = TreeQuorumSystem(7)
        assert brute_force_availability(system) == system.availability()

    def test_matches_analytic_for_singleton(self):
        system = SingletonQuorumSystem(4)
        assert brute_force_availability(system) == system.availability()

    def test_returns_none_without_enumeration(self):
        assert brute_force_availability(ProbabilisticQuorumSystem(30, 3)) is None


class TestFailureProbability:
    def test_zero_crash_probability_never_fails(self, rng):
        system = MajorityQuorumSystem(7)
        assert failure_probability(system, 0.0, rng, trials=200) == 0.0

    def test_certain_crash_always_fails(self, rng):
        system = MajorityQuorumSystem(7)
        assert failure_probability(system, 1.0, rng, trials=50) == 1.0

    def test_majority_robust_below_half(self, rng):
        system = MajorityQuorumSystem(21)
        assert failure_probability(system, 0.2, rng, trials=1000) < 0.05

    def test_probabilistic_more_available_than_grid(self, rng):
        # The headline Section 4 comparison at equal quorum size.
        n = 16
        prob = ProbabilisticQuorumSystem(n, 4)
        grid = GridQuorumSystem(4, 4)
        p_prob = failure_probability(prob, 0.3, rng, trials=2000)
        p_grid = failure_probability(grid, 0.3, rng, trials=2000)
        assert p_prob < p_grid

    def test_probability_validation(self, rng):
        with pytest.raises(ValueError):
            failure_probability(SingletonQuorumSystem(3), 1.5, rng)

