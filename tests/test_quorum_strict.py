"""Tests for the strict quorum systems: majority, grid, FPP, tree and
singleton."""

import itertools
import math

import pytest

from repro.quorum.base import QuorumSystemError
from repro.quorum.fpp import FppQuorumSystem, is_prime
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.singleton import SingletonQuorumSystem
from repro.quorum.tree import TreeQuorumSystem


def assert_pairwise_intersecting(quorums):
    for a, b in itertools.combinations(quorums, 2):
        assert a & b, f"disjoint quorums {sorted(a)} and {sorted(b)}"


class TestMajority:
    def test_quorum_size(self):
        assert MajorityQuorumSystem(10).quorum_size == 6
        assert MajorityQuorumSystem(11).quorum_size == 6
        assert MajorityQuorumSystem(1).quorum_size == 1

    def test_sampled_quorums_have_right_size(self, rng):
        system = MajorityQuorumSystem(9)
        for _ in range(20):
            assert len(system.quorum(rng)) == 5

    def test_enumerated_quorums_pairwise_intersect(self):
        system = MajorityQuorumSystem(6)
        quorums = list(system.enumerate_quorums())
        assert len(quorums) == math.comb(6, 4)
        assert_pairwise_intersecting(quorums)

    def test_enumeration_refused_when_huge(self):
        assert MajorityQuorumSystem(40).enumerate_quorums() is None

    def test_availability(self):
        assert MajorityQuorumSystem(10).availability() == 5
        assert MajorityQuorumSystem(11).availability() == 6

    def test_is_strict(self):
        assert MajorityQuorumSystem(7).is_strict


class TestGrid:
    def test_square_factorisation(self):
        assert GridQuorumSystem.square(16).rows == 4
        assert GridQuorumSystem.square(12).rows == 3
        assert GridQuorumSystem.square(7).rows == 1  # prime falls back to 1xn

    def test_quorum_is_row_plus_column(self):
        system = GridQuorumSystem(3, 3)
        quorum = system.quorum_for(1, 2)
        assert quorum == {3, 4, 5} | {2, 5, 8}
        assert len(quorum) == system.quorum_size == 5

    def test_all_quorums_pairwise_intersect(self):
        system = GridQuorumSystem(3, 4)
        assert_pairwise_intersecting(list(system.enumerate_quorums()))

    def test_enumeration_count(self):
        system = GridQuorumSystem(3, 4)
        assert len(list(system.enumerate_quorums())) == 12

    def test_availability_is_min_dimension(self):
        assert GridQuorumSystem(3, 5).availability() == 3
        assert GridQuorumSystem(6, 2).availability() == 2

    def test_killing_one_per_row_disables_all_quorums(self):
        system = GridQuorumSystem(3, 3)
        crashes = {0, 4, 8}  # one per row (the diagonal)
        for quorum in system.enumerate_quorums():
            assert quorum & crashes

    def test_analytic_load(self):
        system = GridQuorumSystem(4, 4)
        assert system.analytic_load() == pytest.approx(
            1 / 4 + 1 / 4 - 1 / 16
        )

    def test_coordinates_roundtrip(self):
        system = GridQuorumSystem(3, 4)
        for server in range(12):
            row, col = system.coordinates(server)
            assert row * 4 + col == server
        with pytest.raises(QuorumSystemError):
            system.coordinates(12)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(QuorumSystemError):
            GridQuorumSystem(0, 3)


class TestFpp:
    def test_is_prime(self):
        assert [p for p in range(14) if is_prime(p)] == [2, 3, 5, 7, 11, 13]

    def test_plane_sizes(self):
        for order in (2, 3, 5):
            system = FppQuorumSystem(order)
            assert system.n == order * order + order + 1
            assert system.quorum_size == order + 1

    def test_any_two_lines_meet_in_exactly_one_point(self):
        system = FppQuorumSystem(3)
        lines = list(system.enumerate_quorums())
        assert len(lines) == 13
        for a, b in itertools.combinations(lines, 2):
            assert len(a & b) == 1

    def test_every_point_on_order_plus_one_lines(self):
        system = FppQuorumSystem(2)
        lines = list(system.enumerate_quorums())
        for point in range(system.n):
            assert sum(1 for line in lines if point in line) == 3

    def test_non_prime_order_rejected(self):
        with pytest.raises(QuorumSystemError):
            FppQuorumSystem(4)  # prime powers not supported, plain primes only
        with pytest.raises(QuorumSystemError):
            FppQuorumSystem(1)

    def test_largest_order_for(self):
        assert FppQuorumSystem.largest_order_for(31) == 5   # 31 = 5²+5+1
        assert FppQuorumSystem.largest_order_for(30) == 3   # 13 <= 30 < 31
        assert FppQuorumSystem.largest_order_for(6) is None

    def test_availability_is_one_line(self):
        system = FppQuorumSystem(3)
        assert system.availability() == 4
        # Crashing one full line indeed hits every line.
        lines = list(system.enumerate_quorums())
        crashed = set(lines[0])
        for line in lines:
            assert line & crashed

    def test_load(self, rng):
        system = FppQuorumSystem(3)
        assert system.analytic_load() == pytest.approx(4 / 13)


class TestTree:
    def test_requires_full_tree_size(self):
        with pytest.raises(QuorumSystemError):
            TreeQuorumSystem(6)
        TreeQuorumSystem(7)  # 2^3 - 1 is fine

    def test_sampled_quorums_valid(self, rng):
        system = TreeQuorumSystem(15)
        quorums = list(system.enumerate_quorums())
        for _ in range(50):
            assert system.quorum(rng) in quorums

    def test_all_quorums_pairwise_intersect(self):
        system = TreeQuorumSystem(7)
        assert_pairwise_intersecting(list(system.enumerate_quorums()))

    def test_smallest_quorum_is_root_to_leaf_path(self):
        system = TreeQuorumSystem(15)
        sizes = [len(q) for q in system.enumerate_quorums()]
        assert min(sizes) == 4 == system.quorum_size

    def test_availability_is_depth(self):
        assert TreeQuorumSystem(7).availability() == 3
        assert TreeQuorumSystem(31).availability() == 5

    def test_descend_probability_validation(self):
        with pytest.raises(QuorumSystemError):
            TreeQuorumSystem(7, descend_probability=0.0)
        with pytest.raises(QuorumSystemError):
            TreeQuorumSystem(7, descend_probability=1.5)


class TestSingleton:
    def test_always_same_quorum(self, rng):
        system = SingletonQuorumSystem(5, coordinator=3)
        for _ in range(5):
            assert system.quorum(rng) == {3}

    def test_extremes(self):
        system = SingletonQuorumSystem(5)
        assert system.availability() == 1
        assert system.analytic_load() == 1.0
        assert system.quorum_size == 1
        assert system.is_strict

    def test_coordinator_validation(self):
        with pytest.raises(QuorumSystemError):
            SingletonQuorumSystem(5, coordinator=5)

