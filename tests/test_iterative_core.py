"""Tests for ACO basics, partitioning, rounds and convergence tracking."""

import pytest

from repro.apps.apsp import ApspACO
from repro.apps.graphs import chain_graph
from repro.iterative.aco import ACO, ACOError, synchronous_fixed_point
from repro.iterative.convergence import ConvergenceMonitor
from repro.iterative.partition import block_partition, owner_of
from repro.iterative.rounds import RoundTracker


class DoublingToFive(ACO):
    """A toy scalar ACO: x -> (x + 5) / 2 converges to 5."""

    @property
    def m(self):
        return 1

    def initial(self):
        return [0.0]

    def apply(self, i, x):
        return (x[0] + 5.0) / 2.0

    def fixed_point(self):
        return [5.0]

    def component_converged(self, i, value):
        return abs(value - 5.0) < 1e-9


class TestACO:
    def test_apply_all_maps_every_component(self):
        aco = ApspACO(chain_graph(4))
        x = aco.initial()
        result = aco.apply_all(x)
        assert len(result) == 4
        assert result == [aco.apply(i, x) for i in range(4)]

    def test_vector_converged(self):
        aco = ApspACO(chain_graph(4))
        assert not aco.vector_converged(aco.initial())
        assert aco.vector_converged(aco.fixed_point())

    def test_synchronous_fixed_point_reaches_target(self):
        aco = ApspACO(chain_graph(8))
        assert synchronous_fixed_point(aco) == aco.fixed_point()

    def test_synchronous_fixed_point_tolerance_based(self):
        result = synchronous_fixed_point(DoublingToFive())
        assert result[0] == pytest.approx(5.0, abs=1e-9)

    def test_synchronous_fixed_point_iteration_cap(self):
        class Diverging(ACO):
            @property
            def m(self):
                return 1

            def initial(self):
                return [1.0]

            def apply(self, i, x):
                return x[0] + 1.0

            def fixed_point(self):
                return [float("inf")]

            def component_converged(self, i, value):
                return False

        with pytest.raises(ACOError):
            synchronous_fixed_point(Diverging(), max_iterations=50)

    def test_default_in_domain_only_knows_fixed_point_level(self):
        aco = ApspACO(chain_graph(4))
        depth = aco.contraction_depth()
        assert aco.in_domain(aco.fixed_point(), level=depth)
        assert not aco.in_domain(aco.initial(), level=depth)


class TestPartition:
    def test_even_split(self):
        assert block_partition(6, 3) == [[0, 1], [2, 3], [4, 5]]

    def test_uneven_split_front_loads_extras(self):
        assert block_partition(7, 3) == [[0, 1, 2], [3, 4], [5, 6]]

    def test_p_equals_m(self):
        assert block_partition(3, 3) == [[0], [1], [2]]

    def test_more_processes_than_components(self):
        blocks = block_partition(2, 4)
        assert blocks == [[0], [1], [], []]

    def test_every_component_covered_exactly_once(self):
        blocks = block_partition(17, 5)
        flat = [c for block in blocks for c in block]
        assert sorted(flat) == list(range(17))

    def test_owner_of(self):
        blocks = block_partition(7, 3)
        assert owner_of(0, blocks) == 0
        assert owner_of(4, blocks) == 1
        assert owner_of(6, blocks) == 2
        with pytest.raises(ValueError):
            owner_of(7, blocks)

    def test_validation(self):
        with pytest.raises(ValueError):
            block_partition(-1, 2)
        with pytest.raises(ValueError):
            block_partition(3, 0)


class TestRoundTracker:
    def test_round_closes_when_all_report(self):
        tracker = RoundTracker(3)
        assert not tracker.report_iteration(0)
        assert not tracker.report_iteration(1)
        assert tracker.report_iteration(2)
        assert tracker.rounds_completed == 1

    def test_fast_process_multiple_iterations_one_round(self):
        tracker = RoundTracker(2)
        tracker.report_iteration(0)
        tracker.report_iteration(0)
        tracker.report_iteration(0)
        assert tracker.rounds_completed == 0
        tracker.report_iteration(1)
        assert tracker.rounds_completed == 1
        assert tracker.total_iterations == 4

    def test_multiple_rounds(self):
        tracker = RoundTracker(2)
        for _ in range(2):
            tracker.report_iteration(0)
            tracker.report_iteration(1)
        assert tracker.rounds_completed == 2

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError):
            RoundTracker(2).report_iteration(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundTracker(0)


class TestConvergenceMonitor:
    def make_monitor(self):
        aco = ApspACO(chain_graph(3))
        blocks = block_partition(3, 3)
        return aco, ConvergenceMonitor(aco, blocks)

    def test_initially_not_converged(self):
        _, monitor = self.make_monitor()
        assert not monitor.all_correct

    def test_all_processes_correct_converges(self):
        aco, monitor = self.make_monitor()
        fp = aco.fixed_point()
        for process in range(3):
            done = monitor.report(process, {process: fp[process]}, float(process))
        assert done
        assert monitor.all_correct
        assert monitor.converged_at_time == 2.0

    def test_wrong_value_blocks_convergence(self):
        # On a 3-chain only row 2 differs between initial and fixed point,
        # so process 2 reporting its initial row must block convergence.
        aco, monitor = self.make_monitor()
        fp = aco.fixed_point()
        assert aco.initial()[2] != fp[2]
        monitor.report(0, {0: fp[0]}, 0.0)
        monitor.report(1, {1: fp[1]}, 1.0)
        monitor.report(2, {2: aco.initial()[2]}, 2.0)
        assert not monitor.all_correct

    def test_regression_counted(self):
        aco, monitor = self.make_monitor()
        fp = aco.fixed_point()
        monitor.report(2, {2: fp[2]}, 0.0)
        monitor.report(2, {2: aco.initial()[2]}, 1.0)
        assert monitor.regressions == 1

    def test_empty_block_counts_as_correct(self):
        aco = ApspACO(chain_graph(2))
        monitor = ConvergenceMonitor(aco, [[0], [1], []])
        fp = aco.fixed_point()
        monitor.report(0, {0: fp[0]}, 0.0)
        assert not monitor.all_correct  # process 1 not yet reported
        monitor.report(1, {1: fp[1]}, 1.0)
        assert monitor.all_correct

    def test_mark_round_records_first_convergent_round(self):
        aco, monitor = self.make_monitor()
        fp = aco.fixed_point()
        for process in range(3):
            monitor.report(process, {process: fp[process]}, 1.0)
        monitor.mark_round(4)
        monitor.mark_round(5)
        assert monitor.converged_at_round == 4
