"""Tests for the ACO applications: APSP, SSSP, transitive closure,
arc consistency and Jacobi."""

import math

import numpy as np
import pytest

from repro.apps.apsp import ApspACO
from repro.apps.constraint import ArcConsistencyACO, ConstraintProblem
from repro.apps.graphs import chain_graph, complete_graph, random_graph, ring_graph
from repro.apps.linear import JacobiACO, diagonally_dominant_system
from repro.apps.sssp import SsspACO
from repro.apps.transitive_closure import TransitiveClosureACO
from repro.iterative.aco import ACOError, synchronous_fixed_point
from repro.iterative.runner import Alg1Runner
from repro.quorum.probabilistic import ProbabilisticQuorumSystem


class TestApsp:
    def test_fixed_point_is_floyd_warshall(self):
        g = chain_graph(6)
        aco = ApspACO(g)
        assert aco.fixed_point() == [tuple(r) for r in g.floyd_warshall()]

    def test_apply_is_min_plus_row_squaring(self):
        g = chain_graph(4)
        aco = ApspACO(g)
        x = aco.initial()
        row3 = aco.apply(3, x)
        # After one squaring, vertex 3 reaches distance-2 vertices.
        assert row3[1] == 2.0
        assert row3[0] == math.inf  # distance 3 needs another squaring

    def test_synchronous_convergence_in_log_d_steps(self):
        g = chain_graph(9)  # d = 8, M = 3
        aco = ApspACO(g)
        x = aco.initial()
        for _ in range(aco.contraction_depth()):
            x = aco.apply_all(x)
        assert x == aco.fixed_point()

    def test_fixed_point_is_actually_fixed(self):
        # Min-plus sums associate differently than Floyd-Warshall's, so
        # compare within float tolerance.
        rng = np.random.default_rng(0)
        aco = ApspACO(random_graph(8, 0.3, rng, max_weight=4.0))
        fp = aco.fixed_point()
        for row_new, row_fp in zip(aco.apply_all(fp), fp):
            assert row_new == pytest.approx(row_fp)

    def test_estimates_never_below_truth(self):
        # Any number of applications keeps estimates >= true distances.
        aco = ApspACO(ring_graph(7))
        fp = aco.fixed_point()
        x = aco.initial()
        for _ in range(5):
            x = aco.apply_all(x)
            for i in range(aco.m):
                for j in range(aco.m):
                    assert x[i][j] >= fp[i][j] - 1e-12

    @pytest.mark.parametrize("graph", [
        chain_graph(7),
        chain_graph(6, weight=2),  # int weights beside the 0.0 diagonal
        random_graph(9, 0.3, np.random.default_rng(4), max_weight=4.0),
        random_graph(8, 0.2, np.random.default_rng(5), ensure_connected=False),
    ], ids=["chain", "chain-int", "random", "random-disconnected"])
    def test_apply_equals_the_triple_loop(self, graph):
        def reference(i, x):
            row = []
            for j in range(len(x)):
                best = x[i][j]
                for k in range(len(x)):
                    if x[i][k] != math.inf and x[i][k] + x[k][j] < best:
                        best = x[i][k] + x[k][j]
                row.append(best)
            return tuple(row)

        aco = ApspACO(graph)
        once = aco.apply_all(aco.initial())
        # Mid-run: a reader's vector mixes fresher and staler components.
        mixed = [once[i] if i % 2 else row for i, row in enumerate(aco.initial())]
        for x in (aco.initial(), once, mixed, aco.fixed_point()):
            for i in range(aco.m):
                expected = reference(i, x)
                got = aco.apply(i, x)
                assert got == expected
                assert [type(v) for v in got] == [type(v) for v in expected]

    def test_in_domain_chain(self):
        aco = ApspACO(chain_graph(5))
        assert aco.in_domain(aco.initial(), level=0)
        assert aco.in_domain(aco.fixed_point(), level=aco.contraction_depth())
        x = aco.apply_all(aco.initial())
        assert aco.in_domain(x, level=1)


class TestSssp:
    def test_fixed_point_is_dijkstra(self):
        rng = np.random.default_rng(1)
        g = random_graph(10, 0.3, rng, max_weight=5.0)
        aco = SsspACO(g, source=2)
        assert aco.fixed_point() == pytest.approx(g.dijkstra(2))

    def test_source_pinned_to_zero(self):
        aco = SsspACO(chain_graph(5), source=4)
        assert aco.apply(4, [99.0] * 5) == 0.0

    def test_synchronous_fixed_point(self):
        g = chain_graph(8)
        aco = SsspACO(g, source=7)
        assert synchronous_fixed_point(aco) == aco.fixed_point()

    def test_unreachable_vertices_stay_infinite(self):
        aco = SsspACO(chain_graph(4), source=0)  # edges point toward 0
        assert synchronous_fixed_point(aco) == [0.0, math.inf, math.inf, math.inf]

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            SsspACO(chain_graph(3), source=3)

    def test_contraction_depth_is_tree_height(self):
        assert SsspACO(chain_graph(6), source=5).contraction_depth() == 5
        assert SsspACO(complete_graph(5), source=0).contraction_depth() == 1

    def test_distributed_run_converges(self):
        aco = SsspACO(chain_graph(8), source=7)
        result = Alg1Runner(
            aco, ProbabilisticQuorumSystem(8, 3), monotone=True, seed=0
        ).run()
        assert result.converged


class TestTransitiveClosure:
    def test_fixed_point_is_reachability(self):
        g = chain_graph(5)
        aco = TransitiveClosureACO(g)
        assert aco.fixed_point()[4] == frozenset({0, 1, 2, 3, 4})
        assert aco.fixed_point()[0] == frozenset({0})

    def test_doubling_growth(self):
        g = chain_graph(9)
        aco = TransitiveClosureACO(g)
        x = aco.initial()
        assert len(x[8]) == 2  # radius 1: itself + one hop
        x = aco.apply_all(x)
        assert len(x[8]) == 3  # radius 2
        x = aco.apply_all(x)
        assert len(x[8]) == 5  # radius 4

    def test_synchronous_fixed_point(self):
        rng = np.random.default_rng(2)
        g = random_graph(9, 0.2, rng)
        aco = TransitiveClosureACO(g)
        assert synchronous_fixed_point(aco) == aco.fixed_point()

    def test_rows_only_grow(self):
        aco = TransitiveClosureACO(ring_graph(6))
        x = aco.initial()
        for _ in range(4):
            next_x = aco.apply_all(x)
            for old, new in zip(x, next_x):
                assert old <= new
            x = next_x

    def test_distributed_run_converges(self):
        aco = TransitiveClosureACO(chain_graph(7))
        result = Alg1Runner(
            aco, ProbabilisticQuorumSystem(7, 3), monotone=True, seed=1
        ).run()
        assert result.converged


class TestConstraint:
    def make_coloring_triangle(self):
        # Three variables, domains {0,1}, all-different: unsatisfiable but
        # arc-consistent (every value has a support pairwise).
        problem = ConstraintProblem([{0, 1}, {0, 1}, {0, 1}])
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            problem.add_constraint(a, b, lambda x, y: x != y)
        return problem

    def test_ac3_triangle_keeps_domains(self):
        problem = self.make_coloring_triangle()
        assert problem.ac3() == [frozenset({0, 1})] * 3

    def test_ac3_prunes_precedence_chain(self):
        problem = ConstraintProblem([{0, 1, 2}] * 3)
        problem.add_constraint(0, 1, lambda a, b: a < b)
        problem.add_constraint(1, 2, lambda a, b: a < b)
        assert problem.ac3() == [
            frozenset({0}), frozenset({1}), frozenset({2})
        ]

    def test_aco_matches_ac3(self):
        problem = ConstraintProblem([{0, 1, 2, 3}] * 4)
        problem.add_constraint(0, 1, lambda a, b: a < b)
        problem.add_constraint(1, 2, lambda a, b: a < b)
        problem.add_constraint(2, 3, lambda a, b: a != b)
        aco = ArcConsistencyACO(problem)
        assert synchronous_fixed_point(aco) == problem.ac3()

    def test_domains_only_shrink(self):
        problem = self.make_coloring_triangle()
        aco = ArcConsistencyACO(problem)
        x = aco.initial()
        next_x = aco.apply_all(x)
        for old, new in zip(x, next_x):
            assert new <= old

    def test_constraint_validation(self):
        problem = ConstraintProblem([{0}, {0}])
        with pytest.raises(ValueError):
            problem.add_constraint(0, 0, lambda a, b: True)
        with pytest.raises(ValueError):
            problem.add_constraint(0, 5, lambda a, b: True)
        with pytest.raises(ValueError):
            ConstraintProblem([])

    def test_distributed_run_converges(self):
        problem = ConstraintProblem([{0, 1, 2}] * 3)
        problem.add_constraint(0, 1, lambda a, b: a < b)
        problem.add_constraint(1, 2, lambda a, b: a < b)
        aco = ArcConsistencyACO(problem)
        result = Alg1Runner(
            aco, ProbabilisticQuorumSystem(6, 2), monotone=True, seed=2
        ).run()
        assert result.converged


class TestJacobi:
    def test_fixed_point_is_linear_solution(self, rng):
        matrix, rhs = diagonally_dominant_system(6, rng)
        aco = JacobiACO(matrix, rhs)
        assert aco.fixed_point() == pytest.approx(
            list(np.linalg.solve(matrix, rhs))
        )

    def test_synchronous_convergence(self, rng):
        matrix, rhs = diagonally_dominant_system(6, rng)
        aco = JacobiACO(matrix, rhs, tolerance=1e-9)
        result = synchronous_fixed_point(aco)
        assert result == pytest.approx(aco.fixed_point(), abs=1e-8)

    def test_rejects_non_dominant_matrix(self):
        matrix = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ACOError, match="dominant"):
            JacobiACO(matrix, np.array([1.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ACOError):
            JacobiACO(np.eye(3), np.ones(2))
        with pytest.raises(ACOError):
            JacobiACO(np.ones((2, 3)), np.ones(2))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ACOError):
            JacobiACO(np.eye(2) * 3, np.ones(2), tolerance=0.0)

    def test_contraction_factor_below_one(self, rng):
        matrix, rhs = diagonally_dominant_system(5, rng, dominance=3.0)
        aco = JacobiACO(matrix, rhs)
        assert 0.0 <= aco.contraction_factor < 1.0

    def test_contraction_depth_scales_with_tolerance(self, rng):
        matrix, rhs = diagonally_dominant_system(5, rng)
        loose = JacobiACO(matrix, rhs, tolerance=1e-2).contraction_depth()
        tight = JacobiACO(matrix, rhs, tolerance=1e-10).contraction_depth()
        assert tight > loose

    def test_distributed_run_converges(self, rng):
        matrix, rhs = diagonally_dominant_system(6, rng, dominance=3.0)
        aco = JacobiACO(matrix, rhs, tolerance=1e-6)
        result = Alg1Runner(
            aco, ProbabilisticQuorumSystem(8, 3), num_processes=3,
            monotone=True, seed=3, max_rounds=400,
        ).run()
        assert result.converged

    def test_system_generator_validation(self, rng):
        with pytest.raises(ValueError):
            diagonally_dominant_system(4, rng, dominance=1.0)
