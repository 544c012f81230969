"""All-pairs shortest paths as an ACO — the paper's Section 7 application.

The vector has one component per vertex i: the tuple of current distance
estimates from i to every vertex (row i of the distance matrix).  The
operator is min-plus matrix squaring restricted to a row:

    F_i(x)[j] = min_k ( x[i][k] + x[k][j] )

Since x[i][i] = 0 the minimum never exceeds the current estimate read, and
estimates never drop below true distances, so D(K) = "every entry within
the true distance plus the K-times-halved surplus" forms the contracting
chain; convergence needs M = ⌈log₂ d⌉ pseudocycles where d is the graph's
hop diameter (Üresin-Dubois; for the paper's 34-chain, M = 6).
"""

import math
from typing import List, Optional, Tuple

from repro.apps.graphs import Graph, apsp_pseudocycle_bound
from repro.iterative.aco import ACO

Row = Tuple[float, ...]


class ApspACO(ACO):
    """Row-partitioned all-pairs shortest paths."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._initial: List[Row] = [
            tuple(row) for row in graph.adjacency_matrix()
        ]
        self._fixed_point: List[Row] = [
            tuple(row) for row in graph.floyd_warshall()
        ]

    @property
    def m(self) -> int:
        return self.graph.n

    def initial(self) -> List[Row]:
        return list(self._initial)

    def apply(self, i: int, x: List[Row]) -> Row:
        # Row-wise min-plus: row k shifted by d_ik for every finite d_ik,
        # then one min per column.  min() returns the first of equal
        # items, so row_i[j] wins ties and each value is the very object
        # (int or float) a double loop keeping the strictly smaller one
        # picks.
        row_i = x[i]
        shifted = [
            [d + v for v in x[k]] for k, d in enumerate(row_i) if d != math.inf
        ]
        return tuple(map(min, row_i, *shifted))

    def fixed_point(self) -> List[Row]:
        return list(self._fixed_point)

    def component_converged(self, i: int, value: Row) -> bool:
        # Min-plus sums associate differently than Floyd-Warshall's, so
        # float weights need a tolerance; math.isclose(inf, inf) is True.
        target = self._fixed_point[i]
        return len(value) == len(target) and all(
            math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
            for a, b in zip(value, target)
        )

    def contraction_depth(self) -> Optional[int]:
        return apsp_pseudocycle_bound(self.graph)

    def in_domain(self, x: List[Row], level: int = 0) -> bool:
        """Membership in D(level): every estimate is at least the true
        distance, and entries with true distance reachable in <= 2^level
        hops are already exact.

        This is the standard contracting chain for min-plus squaring; it
        satisfies [C1]-[C3] and is used by the property-based tests.
        """
        exact_within = 2 ** level
        for i in range(self.m):
            hops = self.graph.bfs_hops(i)
            for j in range(self.m):
                true = self._fixed_point[i][j]
                estimate = x[i][j]
                if estimate < true - 1e-12:
                    return False
                if hops[j] <= exact_within and abs(estimate - true) > 1e-12:
                    return False
        return True

    def __repr__(self) -> str:
        return f"ApspACO(n={self.graph.n}, edges={self.graph.num_edges})"
