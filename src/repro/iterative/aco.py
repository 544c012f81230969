"""Asynchronously contracting operators (ACOs).

An ACO is a function F over an m-component product space together with a
chain of nested boxes D(0) ⊇ D(1) ⊇ ... collapsing onto F's fixed point
(conditions [C1]-[C3] of the paper).  Üresin and Dubois' theorem says every
admissible asynchronous iteration of an ACO converges to the fixed point;
the paper's Theorem 3 lifts this to executions over random registers.

Concrete ACOs live in :mod:`repro.apps`; this module defines the interface
the iterative runner and the pure update-sequence machinery both consume.
"""

from typing import Any, List, Optional


class ACOError(RuntimeError):
    """Raised for invalid ACO usage (e.g. iteration diverging)."""


class ACO:
    """An asynchronously contracting operator over m components.

    A subclass defines ``m`` (a property: the number of vector
    components), ``initial()`` (the initial vector i ∈ D(0)),
    ``apply(i, x)`` (the component function F_i on the full vector x, a
    pure function) and ``fixed_point()`` (the reference fixed point,
    computed by a direct algorithm).  A *component value* may be any
    hashable-or-comparable object: a number (Jacobi), a tuple of
    distances (APSP rows), a frozenset (transitive closure, constraint
    domains).
    """

    def apply_all(self, x: List[Any]) -> List[Any]:
        """The full operator F(x) (a synchronous update of every component)."""
        return [self.apply(i, x) for i in range(self.m)]

    def component_converged(self, i: int, value: Any) -> bool:
        """Whether component ``i`` holding ``value`` counts as converged.

        Defaults to exact equality with the fixed point; numeric ACOs
        (Jacobi) override with a tolerance.
        """
        return value == self.fixed_point()[i]

    def vector_converged(self, x: List[Any]) -> bool:
        """Whether the whole vector counts as converged."""
        return all(self.component_converged(i, x[i]) for i in range(self.m))

    def contraction_depth(self) -> Optional[int]:
        """The number of pseudocycles M needed for convergence, if known.

        For the paper's APSP application this is ⌈log₂ d⌉ with d the input
        graph's diameter.  None when no closed form is available.
        """
        return None

    def in_domain(self, x: List[Any], level: int = 0) -> bool:
        """Membership of ``x`` in the box D(level), when checkable.

        Optional: used by property-based tests of [C3].  The default only
        knows D(level) for level so large that D = {fixed point}.
        """
        depth = self.contraction_depth()
        if depth is not None and level >= depth:
            return list(x) == list(self.fixed_point())
        raise NotImplementedError(
            f"{type(self).__name__} does not expose D({level}) membership"
        )


def synchronous_fixed_point(
    aco: ACO, max_iterations: int = 100_000
) -> List[Any]:
    """Iterate F synchronously from the initial vector to its fixed point.

    This is the trivially correct baseline every distributed execution is
    compared against.  Raises :class:`ACOError` if the iteration has not
    stabilised within ``max_iterations`` applications of F.
    """
    x = list(aco.initial())
    for _ in range(max_iterations):
        next_x = aco.apply_all(x)
        if aco.vector_converged(next_x) or next_x == x:
            return next_x
        x = next_x
    raise ACOError(
        f"synchronous iteration of {type(aco).__name__} did not stabilise "
        f"within {max_iterations} iterations"
    )
