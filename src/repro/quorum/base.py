"""Quorum system base class."""

from typing import FrozenSet, Iterator, Optional

import numpy as np


class QuorumSystemError(ValueError):
    """Raised for invalid quorum-system parameters."""


class QuorumSystem:
    """A collection of quorums over the universe ``{0, ..., n-1}``.

    A subclass implements :meth:`read_quorum` and :meth:`write_quorum`
    (a symmetric system just ``quorum(rng)``, which both default to).
    Sampling takes an explicit RNG so quorum choice is attributable to a
    named random stream.  A subclass also defines ``is_strict`` and
    ``quorum_size`` (properties: whether every read quorum meets every
    write quorum; the smallest quorum's size, used in complexity
    formulas), ``availability()`` (the fewest crashes that disable every
    quorum: the Section 4 notion due to Peleg and Wool),
    ``analytic_load()`` (the busiest server's access probability under
    the system's sampling strategy) and ``is_available(alive)`` (whether
    some quorum lies within ``alive``).
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise QuorumSystemError(f"need at least one server, got n={n}")
        self.n = n

    # -- sampling ------------------------------------------------------ #

    def read_quorum(self, rng: np.random.Generator) -> FrozenSet[int]:
        """Sample a quorum for a read.  Defaults to :meth:`quorum`."""
        return self.quorum(rng)

    def write_quorum(self, rng: np.random.Generator) -> FrozenSet[int]:
        """Sample a quorum for a write.  Defaults to :meth:`quorum`."""
        return self.quorum(rng)

    # -- structure ------------------------------------------------------ #

    def enumerate_quorums(self) -> Optional[Iterator[FrozenSet[int]]]:
        """Enumerate all quorums, or None when infeasible.

        Used by brute-force availability cross-checks in the tests; systems
        with astronomically many quorums (probabilistic, majority at large
        n) return None.
        """
        return None

    def validate_quorum(self, quorum: FrozenSet[int]) -> None:
        """Raise if ``quorum`` is not a subset of the universe."""
        if not quorum:
            raise QuorumSystemError("empty quorum")
        # min/max are two C-level scans — cheaper than a generator-frame
        # all() per member, and this runs once per operation attempt.
        if min(quorum) < 0 or max(quorum) >= self.n:
            raise QuorumSystemError(
                f"quorum {sorted(quorum)} escapes universe of size {self.n}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"
