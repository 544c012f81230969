"""Quorum systems.

A quorum system over a universe of ``n`` replica servers is a collection of
subsets (quorums).  *Strict* systems guarantee pairwise intersection;
the *probabilistic* system of Malkhi, Reiter and Wright draws uniform random
k-subsets, which intersect only with high probability.

Implemented systems:

* :class:`ProbabilisticQuorumSystem` — uniform random k-subsets [19].
* :class:`MajorityQuorumSystem` — all ⌊n/2⌋+1-subsets; Ω(n) availability.
* :class:`GridQuorumSystem` — row ∪ column on a √n×√n grid (Cheung et al.).
* :class:`FppQuorumSystem` — lines of a finite projective plane (Maekawa).
* :class:`TreeQuorumSystem` — recursive tree quorums (Agrawal–El Abbadi).
* :class:`SingletonQuorumSystem` — a single coordinator.

:mod:`repro.quorum.analysis` computes load, availability and intersection
probability, analytically where known and by Monte Carlo otherwise.
"""

from repro.quorum.base import QuorumSystem, QuorumSystemError
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.fpp import FppQuorumSystem, is_prime
from repro.quorum.tree import TreeQuorumSystem
from repro.quorum.singleton import SingletonQuorumSystem
from repro.quorum import analysis

#: Quorum spec kinds, built by :func:`repro.specs.build`.
KINDS = {
    "probabilistic": ProbabilisticQuorumSystem,
    "majority": MajorityQuorumSystem,
    "grid": GridQuorumSystem,
    "grid_square": GridQuorumSystem.square,
}

__all__ = [
    "FppQuorumSystem",
    "GridQuorumSystem",
    "KINDS",
    "MajorityQuorumSystem",
    "ProbabilisticQuorumSystem",
    "QuorumSystem",
    "QuorumSystemError",
    "SingletonQuorumSystem",
    "TreeQuorumSystem",
    "analysis",
    "is_prime",
]
