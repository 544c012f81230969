"""Load, availability and intersection analysis of quorum systems.

Implements the quantities the paper compares in Section 4:

* **load** — the access probability of the busiest server under the
  system's sampling strategy (Naor–Wool).  We report both the analytic
  value (where a closed form is known) and a Monte Carlo estimate.
* **availability** — the minimum number of server crashes that disables
  every quorum (Peleg–Wool).  Analytic per system; a brute-force minimum
  hitting set cross-checks small systems.
* **intersection probability** — the probability two independently sampled
  quorums intersect; 1 for strict systems, 1 − C(n−k,k)/C(n,k) for the
  probabilistic system.
"""

import itertools
import math
from collections import Counter
from typing import Dict, List, Optional

import numpy as np

from repro.quorum.base import QuorumSystem


def empirical_load(
    system: QuorumSystem,
    rng: np.random.Generator,
    trials: int = 2000,
    read_fraction: float = 1.0,
) -> float:
    """Monte Carlo estimate of the busiest server's access probability.

    Samples ``trials`` accesses (reads with probability ``read_fraction``,
    writes otherwise) and returns max over servers of the fraction of
    accesses that touched the server.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    hits: Counter = Counter()
    for _ in range(trials):
        if rng.random() < read_fraction:
            quorum = system.read_quorum(rng)
        else:
            quorum = system.write_quorum(rng)
        for member in quorum:
            hits[member] += 1
    if not hits:
        return 0.0
    return max(hits.values()) / trials


def empirical_intersection_probability(
    system: QuorumSystem, rng: np.random.Generator, trials: int = 2000
) -> float:
    """Monte Carlo estimate of Pr[read quorum ∩ write quorum ≠ ∅]."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    intersecting = 0
    for _ in range(trials):
        read_q = system.read_quorum(rng)
        write_q = system.write_quorum(rng)
        if read_q & write_q:
            intersecting += 1
    return intersecting / trials


def brute_force_availability(system: QuorumSystem, max_size: int = 8) -> Optional[int]:
    """Exact minimum hitting-set size by exhaustive search.

    Returns None when the system cannot enumerate its quorums or when no
    hitting set of size <= max_size exists within the search budget.
    Intended for validating the analytic ``availability()`` methods on
    small instances.
    """
    quorum_iter = system.enumerate_quorums()
    if quorum_iter is None:
        return None
    quorums: List[frozenset] = list(quorum_iter)
    if not quorums:
        return None
    universe = sorted(set().union(*quorums))
    for size in range(1, min(max_size, len(universe)) + 1):
        for crash_set in itertools.combinations(universe, size):
            crashed = set(crash_set)
            if all(quorum & crashed for quorum in quorums):
                return size
    return None


def failure_probability(
    system: QuorumSystem,
    per_server_crash_probability: float,
    rng: np.random.Generator,
    trials: int = 2000,
) -> float:
    """Estimate Pr[every quorum is disabled] under i.i.d. server crashes.

    This is the Peleg–Wool failure probability F_p; a high-availability
    system keeps it near 0 for crash probabilities below 1/2.  For the
    probabilistic system a quorum is "available" when at least k servers
    survive (a fresh quorum can then be drawn from the survivors).
    """
    if not 0.0 <= per_server_crash_probability <= 1.0:
        raise ValueError(
            f"crash probability must be in [0,1], got {per_server_crash_probability}"
        )
    quorums = None
    use_structural = (
        system.is_available(frozenset(range(system.n))) is not None
    )
    if not use_structural:
        quorum_iter = system.enumerate_quorums()
        quorums = list(quorum_iter) if quorum_iter is not None else None
        if quorums is None and system.is_strict:
            # Last resort: approximate the quorum collection by a sample
            # (an upper estimate of the failure probability, since a live
            # quorum outside the sample is missed).
            quorums = list({system.quorum(rng) for _ in range(500)})
    failures = 0
    for _ in range(trials):
        alive = rng.random(system.n) >= per_server_crash_probability
        alive_set = frozenset(i for i in range(system.n) if alive[i])
        if use_structural:
            dead = not system.is_available(alive_set)
        elif quorums is not None:
            # Strict system: dead iff every quorum lost a member.
            dead = all(not quorum <= alive_set for quorum in quorums)
        else:
            # Threshold fallback: functions iff quorum_size servers are up.
            dead = len(alive_set) < system.quorum_size
        if dead:
            failures += 1
    return failures / trials


def intersection_size_pmf(n: int, k: int) -> Dict[int, float]:
    """Distribution of |Q1 ∩ Q2| for two independent uniform k-subsets.

    Hypergeometric: P(|Q1 ∩ Q2| = i) = C(k,i)·C(n-k,k-i) / C(n,k).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    total = math.comb(n, k)
    pmf = {}
    for i in range(max(0, 2 * k - n), k + 1):
        pmf[i] = math.comb(k, i) * math.comb(n - k, k - i) / total
    return pmf


def masking_intersection_probability(n: int, k: int, byzantine_bound: int) -> float:
    """Pr[|read quorum ∩ write quorum| >= 2b + 1] for uniform k-subsets.

    This is the freshness condition for *masking* quorums (Malkhi-Reiter-
    Wright): with at most b Byzantine servers, a reader accepting only
    (b+1)-vouched values obtains the latest honest write whenever its
    quorum shares at least 2b+1 servers with the write's quorum (b may be
    faulty, leaving b+1 honest vouchers).  Choosing k = c·√n with c
    large enough makes this probability approach 1.
    """
    if byzantine_bound < 0:
        raise ValueError(
            f"byzantine bound must be non-negative, got {byzantine_bound}"
        )
    threshold = 2 * byzantine_bound + 1
    pmf = intersection_size_pmf(n, k)
    return sum(p for size, p in pmf.items() if size >= threshold)


def minimum_masking_quorum_size(
    n: int, byzantine_bound: int, target_probability: float = 0.99
) -> Optional[int]:
    """The smallest k whose masking intersection probability meets the
    target, or None when even k = n falls short."""
    if not 0.0 < target_probability <= 1.0:
        raise ValueError(
            f"target probability must be in (0, 1], got {target_probability}"
        )
    for k in range(1, n + 1):
        if masking_intersection_probability(n, k, byzantine_bound) >= target_probability:
            return k
    return None

