"""The paper's analytic results, as executable formulas.

Every experiment that plots a bound imports it from here, so the analytic
curves in the reproduced figures come from the same expressions the tests
verify against first principles.
"""

import math
from fractions import Fraction


def _validate_nk(n: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1 servers, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"quorum size k={k} must be in [1, {n}]")


def non_intersection_probability(n: int, k: int) -> float:
    """Pr[two uniform k-subsets of n are disjoint] = C(n-k,k)/C(n,k)."""
    _validate_nk(n, k)
    if 2 * k > n:
        return 0.0
    return math.comb(n - k, k) / math.comb(n, k)


def non_intersection_upper_bound(n: int, k: int) -> float:
    """Proposition 3.2 of Malkhi et al.: C(n-k,k)/C(n,k) <= ((n-k)/n)^k."""
    _validate_nk(n, k)
    return ((n - k) / n) ** k


def q_exact(n: int, k: int) -> float:
    """Theorem 4's monotone success parameter q = 1 - C(n-k,k)/C(n,k)."""
    return 1.0 - non_intersection_probability(n, k)


def q_lower_bound(n: int, k: int) -> float:
    """q >= 1 - ((n-k)/n)^k, the bound behind Corollary 7."""
    return 1.0 - non_intersection_upper_bound(n, k)


def theorem1_survival_bound(n: int, k: int, ell: int) -> float:
    """Theorem 1: Pr[some replica of a write's quorum survives ell
    subsequent writes] <= k * ((n-k)/n)^ell (clamped to 1)."""
    _validate_nk(n, k)
    if ell < 0:
        raise ValueError(f"ell must be non-negative, got {ell}")
    return min(1.0, k * ((n - k) / n) ** ell)


def theorem1_survival_exact(n: int, k: int, ell: int) -> float:
    """The exact probability Theorem 1 bounds: some replica of a write's
    uniform k-quorum is in none of ell subsequent independent uniform
    k-quorums.  By inclusion-exclusion over the j replicas all missed,

        sum_{j=1..k} (-1)^{j+1} C(k,j) (C(n-j,k)/C(n,k))^ell,

    whose j=1 term is the (unclamped) bound k((n-k)/n)^ell.  Summed in
    exact rationals: the alternating terms would cancel in floats."""
    _validate_nk(n, k)
    if ell < 0:
        raise ValueError(f"ell must be non-negative, got {ell}")
    total = sum(
        (-1) ** (j + 1) * math.comb(k, j)
        * Fraction(math.comb(n - j, k), math.comb(n, k)) ** ell
        for j in range(1, k + 1)
    )
    return float(total)


def geometric_pmf_bound(q: float, r: int) -> float:
    """[R5]: Pr(Y = r) <= (1-q)^{r-1} * q."""
    if not 0 < q <= 1:
        raise ValueError(f"q must be in (0, 1], got {q}")
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    return (1.0 - q) ** (r - 1) * q


def expected_rounds_upper_bound(q: float) -> float:
    """Theorem 5: expected rounds per pseudocycle <= 1/q."""
    if not 0 < q <= 1:
        raise ValueError(f"q must be in (0, 1], got {q}")
    return 1.0 / q


def corollary6_rounds_bound(pseudocycles: int, q: float) -> float:
    """Corollary 6: expected total rounds <= M / q."""
    if pseudocycles < 0:
        raise ValueError(f"M must be non-negative, got {pseudocycles}")
    return pseudocycles * expected_rounds_upper_bound(q)


def corollary7_rounds_per_pseudocycle_bound(n: int, k: int) -> float:
    """Corollary 7: expected rounds per pseudocycle for the monotone
    probabilistic quorum algorithm <= 1 / (1 - ((n-k)/n)^k)."""
    q = q_lower_bound(n, k)
    if q <= 0.0:
        # Only possible when k = 0 is excluded, so q > 0 always; guard anyway.
        raise ValueError(f"degenerate parameters n={n}, k={k} give q=0")
    return 1.0 / q


def naor_wool_load_lower_bound(n: int, k: int) -> float:
    """Naor-Wool: the load of a quorum system with smallest quorum k over n
    servers is at least max(1/k, k/n); minimised at k = Θ(√n)."""
    _validate_nk(n, k)
    return max(1.0 / k, k / n)
