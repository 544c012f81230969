"""Tests for the paper's closed-form results (analysis.theory/messages)."""

import itertools
import math

import pytest

from repro.analysis.messages import (
    high_availability_comparison,
    messages_per_pseudocycle_probabilistic,
    messages_per_pseudocycle_strict,
    messages_per_round,
    optimal_load_comparison,
)
from repro.analysis.theory import (
    corollary6_rounds_bound,
    corollary7_rounds_per_pseudocycle_bound,
    expected_rounds_upper_bound,
    geometric_pmf_bound,
    naor_wool_load_lower_bound,
    non_intersection_probability,
    non_intersection_upper_bound,
    q_exact,
    q_lower_bound,
    theorem1_survival_bound,
    theorem1_survival_exact,
)


class TestIntersectionFormulas:
    def test_known_values(self):
        assert non_intersection_probability(4, 2) == pytest.approx(1 / 6)
        assert non_intersection_probability(34, 1) == pytest.approx(33 / 34)

    def test_zero_when_quorums_overlap_by_pigeonhole(self):
        assert non_intersection_probability(10, 6) == 0.0

    def test_proposition_32_bound_dominates(self):
        for n in (8, 34, 101):
            for k in range(1, n + 1):
                assert (
                    non_intersection_probability(n, k)
                    <= non_intersection_upper_bound(n, k) + 1e-12
                )

    def test_equality_at_k_one(self):
        assert non_intersection_probability(34, 1) == pytest.approx(
            non_intersection_upper_bound(34, 1)
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            non_intersection_probability(0, 1)
        with pytest.raises(ValueError):
            non_intersection_probability(5, 6)
        with pytest.raises(ValueError):
            non_intersection_probability(5, 0)


class TestQ:
    def test_q_exact_complement(self):
        assert q_exact(4, 2) == pytest.approx(5 / 6)
        assert q_exact(34, 1) == pytest.approx(1 / 34)

    def test_q_lower_bound_below_exact(self):
        for n in (12, 34):
            for k in range(1, n // 2 + 1):
                assert q_lower_bound(n, k) <= q_exact(n, k) + 1e-12

    def test_q_grows_with_k(self):
        values = [q_exact(34, k) for k in range(1, 18)]
        assert values == sorted(values)

    def test_q_one_when_strict(self):
        assert q_exact(10, 6) == 1.0


class TestTheorem1:
    def test_decays_geometrically(self):
        values = [theorem1_survival_bound(34, 6, ell) for ell in range(10)]
        for previous, current in zip(values, values[1:]):
            assert current <= previous
        # Eventually tiny.
        assert theorem1_survival_bound(34, 6, 50) < 1e-3

    def test_clamped_at_one(self):
        assert theorem1_survival_bound(34, 6, 0) == 1.0

    def test_ell_validation(self):
        with pytest.raises(ValueError):
            theorem1_survival_bound(34, 6, -1)
        with pytest.raises(ValueError):
            theorem1_survival_exact(34, 6, -1)

    def test_exact_equals_brute_force_enumeration(self):
        # Average over every write quorum and every ell-tuple of later
        # quorums: survival = some replica is in none of the later ones.
        n, k, ell = 6, 2, 2
        quorums = [set(q) for q in itertools.combinations(range(n), k)]
        survived = sum(
            any(all(r not in later for later in rest) for r in first)
            for first in quorums
            for rest in itertools.product(quorums, repeat=ell)
        )
        brute = survived / len(quorums) ** (ell + 1)
        assert theorem1_survival_exact(n, k, ell) == pytest.approx(brute)
        assert brute == pytest.approx(0.728889, abs=1e-6)

    @pytest.mark.parametrize("n,k,ell", [(6, 2, 2), (16, 4, 3), (34, 6, 9)])
    def test_exact_first_term_is_the_unclamped_bound(self, n, k, ell):
        # Inclusion-exclusion's j=1 term is k * (C(n-1,k)/C(n,k))^ell.
        first = k * (math.comb(n - 1, k) / math.comb(n, k)) ** ell
        assert min(1.0, first) == pytest.approx(
            theorem1_survival_bound(n, k, ell)
        )
        assert theorem1_survival_exact(n, k, ell) <= first + 1e-12

    def test_exact_where_the_bound_is_vacuous(self):
        assert theorem1_survival_bound(34, 4, 10) == 1.0
        assert theorem1_survival_exact(34, 4, 10) == pytest.approx(
            0.7502, abs=5e-5
        )
        assert theorem1_survival_exact(34, 4, 0) == pytest.approx(1.0)


class TestConvergenceBounds:
    def test_paper_figure2_anchor_value(self):
        # Section 7: at k=1, the bound is 6 * 34 = 204 rounds.
        assert corollary6_rounds_bound(6, q_lower_bound(34, 1)) == pytest.approx(204.0)

    def test_corollary7_bound_between_one_and_two_at_sqrt_n(self):
        # The paper uses 1 < c_n < 2 when k = sqrt(n) (Eqn 3).
        for n in (16, 25, 36, 100, 400):
            k = int(math.sqrt(n))
            c_n = corollary7_rounds_per_pseudocycle_bound(n, k)
            assert 1.0 < c_n < 2.0

    def test_corollary7_decreasing_in_k(self):
        values = [
            corollary7_rounds_per_pseudocycle_bound(34, k) for k in range(1, 18)
        ]
        assert values == sorted(values, reverse=True)

    def test_expected_rounds_bound(self):
        assert expected_rounds_upper_bound(0.5) == 2.0
        with pytest.raises(ValueError):
            expected_rounds_upper_bound(1.0001)

    def test_geometric_pmf_bound(self):
        assert geometric_pmf_bound(0.5, 1) == 0.5
        assert geometric_pmf_bound(0.5, 3) == 0.125
        with pytest.raises(ValueError):
            geometric_pmf_bound(0.5, 0)

    def test_corollary6_validation(self):
        with pytest.raises(ValueError):
            corollary6_rounds_bound(-1, 0.5)


class TestNaorWool:
    def test_minimised_at_sqrt_n(self):
        n = 100
        loads = {k: naor_wool_load_lower_bound(n, k) for k in range(1, n + 1)}
        best_k = min(loads, key=loads.get)
        assert best_k == 10
        assert loads[best_k] == pytest.approx(0.1)

    def test_extremes(self):
        assert naor_wool_load_lower_bound(10, 1) == 1.0
        assert naor_wool_load_lower_bound(10, 10) == 1.0


class TestMessageFormulas:
    def test_messages_per_round_formula(self):
        # 2pmk + 2mk with p=34, m=34, k=6.
        assert messages_per_round(34, 34, 6) == 2 * 34 * 34 * 6 + 2 * 34 * 6

    def test_strict_equals_one_round(self):
        assert messages_per_pseudocycle_strict(6, 34, 34) == messages_per_round(
            34, 34, 6
        )

    def test_probabilistic_pays_c_n_factor(self):
        m_str = messages_per_pseudocycle_strict(6, 34, 34)
        m_prob = messages_per_pseudocycle_probabilistic(6, 34, 34, n=34)
        assert m_prob > m_str
        assert m_prob / m_str == pytest.approx(
            corollary7_rounds_per_pseudocycle_bound(34, 6)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            messages_per_round(0, 1, 1)


class TestRegimeComparisons:
    def test_high_availability_prob_wins_and_gap_grows(self):
        small = high_availability_comparison(64, m=10, p=10)
        large = high_availability_comparison(1024, m=10, p=10)
        assert small["strict_over_prob"] > 1.0
        assert large["strict_over_prob"] > small["strict_over_prob"]

    def test_high_availability_ratio_theta_sqrt_n(self):
        # ratio ~ (n/2) / (c_n sqrt(n)) ~ sqrt(n)/(2 c_n).
        row = high_availability_comparison(400, m=5, p=5)
        expected = (400 // 2 + 1) / (row["c_n"] * 20)
        assert row["strict_over_prob"] == pytest.approx(expected, rel=0.01)

    def test_optimal_load_near_tie_with_availability_gap(self):
        row = optimal_load_comparison(144, m=10, p=10)
        assert 1.0 < row["prob_over_strict"] < 2.0  # only the c_n factor
        assert row["availability_probabilistic"] > row["availability_strict_grid"]

    def test_validation(self):
        with pytest.raises(ValueError):
            high_availability_comparison(1, 2, 2)
        with pytest.raises(ValueError):
            optimal_load_comparison(1, 2, 2)
