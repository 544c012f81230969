"""Tests for the experiment harnesses (scaled-down configurations).

Each experiment module is run at reduced scale and checked for the
*qualitative* properties the paper reports — the same checks
EXPERIMENTS.md records at full scale.
"""

import math

import pytest

from repro.analysis.theory import q_exact, theorem1_survival_bound
from repro.experiments.ablations import (
    AblationConfig,
    delay_ablation,
    monotone_ablation,
    topology_ablation,
)
from repro.experiments.figure2 import (
    Figure2Config,
    Figure2Point,
    corollary7_curve,
    figure2_table,
    run_figure2,
)
from repro.experiments.freshness import (
    FreshnessConfig,
    empirical_tail,
    quorum_level_wait_samples,
    register_level_wait_samples,
)
from repro.experiments.load_availability import (
    LoadAvailabilityConfig,
    build_systems,
    load_availability_experiment,
    tradeoff_sweep,
)
from repro.experiments.message_complexity import (
    MessageComplexityConfig,
    analytic_tables,
    measured_table,
)
from repro.experiments.survival import (
    SurvivalConfig,
    check_bound_holds,
    quorum_level_survival,
    register_level_survival,
    survival_table,
)


class TestFigure2:
    @pytest.fixture(scope="class")
    def sweep(self):
        config = Figure2Config(
            num_vertices=8,
            num_servers=8,
            quorum_sizes=(1, 2, 4),
            runs_per_point=2,
            max_rounds=150,
        )
        return config, run_figure2(config)

    def test_every_cell_present(self, sweep):
        config, points = sweep
        assert len(points) == 4 * 3  # variants x quorum sizes

    def test_monotone_always_converges(self, sweep):
        config, points = sweep
        for point in points:
            if point.variant.startswith("monotone"):
                assert point.all_converged, point

    def test_rounds_decrease_with_quorum_size_monotone_sync(self, sweep):
        config, points = sweep
        series = {
            p.quorum_size: p.mean_rounds
            for p in points
            if p.variant == "monotone/sync"
        }
        assert series[4] <= series[1]

    def test_monotone_no_worse_than_non_monotone(self, sweep):
        config, points = sweep
        for k in config.quorum_sizes:
            mono = next(
                p for p in points
                if p.variant == "monotone/sync" and p.quorum_size == k
            )
            plain = next(
                p for p in points
                if p.variant == "non-monotone/sync" and p.quorum_size == k
            )
            assert mono.mean_rounds <= plain.mean_rounds + 1.0

    def test_table_rendering(self, sweep):
        config, points = sweep
        table = figure2_table(config, points)
        text = table.to_text()
        assert "cor7_bound" in text
        assert len(table) == len(config.quorum_sizes)

    def test_corollary7_curve_anchor(self):
        config = Figure2Config()  # paper scale: n = 34, M = 6
        curve = corollary7_curve(config, pseudocycles=6)
        assert curve[1] == pytest.approx(204.0)

    def test_lower_bound_flagging(self):
        point = Figure2Point("v", 1, rounds=[10, 20], converged=[True, False])
        assert point.is_lower_bound
        assert point.mean_rounds == 15.0


class TestSurvival:
    @pytest.fixture(scope="class")
    def config(self):
        return SurvivalConfig(
            num_servers=16, quorum_size=4, max_lag=6, trials=4000, seed=3
        )

    def test_monte_carlo_within_theorem1_bound(self, config):
        assert check_bound_holds(config, slack=0.02) == []

    def test_survival_decays_with_lag(self, config):
        survival = quorum_level_survival(config)
        assert survival[0] == 1.0
        assert survival[config.max_lag] < survival[1]

    def test_register_level_consistent_with_bound(self, config):
        counts = register_level_survival(config, num_readers=3, num_writes=80)
        for ell, (survivals, trials) in counts.items():
            if trials < 30 or ell == 0:
                continue
            bound = theorem1_survival_bound(
                config.num_servers, config.quorum_size, ell
            )
            assert survivals / trials <= min(1.0, bound) + 0.1

    def test_table_has_all_lags(self, config):
        table = survival_table(
            SurvivalConfig(num_servers=12, quorum_size=3, max_lag=4,
                           trials=500, seed=5)
        )
        assert table.column("ell") == [0, 1, 2, 3, 4]


class TestFreshness:
    @pytest.fixture(scope="class")
    def config(self):
        return FreshnessConfig(num_servers=16, quorum_size=4, trials=4000, seed=4)

    def test_empirical_mean_below_paper_bound(self, config):
        samples = quorum_level_wait_samples(config)
        q = q_exact(config.num_servers, config.quorum_size)
        assert sum(samples) / len(samples) <= 1.0 / q + 0.2

    def test_tail_dominated_by_geometric(self, config):
        samples = quorum_level_wait_samples(config)
        q = q_exact(config.num_servers, config.quorum_size)
        for r in (1, 2, 4, 8):
            assert empirical_tail(samples, r) <= (1 - q) ** (r - 1) + 0.03

    def test_register_level_has_samples(self, config):
        samples = register_level_wait_samples(config, num_writes=60)
        assert len(samples) >= 30
        assert all(s >= 1 for s in samples)

    def test_empirical_tail_validation(self):
        with pytest.raises(ValueError):
            empirical_tail([], 1)


class TestMessageComplexity:
    def test_analytic_tables_shapes(self):
        availability, load = analytic_tables([16, 64, 256], m=8, p=8)
        ratios = availability.column("strict_over_prob")
        assert ratios == sorted(ratios)  # grows with n
        assert all(r > 1 for r in ratios[1:])
        for value in load.column("prob_over_strict"):
            assert 1.0 < value < 2.0

    def test_measured_table_probabilistic_cheapest_per_round(self):
        config = MessageComplexityConfig.scaled_down()
        table = measured_table(config)
        per_round = dict(
            zip(table.column("system"), table.column("messages_per_round"))
        )
        assert (
            per_round["probabilistic k=sqrt(n)"]
            < per_round["strict majority"]
        )
        assert all(table.column("converged"))


class TestLoadAvailability:
    def test_build_systems_has_core_entries(self):
        systems = build_systems(16)
        assert "probabilistic (k=sqrt n)" in systems
        assert "majority" in systems
        assert "grid" in systems

    def test_probabilistic_breaks_tradeoff(self):
        table = load_availability_experiment(
            LoadAvailabilityConfig(num_servers=16, trials=800, seed=1)
        )
        rows = {
            row[0]: dict(zip(table.columns, row)) for row in table.rows
        }
        prob = rows["probabilistic (k=sqrt n)"]
        majority = rows["majority"]
        grid = rows["grid"]
        # Low load (like grid, unlike majority) AND high availability
        # (like majority, unlike grid).
        assert prob["empirical_load"] < majority["empirical_load"] / 1.3
        assert prob["availability"] > grid["availability"] * 2
        assert prob["failure_prob"] <= majority["failure_prob"] + 0.05

    def test_table_rows(self):
        table = load_availability_experiment(
            LoadAvailabilityConfig(num_servers=9, trials=200, seed=1)
        )
        names = table.column("system")
        assert names == sorted(names)
        for row in table.rows:
            row = dict(zip(table.columns, row))
            assert row["strict"] is (row["system"] != "probabilistic (k=sqrt n)")
            assert 0.0 < row["empirical_load"] <= 1.0
            assert row["availability"] >= 1

    def test_tradeoff_sweep_columns(self):
        table = tradeoff_sweep([9, 16], seed=2, trials=300)
        assert len(table) == 2
        for n, avail in zip(table.column("n"), table.column("prob_avail")):
            assert avail == n - math.ceil(math.sqrt(n)) + 1


class TestAblations:
    @pytest.fixture(scope="class")
    def config(self):
        return AblationConfig.scaled_down()

    def test_monotone_ablation_ratio_at_least_one(self, config):
        table = monotone_ablation(config)
        for ratio in table.column("plain_over_monotone"):
            assert ratio >= 0.8  # noise floor; typically >= 1

    def test_delay_ablation_all_converge(self, config):
        table = delay_ablation(config)
        assert all(table.column("all_converged"))

    def test_delay_ablation_robust_to_distribution(self, config):
        table = delay_ablation(config)
        rounds = table.column("mean_rounds")
        # The paper's claim: delay distribution has little effect.
        assert max(rounds) <= 3.0 * min(rounds)

    def test_topology_ablation_diameter_drives_rounds(self, config):
        table = topology_ablation(config)
        rows = dict(zip(table.column("topology"), table.column("mean_rounds")))
        assert rows["complete"] <= rows["chain"]
