"""Tests for the experiment harnesses and the paper's claims.

The classes run each experiment module at reduced scale on configs of
their own.  The module-level tests after them are the paper's
*qualitative* claims (EXPERIMENTS.md records each at paper scale), one
test per claim, checked on the tables the experiment registry builds:
``scaled_down()`` by default, paper scale under ``REPRO_FULL=1``.
"""

import collections
import math

import numpy as np
import pytest

from repro.analysis.latency import expected_max_of_exponentials
from repro.analysis.theory import q_exact, theorem1_survival_bound
from repro.experiments import EXPERIMENTS
from repro.experiments.ablations import (
    AblationConfig,
    delay_ablation,
    monotone_ablation,
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


# ---------------------------------------------------------------------------
# The paper's claims, on the registry's own tables.  Each test keeps one
# claim's predicate and constants; each experiment is built once per
# session at ``EXPERIMENTS[name].config()``: ``scaled_down()``, or paper
# scale under ``REPRO_FULL=1`` (the tables ``python -m repro.cli all
# --full`` writes to ``benchmarks/output/full/``).  Worker count comes from
# ``REPRO_JOBS``, serial when it is unset; the tables are the same either way.


@pytest.fixture(scope="session")
def built():
    """``built(name)`` -> ``(config, {output stem: table})``."""
    memo = {}

    def build(name):
        if name not in memo:
            experiment = EXPERIMENTS[name]
            config = experiment.config()
            memo[name] = config, dict(experiment.tables(config))
        return memo[name]

    return build


def _rows(table):
    """The table's rows keyed by their first column, as column -> value."""
    return {row[0]: dict(zip(table.columns, row)) for row in table.rows}


def test_ablation_monotone_cache(built):
    # Section 6's monotone cache is *the* design contribution.
    _, tables = built("ablations")
    table = tables["ablations_0"]
    ratios = table.column("plain_over_monotone")
    ks = table.column("k")
    # The cache helps most at the smallest quorum sizes...
    assert ratios[0] >= 1.0
    # ...and matters little once quorums are large (near-strict).
    assert ratios[-1] <= ratios[0] + 0.5
    assert ks == sorted(ks)


def test_ablation_delay_distribution(built):
    _, tables = built("ablations")
    table = tables["ablations_1"]
    assert all(table.column("all_converged"))
    rounds = table.column("mean_rounds")
    # Section 7's claim: the round structure averages delays out, so even
    # a heavy-tailed distribution stays within a small factor.
    assert max(rounds) <= 3.0 * min(rounds)


def test_ablation_topology(built):
    _, tables = built("ablations")
    rows = _rows(tables["ablations_2"])
    # Rounds track the pseudocycle bound M: the diameter-1 complete graph
    # needs the fewest rounds, the chain the most.
    assert rows["complete"]["mean_rounds"] <= rows["chain"]["mean_rounds"]
    assert rows["complete"]["M_bound"] <= rows["chain"]["M_bound"]


def test_churn(built):
    # Convergence survives every churn rate, with no membership protocol.
    _, tables = built("churn")
    table = tables["churn"]
    assert all(table.column("all_converged"))
    times = table.column("mean_sim_time")
    # The calm baseline (period rendered as inf) is the cheapest run.
    assert times[0] <= min(times) + 1e-9
    assert min(times) >= 0


def test_fault_tolerance(built):
    # Section 4's availability story, live: crashes mid-run, retry with
    # fresh random quorums against the strict grid.
    _, tables = built("fault")
    rows = _rows(tables["fault_tolerance"])
    assert rows[0]["prob_converged"] and rows[0]["grid_converged"]
    heavy = max(rows)
    assert rows[heavy]["prob_converged"], "probabilistic must survive crashes"
    assert not rows[heavy]["grid_converged"], "grid must stall after row kill"
    for crashes, row in rows.items():
        if row["prob_converged"] and rows[0]["prob_converged"]:
            assert row["prob_rounds"] >= rows[0]["prob_rounds"] - 2


#: One Figure 2 cell: a variant's mean rounds at one k, as the table
#: prints it (two decimals), and whether every run converged (no ">=").
_Figure2Cell = collections.namedtuple("_Figure2Cell", "mean_rounds all_converged")


def test_figure2(built):
    # Figure 2 and Corollary 7: monotone converges everywhere and beats
    # non-monotone at small k; the bound is loose at k=1 (204 vs ~12 in
    # the paper); a small monotone quorum performs like a strict one;
    # sync and async are close.
    config, tables = built("figure2")
    table = tables["figure2"]
    by_cell = {
        (variant, row[0]): _Figure2Cell(
            float(cell.lstrip(">=")), not cell.startswith(">=")
        )
        for row in table.rows
        for variant, cell in zip(table.columns[2:], row[2:])
    }
    pseudocycles_by_k = dict(zip(table.column("k"), table.column("cor7_bound")))

    smallest_k = min(config.quorum_sizes)
    largest_k = max(config.quorum_sizes)
    for variant in ("monotone/sync", "monotone/async"):
        for k in config.quorum_sizes:
            point = by_cell[(variant, k)]
            # Monotone registers always converge.
            assert point.all_converged, (variant, k)
        # The Corollary 7 bound is loose at k=1 (204 vs ~12 in the paper).
        assert (
            by_cell[(variant, smallest_k)].mean_rounds
            < pseudocycles_by_k[smallest_k]
        )
    # Monotone no slower than non-monotone at the smallest quorum size.
    mono = by_cell[("monotone/sync", smallest_k)].mean_rounds
    plain_point = by_cell[("non-monotone/sync", smallest_k)]
    assert mono <= plain_point.mean_rounds
    # A small monotone quorum performs like a near-strict one: within a
    # small factor of the largest quorum size measured.
    near_strict = by_cell[("monotone/sync", largest_k)].mean_rounds
    mid_k = sorted(config.quorum_sizes)[len(config.quorum_sizes) // 2]
    assert by_cell[("monotone/sync", mid_k)].mean_rounds <= 2.5 * near_strict
    # Sync vs async: same ballpark (paper: "do not reveal much difference").
    for k in config.quorum_sizes:
        sync = by_cell[("monotone/sync", k)].mean_rounds
        async_ = by_cell[("monotone/async", k)].mean_rounds
        assert async_ <= 2.5 * sync + 2 and sync <= 2.5 * async_ + 2


def test_theorem4_freshness(built):
    # Theorem 4: the wait Y is dominated by Geometric(q), so E[Y] <= 1/q.
    config, tables = built("freshness")
    rows = _rows(tables["freshness"])
    q = q_exact(config.num_servers, config.quorum_size)
    mean = rows["E[Y] (expected reads)"]["quorum_mc"]
    assert mean <= 1.0 / q + 0.1
    # Geometric tail domination at several points (the table keeps the
    # mean only; the tail reads the Monte Carlo samples again).
    samples = quorum_level_wait_samples(config)
    slack = 0.01 if config.trials >= 50_000 else 0.03
    for r in (1, 2, 3, 5, 8, 13):
        assert empirical_tail(samples, r) <= (1.0 - q) ** (r - 1) + slack


def test_theorem4_register_level():
    config = EXPERIMENTS["freshness"].config()
    samples = register_level_wait_samples(config, num_writes=100)
    assert len(samples) >= 50
    q = q_exact(config.num_servers, config.quorum_size)
    # The register-level wait includes catch-up paths the analysis
    # ignores, so the mean sits at or below the 1/q bound.
    assert float(np.mean(samples)) <= 1.0 / q + 0.5


def test_latency_vs_load(built):
    # An operation waits for its slowest quorum member: latency grows
    # like mean·H_k while load spreads as k/n.
    config, tables = built("latency")
    table = tables["latency"]
    ks = table.column("k")
    read_means = table.column("read_mean")
    # Latency grows with quorum size.
    assert read_means == sorted(read_means), list(zip(ks, read_means))
    for k, mean in zip(ks, read_means):
        floor = expected_max_of_exponentials(config.mean_delay, k)
        assert mean >= floor, (k, mean, floor)
    for share in table.column("busiest_server_share"):
        assert 0.0 < share <= 1.0


def test_load_availability_table(built):
    # Section 4: probabilistic quorums have optimal load *and* high
    # availability, which no strict system has at once.
    _, tables = built("load")
    rows = _rows(tables["load_availability_0"])
    prob = rows["probabilistic (k=sqrt n)"]
    majority = rows["majority"]
    grid = rows["grid"]

    # Optimal load: probabilistic well below majority, near grid.
    assert prob["empirical_load"] < 0.7 * majority["empirical_load"]
    # High availability: probabilistic near majority, far above grid.
    assert prob["availability"] >= 0.5 * majority["availability"]
    assert prob["availability"] > 2 * grid["availability"]
    # Monte Carlo load agrees with the analytic value (max over servers
    # biases slightly high).
    for name, row in rows.items():
        assert row["empirical_load"] == pytest.approx(
            row["analytic_load"], rel=0.35
        ), name


def test_tradeoff_sweep(built):
    _, tables = built("load")
    table = tables["load_availability_1"]
    prob_loads = table.column("prob_load")
    majority_loads = table.column("majority_load")
    prob_avail = table.column("prob_avail")
    grid_avail = table.column("grid_avail")
    # Probabilistic load decays with n while majority stays near 1/2.
    assert prob_loads[-1] < prob_loads[0]
    assert all(load > 0.4 for load in majority_loads)
    # The availability gap (prob vs grid) widens with n.
    gaps = [p - g for p, g in zip(prob_avail, grid_avail)]
    assert gaps == sorted(gaps)


def test_message_complexity_analytic(built):
    # Section 6.4, Eqns 1-3: a Θ(√n) win over majority in the
    # high-availability regime, a c_n ∈ (1, 2) factor against grid in the
    # optimal-load regime.
    _, tables = built("messages")
    availability, load = tables["messages_0"], tables["messages_1"]
    ratios = availability.column("strict_over_prob")
    assert ratios == sorted(ratios)
    assert ratios[-1] > ratios[0] * 1.5  # Θ(√n) growth
    for c_factor in load.column("prob_over_strict"):
        assert 1.0 < c_factor < 2.0
    for prob_avail, grid_avail in zip(
        load.column("availability_probabilistic"),
        load.column("availability_strict_grid"),
    ):
        assert prob_avail > grid_avail


def test_message_complexity_measured(built):
    _, tables = built("messages")
    rows = _rows(tables["messages_2"])
    prob = rows["probabilistic k=sqrt(n)"]
    majority = rows["strict majority"]
    grid = rows["strict grid"]
    assert prob["converged"] and majority["converged"] and grid["converged"]
    # Per-round cost ordered by quorum size: probabilistic < majority.
    assert prob["messages_per_round"] < majority["messages_per_round"]
    # The availability story: probabilistic beats grid, matches majority's
    # order of magnitude.
    assert prob["availability"] > grid["availability"]


def test_rounds_per_pseudocycle(built):
    # Theorem 5 / Corollary 7, measured per pseudocycle from the register
    # histories: the bound is loose at k=1 and tight at large k.
    _, tables = built("pseudocycles")
    table = tables["pseudocycles"]
    measured = table.column("measured_rounds_per_pc")
    cor7 = table.column("corollary7_bound")
    ks = table.column("k")
    for k, m, bound in zip(ks, measured, cor7):
        assert m == m, f"no converged runs at k={k}"  # not NaN
        # The measured ratio carries ~1-2 rounds of fixed overhead
        # (startup, convergence observation, the final partial
        # pseudocycle) that the steady-state bound does not model.
        assert m <= bound + 2.0, (k, m, bound)
    # Ratio shrinks with k.
    assert measured[-1] <= measured[0]
    # Loose at the smallest k, tight at the largest.
    assert cor7[0] / measured[0] > cor7[-1] / max(measured[-1], 1.0)


def test_theorem1_survival(built):
    # Theorem 1's bound, Pr[a write's quorum survives ℓ later writes]
    # <= k((n-k)/n)^ℓ, and the decay to zero that is condition [R3].
    config, tables = built("survival")
    table = tables["survival"]
    measured = dict(zip(table.column("ell"), table.column("quorum_mc")))
    slack = 0.02 if config.trials >= 10_000 else 0.05
    for ell, probability in measured.items():
        bound = theorem1_survival_bound(
            config.num_servers, config.quorum_size, ell
        )
        assert probability <= bound + slack, (ell, probability, bound)
    # Decay to (near) zero: the [R3] mechanism.
    assert measured[config.max_lag] < 0.5 * max(measured[1], 0.1)


def test_theorem1_register_level():
    config = EXPERIMENTS["survival"].config()
    counts = register_level_survival(config, num_readers=3, num_writes=120)
    meaningful = {
        ell: (s, t) for ell, (s, t) in counts.items() if t >= 30 and ell >= 1
    }
    assert meaningful, "register-level run produced too few samples"
    for ell, (survivals, trials) in meaningful.items():
        bound = theorem1_survival_bound(
            config.num_servers, config.quorum_size, ell
        )
        assert survivals / trials <= min(1.0, bound) + 0.1


def test_quorum_tuning(built):
    # k = c·√n: rounds flatten past c ≈ 1 (the paper's "a small quorum
    # (say 4) is as good as a large one") while load grows linearly in c.
    _, tables = built("tuning")
    table = tables["quorum_tuning"]
    rounds = table.column("mean_rounds")
    loads = table.column("load")
    cs = table.column("c")
    assert all(r == r for r in rounds), "every c must converge"
    # Rounds do not increase with c (within 1 round of noise).
    for smaller, larger in zip(rounds, rounds[1:]):
        assert larger <= smaller + 1.0
    # Flattening: the last doubling of c buys much less than the first.
    first_gain = rounds[0] - rounds[1]
    last_gain = rounds[-2] - rounds[-1]
    assert first_gain >= last_gain - 0.5
    # Load keeps growing.
    assert loads == sorted(loads)
    assert cs == sorted(cs)
