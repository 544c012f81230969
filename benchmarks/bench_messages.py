"""E-MSG: regenerate the Section 6.4 message-complexity comparison.

Paper artifact: the two regime analyses of Section 6.4 (Eqns 1-3) — the
high-availability regime, where probabilistic quorums beat majority by a
Θ(√n) factor, and the optimal-load regime, where they tie with strict
grid systems while keeping Θ(n) availability — plus a *measured* table
from actual Alg. 1 runs.

Qualitative claims verified:
* analytic: strict/prob ratio grows with n in the availability regime;
* analytic: the optimal-load regime differs only by c_n ∈ (1, 2);
* measured: the probabilistic system sends fewer messages per round than
  majority and all three systems converge.
"""

from repro.experiments import EXPERIMENTS
from repro.experiments.message_complexity import (
    analytic_tables,
    measured_table,
)

from bench_utils import regenerate, save_and_print


def test_message_complexity_analytic(benchmark, output_dir):
    n_values = EXPERIMENTS["messages"].config().analytic_n_values
    availability, load = benchmark.pedantic(
        analytic_tables, args=(n_values, 34, 34), rounds=1, iterations=1
    )
    save_and_print(availability, output_dir, "messages_high_availability")
    save_and_print(load, output_dir, "messages_optimal_load")

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


def test_message_complexity_measured(benchmark, output_dir):
    config = EXPERIMENTS["messages"].config()
    table = regenerate(
        benchmark, output_dir, "messages_measured", measured_table, config
    )

    rows = {row[0]: dict(zip(table.columns, row)) for row in table.rows}
    prob = rows["probabilistic k=sqrt(n)"]
    majority = rows["strict majority"]
    grid = rows["strict grid"]
    assert prob["converged"] and majority["converged"] and grid["converged"]
    # Per-round cost ordered by quorum size: probabilistic < majority.
    assert prob["messages_per_round"] < majority["messages_per_round"]
    # The availability story: probabilistic beats grid, matches majority's
    # order of magnitude.
    assert prob["availability"] > grid["availability"]
