"""E-LOADAVAIL: regenerate the Section 4 load/availability comparison.

Paper artifact: the Section 4 discussion (after Naor-Wool and Peleg-Wool)
— strict systems trade load against availability; probabilistic quorums
achieve optimal Θ(1/√n) load *and* Θ(n) availability simultaneously.

Qualitative claims verified:
* probabilistic load ≈ grid/FPP load ≪ majority load;
* probabilistic availability ≈ majority availability ≫ grid/FPP;
* empirical Monte Carlo loads match the analytic values;
* the trade-off sweep shows the gap widening with n.
"""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.load_availability import (
    load_availability_experiment,
    tradeoff_sweep,
)

from bench_utils import regenerate


def test_load_availability_table(benchmark, output_dir):
    config = EXPERIMENTS["load"].config()
    table = regenerate(
        benchmark, output_dir, "load_availability",
        load_availability_experiment, config,
    )

    rows = {row[0]: dict(zip(table.columns, row)) for row in table.rows}
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


def test_tradeoff_sweep(benchmark, output_dir):
    n_values = EXPERIMENTS["load"].config().tradeoff_n_values
    table = regenerate(
        benchmark, output_dir, "tradeoff_sweep", tradeoff_sweep, n_values
    )

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
