"""Tests for the churn experiment."""

from repro.exec.task import execute_task
from repro.experiments.churn import ChurnConfig, churn_table, churn_task


def churn_run(period):
    """One scaled-down churn run, as the experiment's sweep executes it."""
    return execute_task(churn_task(ChurnConfig.scaled_down(), period))


def test_no_churn_baseline_converges():
    outcome = churn_run(0.0)
    assert outcome["converged"]
    assert outcome["ops_under_failure"] == 0


def test_convergence_survives_churn():
    outcome = churn_run(20.0)
    assert outcome["converged"]


def test_churn_costs_time():
    calm = churn_run(0.0)
    churned = churn_run(15.0)
    assert churned["converged"]
    assert churned["sim_time"] >= calm["sim_time"]


def test_table_shape():
    config = ChurnConfig(num_vertices=6, num_servers=12,
                         churn_periods=(0.0, 25.0), runs=1)
    table = churn_table(config)
    assert len(table) == 2
    assert all(table.column("all_converged"))
