"""E-ABL-*: ablation benchmarks for the design choices DESIGN.md calls out.

Not a paper table, but the paper motivates each knob:
* the monotone cache (Section 6) is *the* design contribution — ablating
  it quantifies its benefit directly;
* the delay distribution (Section 7 claims sync ≈ async);
* the input topology (M = ⌈log₂ d⌉ drives convergence).
"""

from repro.experiments import EXPERIMENTS
from repro.experiments.ablations import (
    delay_ablation,
    monotone_ablation,
    topology_ablation,
)

from bench_utils import regenerate


def test_ablation_monotone_cache(benchmark, output_dir):
    config = EXPERIMENTS["ablations"].config()
    table = regenerate(
        benchmark, output_dir, "ablation_monotone", monotone_ablation, config
    )
    ratios = table.column("plain_over_monotone")
    ks = table.column("k")
    # The cache helps most at the smallest quorum sizes...
    assert ratios[0] >= 1.0
    # ...and matters little once quorums are large (near-strict).
    assert ratios[-1] <= ratios[0] + 0.5
    assert ks == sorted(ks)


def test_ablation_delay_distribution(benchmark, output_dir):
    config = EXPERIMENTS["ablations"].config()
    table = regenerate(
        benchmark, output_dir, "ablation_delays", delay_ablation, config
    )
    assert all(table.column("all_converged"))
    rounds = table.column("mean_rounds")
    # Section 7's claim: the round structure averages delays out, so even
    # a heavy-tailed distribution stays within a small factor.
    assert max(rounds) <= 3.0 * min(rounds)


def test_ablation_topology(benchmark, output_dir):
    config = EXPERIMENTS["ablations"].config()
    table = regenerate(
        benchmark, output_dir, "ablation_topology", topology_ablation, config
    )
    rows = {
        row[0]: dict(zip(table.columns, row)) for row in table.rows
    }
    # Rounds track the pseudocycle bound M: the diameter-1 complete graph
    # needs the fewest rounds, the chain the most.
    assert rows["complete"]["mean_rounds"] <= rows["chain"]["mean_rounds"]
    assert rows["complete"]["M_bound"] <= rows["chain"]["M_bound"]
