"""E-FIG2 / E-COR7: regenerate Figure 2 (quorum size vs rounds).

Paper artifact: Figure 2 of Section 7 — rounds to convergence for
{monotone, non-monotone} x {sync, async} across quorum sizes, plus the
Corollary 7 bound curve, APSP on a unit-weight chain.

Qualitative claims verified:
* monotone converges everywhere; at small k it beats non-monotone;
* the Corollary 7 bound dominates the monotone measurements and is very
  loose at k=1 (204 vs ~12 at paper scale);
* a small monotone quorum (~4) performs like a strict one;
* sync and async measurements are close.
"""

from repro.analysis.theory import corollary6_rounds_bound, q_lower_bound
from repro.experiments import EXPERIMENTS
from repro.experiments.figure2 import figure2_table, run_figure2

from bench_utils import save_and_print


def test_figure2(benchmark, output_dir):
    config = EXPERIMENTS["figure2"].config()
    points = benchmark.pedantic(
        run_figure2, args=(config,), rounds=1, iterations=1
    )
    table = figure2_table(config, points)
    save_and_print(table, output_dir, "figure2")

    by_cell = {(p.variant, p.quorum_size): p for p in points}
    pseudocycles_by_k = {
        k: corollary6_rounds_bound(
            _contraction_depth(config), q_lower_bound(config.num_servers, k)
        )
        for k in config.quorum_sizes
    }

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


def _contraction_depth(config):
    from repro.apps.apsp import ApspACO
    from repro.apps.graphs import chain_graph

    return ApspACO(chain_graph(config.num_vertices)).contraction_depth()
