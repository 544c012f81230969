"""E-FAULT: crashes mid-run — the Section 4 availability story, live.

Paper artifact: Section 4's availability comparison, exercised
dynamically: a batch of replica servers crashes while an APSP computation
is running.  Clients retry stalled quorum operations with fresh random
quorums.

Qualitative claims verified:
* with no crashes both systems converge;
* once every grid row has a crash the strict grid stalls forever while
  the probabilistic system still converges;
* crashes slow the probabilistic system down but do not stop it.
"""

from repro.experiments import EXPERIMENTS
from repro.experiments.fault_tolerance import (
    fault_tolerance_table,
)

from bench_utils import regenerate


def test_fault_tolerance(benchmark, output_dir):
    config = EXPERIMENTS["fault"].config()
    table = regenerate(
        benchmark, output_dir, "fault_tolerance", fault_tolerance_table, config
    )

    rows = {row[0]: dict(zip(table.columns, row)) for row in table.rows}
    assert rows[0]["prob_converged"] and rows[0]["grid_converged"]
    heavy = max(rows)
    assert rows[heavy]["prob_converged"], "probabilistic must survive crashes"
    assert not rows[heavy]["grid_converged"], "grid must stall after row kill"
    for crashes, row in rows.items():
        if row["prob_converged"] and rows[0]["prob_converged"]:
            assert row["prob_rounds"] >= rows[0]["prob_rounds"] - 2
