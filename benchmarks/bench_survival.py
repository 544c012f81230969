"""E-THM1: validate Theorem 1's write-survival bound.

Paper artifact: the bound inside Theorem 1's proof —
Pr[some replica of a write's quorum survives ℓ subsequent writes]
<= k ((n-k)/n)^ℓ — which drives condition [R3].

Qualitative claims verified:
* the Monte Carlo survival probability never exceeds the bound (within
  sampling slack) at any lag;
* survival decays towards 0 as the lag grows (writes stop being read
  from, which is exactly [R3]);
* the register-level measurement from a real deployment is consistent.
"""

from repro.analysis.theory import theorem1_survival_bound
from repro.experiments import EXPERIMENTS
from repro.experiments.survival import (
    quorum_level_survival,
    register_level_survival,
    survival_table,
)

from bench_utils import regenerate


def test_theorem1_survival(benchmark, output_dir):
    config = EXPERIMENTS["survival"].config()
    table = regenerate(
        benchmark, output_dir, "theorem1_survival", survival_table, config
    )

    measured = quorum_level_survival(config)
    slack = 0.02 if config.trials >= 10_000 else 0.05
    for ell, probability in measured.items():
        bound = theorem1_survival_bound(
            config.num_servers, config.quorum_size, ell
        )
        assert probability <= bound + slack, (ell, probability, bound)
    # Decay to (near) zero: the [R3] mechanism.
    assert measured[config.max_lag] < 0.5 * max(measured[1], 0.1)


def test_theorem1_register_level(benchmark, output_dir):
    config = EXPERIMENTS["survival"].config()
    counts = benchmark.pedantic(
        register_level_survival,
        args=(config,),
        kwargs={"num_readers": 3, "num_writes": 120},
        rounds=1,
        iterations=1,
    )
    meaningful = {
        ell: (s, t) for ell, (s, t) in counts.items() if t >= 30 and ell >= 1
    }
    assert meaningful, "register-level run produced too few samples"
    for ell, (survivals, trials) in meaningful.items():
        bound = theorem1_survival_bound(
            config.num_servers, config.quorum_size, ell
        )
        assert survivals / trials <= min(1.0, bound) + 0.1
