"""repro — probabilistic quorums applied to iterative algorithms.

A full reproduction of Lee & Welch, *Applications of Probabilistic Quorums
to Iterative Algorithms* (ICDCS 2001), as a production-quality library:

* :mod:`repro.sim` — deterministic discrete-event message-passing kernel;
* :mod:`repro.core` — register histories and the executable [R1]-[R5]
  random-register specification;
* :mod:`repro.quorum` — probabilistic and strict quorum systems with
  load/availability analysis;
* :mod:`repro.registers` — the (monotone) probabilistic quorum register
  and strict baselines over simulated replicas;
* :mod:`repro.iterative` — the Üresin-Dubois ACO framework and the
  paper's Alg. 1 runner;
* :mod:`repro.apps` — APSP, SSSP, transitive closure, arc consistency and
  Jacobi as ACOs;
* :mod:`repro.analysis` — the paper's closed-form bounds;
* :mod:`repro.experiments` — harnesses regenerating every table/figure.
* :mod:`repro.specs` — the one codec from plain-data ``{"kind": ...}``
  specs to the objects they describe.

Quickstart::

    from repro import ApspACO, Alg1Runner, ProbabilisticQuorumSystem, chain_graph

    aco = ApspACO(chain_graph(34))
    runner = Alg1Runner(aco, ProbabilisticQuorumSystem(34, 4), monotone=True)
    result = runner.run()
    assert result.converged
"""

import os as _os
import sys as _sys

# ``python -m repro.cli``: no shipped path calls BLAS, so numpy's OpenBLAS
# and OpenMP worker threads, one per core by default, would only spin idle
# beside the simulation and its pool workers (which inherit the setting).
# Python sets sys.argv[0] to "-m" while it imports this package on the way
# to the module it runs, which is before numpy's first import, below.  A
# setting of the user's own wins.
if _sys.argv[:1] == ["-m"]:
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        _os.environ.setdefault(_name, "1")

from repro.apps import (
    ApspACO,
    ArcConsistencyACO,
    ConstraintProblem,
    Graph,
    JacobiACO,
    SsspACO,
    TransitiveClosureACO,
    chain_graph,
    complete_graph,
    grid_graph,
    random_graph,
    ring_graph,
)
from repro.iterative import ACO, Alg1Result, Alg1Runner
from repro.quorum import (
    FppQuorumSystem,
    GridQuorumSystem,
    MajorityQuorumSystem,
    ProbabilisticQuorumSystem,
    SingletonQuorumSystem,
    TreeQuorumSystem,
)
from repro.registers import RegisterDeployment

__version__ = "1.0.0"

__all__ = [
    "ACO",
    "Alg1Result",
    "Alg1Runner",
    "ApspACO",
    "ArcConsistencyACO",
    "ConstraintProblem",
    "FppQuorumSystem",
    "Graph",
    "GridQuorumSystem",
    "JacobiACO",
    "MajorityQuorumSystem",
    "ProbabilisticQuorumSystem",
    "RegisterDeployment",
    "SingletonQuorumSystem",
    "SsspACO",
    "TransitiveClosureACO",
    "TreeQuorumSystem",
    "chain_graph",
    "complete_graph",
    "grid_graph",
    "random_graph",
    "ring_graph",
    "__version__",
]
