"""The Üresin-Dubois framework for asynchronous iterative algorithms.

Implements Section 5 of the paper:

* :class:`ACO` — asynchronously contracting operators, the class of
  functions whose asynchronous iterations converge (Üresin-Dubois '90).
* :mod:`repro.iterative.update_sequence` — update sequences built from
  *change* and *view* functions, validators for conditions [A1]-[A3], and
  pseudocycle extraction per [B1]-[B2] (used to verify Theorem 2 directly,
  without the simulator).
* :class:`Alg1Runner` — the paper's Alg. 1: p processes over a
  :class:`~repro.registers.deployment.RegisterDeployment`, each repeatedly
  reading every register, applying F, and writing the registers it owns,
  with round accounting and convergence detection exactly as Section 7
  describes.
"""

from repro.iterative.aco import ACO, ACOError, synchronous_fixed_point
from repro.iterative.partition import block_partition, owner_of
from repro.iterative.update_sequence import (
    UpdateSequenceError,
    check_a1_views_from_past,
    check_a2_all_components_update,
    check_a3_views_finitely_used,
    extract_pseudocycles,
    iterate_update_sequence,
    round_robin_change,
    synchronous_change,
)
from repro.iterative.rounds import RoundTracker
from repro.iterative.convergence import ConvergenceMonitor
from repro.iterative.runner import Alg1Result, Alg1Runner
from repro.iterative.trace import (
    TraceError,
    measure_pseudocycles,
    reconstruct_update_sequence,
    rounds_per_pseudocycle,
)

__all__ = [
    "ACO",
    "ACOError",
    "Alg1Result",
    "Alg1Runner",
    "ConvergenceMonitor",
    "RoundTracker",
    "TraceError",
    "UpdateSequenceError",
    "block_partition",
    "measure_pseudocycles",
    "reconstruct_update_sequence",
    "rounds_per_pseudocycle",
    "check_a1_views_from_past",
    "check_a2_all_components_update",
    "check_a3_views_finitely_used",
    "extract_pseudocycles",
    "iterate_update_sequence",
    "owner_of",
    "round_robin_change",
    "synchronous_change",
    "synchronous_fixed_point",
]
