"""Adaptive adversary strategies for the simulated network.

See :mod:`repro.adversary.base` for the interception model and
:mod:`repro.adversary.strategies` for the concrete strategies.
"""

from repro.adversary.base import DROP, Adversary
from repro.adversary.strategies import (
    KINDS,
    CrashTargeterAdversary,
    PartitionOscillatorAdversary,
    RandomHostileAdversary,
    StaleFavoringAdversary,
    ViewChangeRacerAdversary,
)

__all__ = [
    "DROP",
    "Adversary",
    "CrashTargeterAdversary",
    "KINDS",
    "PartitionOscillatorAdversary",
    "RandomHostileAdversary",
    "StaleFavoringAdversary",
    "ViewChangeRacerAdversary",
]
