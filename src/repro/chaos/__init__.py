"""Chaos engineering for the quorum-register stack.

:mod:`repro.chaos.campaign` fans randomized fault/adversary configurations
across the execution engine and checks every run against the online spec
monitor; :mod:`repro.chaos.shrink` reduces a violating configuration to a
minimal deterministic repro; :mod:`repro.chaos.broken` holds deliberately
broken clients used to validate that the pipeline actually catches bugs.
"""

from repro.chaos.campaign import (
    CampaignConfig,
    CampaignResult,
    run_campaign,
)
from repro.chaos.shrink import shrink_violation

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "shrink_violation",
]
