"""Byte-serial SHA-3/SHAKE engine model with cross-parity fault detection."""

from .engine import Engine, ModeConfig, hash_message, mode_params, throughput_model
from .fd import FdRegisters, detectability_predicate
from .faults import FaultPattern, FaultTarget, InjectionSchedule, inject_and_run
from .campaigns import (
    CampaignSpec,
    CampaignReport,
    run_campaign,
    undetected_census,
)

__all__ = [
    "Engine",
    "ModeConfig",
    "hash_message",
    "mode_params",
    "throughput_model",
    "FdRegisters",
    "detectability_predicate",
    "FaultPattern",
    "FaultTarget",
    "InjectionSchedule",
    "inject_and_run",
    "CampaignSpec",
    "CampaignReport",
    "run_campaign",
    "undetected_census",
]
