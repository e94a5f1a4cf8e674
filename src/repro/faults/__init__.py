"""Fault injection and graceful degradation for the serving stack.

Deterministic, seedable chaos engineering for the multi-session runtime:
input faults on the sensing chain (frame drops, noise bursts, eyelid
occlusion, MIPI bit errors), serving faults with recovery (worker
crashes/stalls/latency spikes, retry + backoff, per-worker circuit
breakers), and a tracking-quality watchdog that trades foveal-region
size and prediction freshness for robustness before falling back to
full-resolution rendering.  ``python -m repro chaos`` runs a scenario.
"""

from repro.faults.config import (
    DEFAULT_TRACKER_PROFILE,
    ChaosConfig,
    InputFaultConfig,
    LatencySpike,
    RecoveryConfig,
    SoftErrorConfig,
    WorkerCrash,
    WorkerFaultSchedule,
    WorkerStall,
    default_chaos_scenario,
)
from repro.faults.injectors import (
    OCCLUSION_BLIND_OPENNESS,
    FaultyMipiLink,
    FaultySensor,
    InputFaultTrace,
    ProcessKill,
    SimulatedCrash,
    inject_input_faults,
)
from repro.faults.netfaults import GraySlow, LinkProfile, PartitionWindow, ShardKill
from repro.faults.runtime import ChaosModel, build_chaos_fleet, chaos_runtime, run_chaos
from repro.serve.breaker import BreakerState, CircuitBreaker

__all__ = [
    "BreakerState",
    "ChaosConfig",
    "ChaosModel",
    "CircuitBreaker",
    "DEFAULT_TRACKER_PROFILE",
    "FaultyMipiLink",
    "FaultySensor",
    "GraySlow",
    "InputFaultConfig",
    "InputFaultTrace",
    "LatencySpike",
    "LinkProfile",
    "OCCLUSION_BLIND_OPENNESS",
    "PartitionWindow",
    "ProcessKill",
    "RecoveryConfig",
    "ShardKill",
    "SimulatedCrash",
    "SoftErrorConfig",
    "WorkerCrash",
    "WorkerFaultSchedule",
    "WorkerStall",
    "build_chaos_fleet",
    "chaos_runtime",
    "default_chaos_scenario",
    "inject_input_faults",
    "run_chaos",
]
