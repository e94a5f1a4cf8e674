"""Multi-session gaze-tracking serving runtime.

Simulates a fleet of concurrent HMD clients sharing a pool of batched
POLOViT inference workers: Algorithm-1 saccade/reuse frames are served
on-device at microsecond latencies, while predict-path frames flow
through admission control and a cross-session dynamic batcher.
"""

from repro.serve.batcher import DynamicBatcher
from repro.serve.config import (
    DEFAULT_REUSE_BYPASS_S,
    DEFAULT_SACCADE_BYPASS_S,
    AdmissionPolicy,
    BatchServiceModel,
    ServeConfig,
)
from repro.serve.request import ClientSession, FrameRequest, build_fleet, fleet_requests
from repro.serve.runtime import ServeRuntime, serve_fleet
from repro.serve.telemetry import (
    FaultReport,
    FleetReport,
    SessionStats,
    fleet_report_state,
    format_fault_report,
    format_fleet_report,
)
from repro.serve.workers import (
    DispatchOutcome,
    FaultyWorkerPool,
    LatencySpike,
    WorkerCrash,
    WorkerFaultSchedule,
    WorkerPool,
    WorkerStall,
    WorkerState,
)

from repro.serve.fleet import (
    FailoverConfig,
    FleetConfig,
    FleetRuntime,
    FleetSection,
    HashRing,
    RebalancerConfig,
    SessionMigration,
    ShardKill,
    ShardRuntime,
    run_fleet,
)

__all__ = [
    "AdmissionPolicy",
    "BatchServiceModel",
    "ClientSession",
    "DEFAULT_REUSE_BYPASS_S",
    "DEFAULT_SACCADE_BYPASS_S",
    "DispatchOutcome",
    "DynamicBatcher",
    "FailoverConfig",
    "FaultReport",
    "FaultyWorkerPool",
    "FleetConfig",
    "FleetReport",
    "FleetRuntime",
    "FleetSection",
    "FrameRequest",
    "HashRing",
    "LatencySpike",
    "RebalancerConfig",
    "ServeConfig",
    "ServeRuntime",
    "SessionMigration",
    "SessionStats",
    "ShardKill",
    "ShardRuntime",
    "WorkerCrash",
    "WorkerFaultSchedule",
    "WorkerPool",
    "WorkerStall",
    "WorkerState",
    "build_fleet",
    "fleet_report_state",
    "fleet_requests",
    "format_fault_report",
    "format_fleet_report",
    "run_fleet",
    "serve_fleet",
]
