"""Configuration of the fault-injection and graceful-degradation layer.

A chaos run is fully described by one :class:`ChaosConfig`: the serving
fleet (``repro.serve.ServeConfig``), the input-fault mix applied to every
session's sensing chain, the declarative worker-fault schedule, the
recovery policy (retries, backoff, circuit breaker), and the
tracking-quality watchdog thresholds.  Everything is seeded — the input
faults from ``fault_seed`` (independent of the fleet's oculomotor seed),
the worker faults from the schedule's literal times — so the same config
reproduces bit-identical fault and degradation telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.reliability.softerror import SoftErrorConfig
from repro.serve.config import ServeConfig
from repro.serve.workers import (
    LatencySpike,
    WorkerCrash,
    WorkerFaultSchedule,
    WorkerStall,
)
from repro.system.tfr import TrackerSystemProfile
from repro.system.watchdog import WatchdogConfig
from repro.utils.validation import check_in_range, check_positive, check_probability

#: Default POLO-like operating point: INT8 POLOViT fresh-prediction
#: latency with on-device bypass paths and the paper's P95 error budget.
DEFAULT_TRACKER_PROFILE = TrackerSystemProfile(
    name="POLO-INT8",
    td_predict_s=2.4e-3,
    delta_theta_deg=2.92,
    td_saccade_s=1.2e-4,
    td_reuse_s=1.2e-4,
)


@dataclass(frozen=True)
class InputFaultConfig:
    """Sensing-chain fault mix, applied independently per session.

    * ``frame_drop_rate`` — i.i.d. probability the sensor delivers no
      frame (exposure abort, readout overrun).
    * noise bursts — windows of elevated tracking error (Poisson arrivals
      at ``noise_burst_rate_hz``, each ``noise_burst_duration_s`` long)
      adding N(0, ``noise_burst_std_deg``) to the gaze signal.
    * occlusion episodes — partial/total eyelid occlusion (droop, rubbing,
      HMD slip) multiplying eyelid openness down by a sampled level.
    * ``bit_error_rate`` — per-bit MIPI transient error probability; a
      corrupted frame costs one link-layer retransmission and dents the
      frame's confidence.
    """

    frame_drop_rate: float = 0.0
    noise_burst_rate_hz: float = 0.0
    noise_burst_duration_s: float = 0.3
    noise_burst_std_deg: float = 4.0
    occlusion_rate_hz: float = 0.0
    occlusion_duration_s: float = 0.25
    occlusion_level: tuple[float, float] = (0.6, 1.0)
    bit_error_rate: float = 0.0

    def __post_init__(self) -> None:
        check_probability("frame_drop_rate", self.frame_drop_rate)
        check_positive("noise_burst_rate_hz", self.noise_burst_rate_hz, strict=False)
        check_positive("noise_burst_duration_s", self.noise_burst_duration_s)
        check_positive("noise_burst_std_deg", self.noise_burst_std_deg, strict=False)
        check_positive("occlusion_rate_hz", self.occlusion_rate_hz, strict=False)
        check_positive("occlusion_duration_s", self.occlusion_duration_s)
        lo, hi = self.occlusion_level
        check_in_range("occlusion_level[0]", lo, 0.0, 1.0)
        check_in_range("occlusion_level[1]", hi, lo, 1.0)
        check_probability("bit_error_rate", self.bit_error_rate)


@dataclass(frozen=True)
class RecoveryConfig:
    """Retry, backoff, and circuit-breaker policy of a chaos run.

    A failed batch's frames are requeued after an exponential backoff
    (``backoff_base_s * backoff_factor ** retries``) — unless the retry
    could not complete before the frame's deadline, in which case the
    frame is *degraded* to buffered-gaze reuse right away (graceful
    degradation beats a guaranteed deadline miss).  ``max_retries``
    exhaustion also degrades, never drops.  Per-worker circuit breakers
    open after ``breaker_threshold`` consecutive failures and re-admit
    the worker through a half-open probe after ``breaker_cooldown_s``.
    """

    max_retries: int = 2
    backoff_base_s: float = 1.0e-3
    backoff_factor: float = 2.0
    dispatch_timeout_s: float = 0.05
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 0.25

    def __post_init__(self) -> None:
        check_positive("max_retries", self.max_retries, strict=False)
        check_positive("backoff_base_s", self.backoff_base_s)
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        check_positive("dispatch_timeout_s", self.dispatch_timeout_s)
        check_positive("breaker_threshold", self.breaker_threshold)
        check_positive("breaker_cooldown_s", self.breaker_cooldown_s)


def fits_pool(worker_id: "int | None", n_workers: int) -> bool:
    """Whether a fault aimed at ``worker_id`` (None: the whole pool) hits
    a worker of an ``n_workers`` pool."""
    return worker_id is None or worker_id < n_workers


@dataclass(frozen=True)
class ChaosConfig:
    """One reproducible chaos scenario, end to end."""

    serve: ServeConfig = field(default_factory=ServeConfig)
    input_faults: InputFaultConfig = field(default_factory=InputFaultConfig)
    worker_faults: WorkerFaultSchedule = field(default_factory=WorkerFaultSchedule)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)
    profile: TrackerSystemProfile = DEFAULT_TRACKER_PROFILE
    #: Silicon soft errors composed with the sensor/worker fault classes
    #: (inactive by default; ``python -m repro chaos --soft-error-fit``
    #: turns them on).  The schedule shares the scenario's determinism:
    #: same config + seed -> same upsets -> same merged FaultReport.
    soft_errors: SoftErrorConfig = field(default_factory=SoftErrorConfig.inactive)
    fault_seed: int = 0

    def __post_init__(self) -> None:
        faults = self.worker_faults
        for kind, targeted in (
            ("crash", faults.crashes),
            ("stall", faults.stalls),
            ("spike", faults.spikes),
        ):
            for fault in targeted:
                if not fits_pool(fault.worker_id, self.serve.n_workers):
                    raise ValueError(
                        f"{kind} targets worker {fault.worker_id} but the pool "
                        f"has {self.serve.n_workers} workers"
                    )

    def fault_free(self) -> "ChaosConfig":
        """The same fleet and pool with every fault disabled — the
        comparison baseline for degradation budgets."""
        return replace(
            self,
            input_faults=InputFaultConfig(),
            worker_faults=WorkerFaultSchedule(),
            soft_errors=SoftErrorConfig.inactive(),
        )


def default_chaos_scenario(seed: int = 0) -> ChaosConfig:
    """The canonical acceptance scenario: 10% sensor frame drops, a noise
    burst / occlusion mix, a stall window that trips worker 0's circuit
    breaker, a worker-0 crash at t=0.8s, and a latency-spike window on
    worker 1 — all on a two-worker pool under predict-heavy load."""
    serve = ServeConfig(
        n_sessions=24,
        duration_s=2.0,
        n_workers=2,
        reuse_displacement_deg=0.3,
        queue_budget_deadlines=0.8,
        seed=seed,
    )
    return ChaosConfig(
        serve=serve,
        input_faults=InputFaultConfig(
            frame_drop_rate=0.10,
            noise_burst_rate_hz=0.2,
            noise_burst_duration_s=0.3,
            noise_burst_std_deg=4.0,
            occlusion_rate_hz=0.1,
            occlusion_duration_s=0.25,
            bit_error_rate=1.0e-8,
        ),
        worker_faults=WorkerFaultSchedule(
            crashes=(WorkerCrash(worker_id=0, at_s=0.8, down_s=0.4),),
            stalls=(WorkerStall(worker_id=0, start_s=0.55, stop_s=0.75),),
            spikes=(LatencySpike(start_s=1.4, stop_s=1.6, factor=1.6, worker_id=1),),
        ),
        fault_seed=seed,
    )


__all__ = [
    "ChaosConfig",
    "DEFAULT_TRACKER_PROFILE",
    "InputFaultConfig",
    "LatencySpike",
    "RecoveryConfig",
    "SoftErrorConfig",
    "WorkerCrash",
    "WorkerFaultSchedule",
    "WorkerStall",
    "default_chaos_scenario",
]
