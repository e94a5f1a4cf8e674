"""Configuration for the multi-session serving runtime.

The runtime multiplexes many concurrent HMD client sessions onto a small
pool of gaze-inference workers.  Three groups of knobs matter:

* **fleet shape** — how many sessions, their frame rate, how long the
  simulated window runs, and how session starts are staggered;
* **worker pool** — how many workers, and the batched service-time model
  ``t(b) = fixed_s + per_sample_s * b`` (a pooled-inference worker pays a
  per-dispatch cost — weight streaming, kernel launch, output readback —
  once per batch, which is exactly what cross-session batching amortizes);
* **admission / batching policy** — the per-frame latency budget beyond
  which arriving work is degraded to gaze reuse or shed outright, and the
  dynamic batcher's size/window limits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from repro.utils.validation import check_positive

#: POLO accelerator latencies of the two bypass paths (saccade gating and
#: gaze reuse run on-device next to the sensor and never enter the pool).
#: These match the §7 accelerator model's path reports to the microsecond.
DEFAULT_SACCADE_BYPASS_S = 1.2e-4
DEFAULT_REUSE_BYPASS_S = 1.2e-4


class AdmissionPolicy(enum.Enum):
    """What to do with a predict frame the queue cannot serve in budget.

    * ``DEGRADE``: fall back to the session's buffered gaze (the same
      mechanism as Algorithm 1's reuse path) — the frame completes at the
      reuse-bypass latency but no fresh prediction is made.
    * ``SHED``: drop the request; the renderer keeps the stale gaze and
      the frame is counted as shed.
    * ``ALWAYS``: admit everything (useful to expose raw queueing tails).
    """

    DEGRADE = "degrade"
    SHED = "shed"
    ALWAYS = "always"


@dataclass(frozen=True)
class BatchServiceModel:
    """Service time of one batched inference dispatch.

    ``service_s(b) = fixed_s + per_sample_s * b``: the affine model every
    batching system leans on — fixed per-dispatch overhead amortized over
    ``b`` samples.  Defaults model a pooled GPU-class worker running the
    INT8 POLOViT: ~2 ms of per-dispatch overhead and ~0.4 ms of marginal
    per-sample compute.
    """

    fixed_s: float = 2.0e-3
    per_sample_s: float = 4.0e-4

    def __post_init__(self) -> None:
        check_positive("fixed_s", self.fixed_s, strict=False)
        check_positive("per_sample_s", self.per_sample_s)

    def service_s(self, batch_size: int) -> float:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return self.fixed_s + self.per_sample_s * batch_size

    def throughput_fps(self, batch_size: int) -> float:
        """Steady-state frames/s of one worker running back-to-back batches."""
        return batch_size / self.service_s(batch_size)


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one fleet-serving simulation."""

    n_sessions: int = 32
    duration_s: float = 4.0
    fps: float = 100.0
    n_workers: int = 2
    max_batch: int = 8
    batch_window_s: float = 2.0e-3
    admission: AdmissionPolicy = AdmissionPolicy.DEGRADE
    queue_budget_deadlines: float = 2.0
    deadline_frames: float = 1.0
    saccade_bypass_s: float = DEFAULT_SACCADE_BYPASS_S
    reuse_bypass_s: float = DEFAULT_REUSE_BYPASS_S
    reuse_displacement_deg: float = 1.0
    post_saccade_low_res: bool = True
    stagger_s: float = 1.0e-3
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("n_sessions", self.n_sessions)
        check_positive("duration_s", self.duration_s)
        check_positive("fps", self.fps)
        check_positive("n_workers", self.n_workers)
        check_positive("max_batch", self.max_batch)
        check_positive("batch_window_s", self.batch_window_s, strict=False)
        check_positive("queue_budget_deadlines", self.queue_budget_deadlines)
        check_positive("deadline_frames", self.deadline_frames)
        check_positive("saccade_bypass_s", self.saccade_bypass_s, strict=False)
        check_positive("reuse_bypass_s", self.reuse_bypass_s, strict=False)
        check_positive("reuse_displacement_deg", self.reuse_displacement_deg)
        check_positive("stagger_s", self.stagger_s, strict=False)
        if not isinstance(self.admission, AdmissionPolicy):
            raise ValueError(
                f"admission must be an AdmissionPolicy, got {self.admission!r}"
            )

    @property
    def deadline_s(self) -> float:
        """Per-frame completion deadline (defaults to one frame period)."""
        return self.deadline_frames / self.fps

    @property
    def queue_budget_s(self) -> float:
        """Estimated-wait threshold beyond which admission control fires."""
        return self.queue_budget_deadlines * self.deadline_s

    @property
    def frames_per_session(self) -> int:
        return max(1, int(math.floor(self.duration_s * self.fps)))

    def sequential_baseline(self) -> "ServeConfig":
        """The per-session baseline: same fleet and pool, no cross-session
        batching (every dispatch carries exactly one frame)."""
        return replace(self, max_batch=1, batch_window_s=0.0)
