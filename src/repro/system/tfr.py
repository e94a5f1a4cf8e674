"""End-to-end TFR system model (paper §2.3, §5.3; Eqs. 6-8; Fig. 11).

Composes the camera sensor, MIPI link, gaze processor (accelerator or
GPU), and the foveated-rendering pipeline into per-frame and average
latencies under the two computational patterns:

* **sequential** (Fig. 11b): Ts + Tc + Td + Tr.
* **parallel** (Fig. 11c): the gaze-independent R1 pass starts at frame
  start and overlaps sensing/communication/gaze processing; the foveal
  R2 pass waits for both: max(Ts + Tc + Td, Tr1) + Tr2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.eye.events import EventMix
from repro.hw.mipi import MipiLink
from repro.hw.sensor import CameraSensor
# The leaf module, not the package: repro.obs -> obs.metrics -> repro.system.
from repro.obs.tracer import PID_TFR
from repro.render.pipeline import RenderPipeline
from repro.render.scene import Resolution, SceneProfile
from repro.utils.validation import check_positive


class Schedule(enum.Enum):
    """Computational pattern between gaze tracking and rendering."""

    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"


@dataclass(frozen=True)
class TrackerSystemProfile:
    """What the TFR system needs to know about one gaze-processing method.

    ``td_predict_s`` is the fresh-prediction gaze latency; methods without
    saccade gating / reuse support (all baselines) leave the other two
    latencies equal to it and are always costed on the predict path.
    ``delta_theta_deg`` is the tracking error used to size the foveal
    region (P95 by default in §7).
    """

    name: str
    td_predict_s: float
    delta_theta_deg: float
    td_saccade_s: "float | None" = None
    td_reuse_s: "float | None" = None
    energy_predict_j: float = 0.0

    def __post_init__(self) -> None:
        check_positive("td_predict_s", self.td_predict_s)
        if not self.delta_theta_deg >= 0:
            raise ValueError("delta_theta_deg must be non-negative")

    @property
    def supports_event_gating(self) -> bool:
        return self.td_saccade_s is not None and self.td_reuse_s is not None

    def td_for_path(self, path: str) -> float:
        if path == "predict":
            return self.td_predict_s
        if path == "saccade":
            return self.td_saccade_s if self.td_saccade_s is not None else self.td_predict_s
        if path == "reuse":
            return self.td_reuse_s if self.td_reuse_s is not None else self.td_predict_s
        raise ValueError(f"unknown path {path!r}")

    def with_delta_theta(self, delta_theta_deg: float) -> "TrackerSystemProfile":
        """Same method, different error operating point (mean / JND series
        of Fig. 12)."""
        return TrackerSystemProfile(
            name=self.name,
            td_predict_s=self.td_predict_s,
            delta_theta_deg=delta_theta_deg,
            td_saccade_s=self.td_saccade_s,
            td_reuse_s=self.td_reuse_s,
            energy_predict_j=self.energy_predict_j,
        )


@dataclass(frozen=True)
class FrameLatency:
    """Latency decomposition of one TFR frame."""

    total_s: float
    sensing_s: float
    communication_s: float
    gaze_s: float
    rendering_s: float
    r1_s: float = 0.0
    r2_s: float = 0.0

    @property
    def fps(self) -> float:
        return 1.0 / self.total_s

    def breakdown(self) -> dict[str, float]:
        return {
            "sensing": self.sensing_s,
            "communication": self.communication_s,
            "gaze": self.gaze_s,
            "rendering": self.rendering_s,
        }


class TfrSystem:
    """Latency composition for one headset configuration."""

    def __init__(
        self,
        sensor: "CameraSensor | None" = None,
        link: "MipiLink | None" = None,
        pipeline: "RenderPipeline | None" = None,
    ):
        self.sensor = sensor or CameraSensor()
        self.link = link or MipiLink()
        self.pipeline = pipeline or RenderPipeline()

    # ------------------------------------------------------------------
    @property
    def ts(self) -> float:
        return self.sensor.acquisition_s

    @property
    def tc(self) -> float:
        return self.link.transfer_latency_s(self.sensor.frame_bits)

    # ------------------------------------------------------------------
    def frame_latency(
        self,
        profile: TrackerSystemProfile,
        scene: SceneProfile,
        resolution: Resolution,
        path: str = "predict",
        schedule: Schedule = Schedule.SEQUENTIAL,
        tracer=None,
        t0_s: float = 0.0,
    ) -> FrameLatency:
        """One frame's end-to-end latency on the given Algorithm-1 path.

        With a ``tracer`` (see :mod:`repro.obs`), the stage decomposition
        is also emitted as sim-clock spans on the TFR track starting at
        ``t0_s``, laid out exactly as the schedule composes them
        (sequential chain, or the Fig.-11c overlap with R1 starting at
        frame start).  Tracing never changes the returned latencies.
        """
        td = profile.td_for_path(path)
        if path == "saccade":
            # Uniform low-resolution rendering; no foveal pass exists, so
            # the parallel schedule degenerates to overlapping the single
            # low-res pass with gaze processing.
            tr = self.pipeline.saccade_latency(scene, resolution)
            if schedule is Schedule.PARALLEL:
                total = max(self.ts + self.tc + td, tr)
            else:
                total = self.ts + self.tc + td + tr
            latency = FrameLatency(total, self.ts, self.tc, td, tr, r1_s=tr)
            self._trace_frame(tracer, t0_s, latency, path, schedule)
            return latency

        fov = self.pipeline.foveated_latency(scene, resolution, profile.delta_theta_deg)
        if schedule is Schedule.PARALLEL:
            total = max(self.ts + self.tc + td, fov.r1_s) + fov.r2_s
        else:
            total = self.ts + self.tc + td + fov.total_s
        latency = FrameLatency(
            total,
            self.ts,
            self.tc,
            td,
            fov.total_s,
            r1_s=fov.r1_s,
            r2_s=fov.r2_s,
        )
        self._trace_frame(tracer, t0_s, latency, path, schedule)
        return latency

    def _trace_frame(
        self,
        tracer,
        t0_s: float,
        latency: FrameLatency,
        path: str,
        schedule: Schedule,
    ) -> None:
        """Emit the stage layout of one TFR frame as sim-clock spans."""
        if tracer is None or not tracer.enabled:
            return

        def span(name: str, start: float, dur: float, tid: int = 0) -> None:
            tracer.record_span(
                name, start, dur, cat="tfr", pid=PID_TFR, tid=tid,
                args={"path": path, "schedule": schedule.value},
            )

        gaze_done = t0_s + latency.sensing_s + latency.communication_s + latency.gaze_s
        span("tfr.sensing", t0_s, latency.sensing_s)
        span("tfr.communication", t0_s + latency.sensing_s, latency.communication_s)
        span("tfr.gaze", t0_s + latency.sensing_s + latency.communication_s, latency.gaze_s)
        if schedule is Schedule.PARALLEL:
            # R1 overlaps the sensing chain on its own row; R2 starts when
            # both the gaze and R1 are done (Fig. 11c).
            span("tfr.render.r1", t0_s, latency.r1_s, tid=1)
            if latency.r2_s > 0:
                r2_start = max(gaze_done, t0_s + latency.r1_s)
                span("tfr.render.r2", r2_start, latency.r2_s, tid=1)
        else:
            span("tfr.render.r1", gaze_done, latency.r1_s)
            if latency.r2_s > 0:
                span("tfr.render.r2", gaze_done + latency.r1_s, latency.r2_s)

    def full_resolution_latency(
        self, scene: SceneProfile, resolution: Resolution
    ) -> float:
        """The no-tracking comparator: full-res render only (green bars of
        Fig. 12); no sensing/gaze stages are needed."""
        return self.pipeline.full_latency(scene, resolution)

    # ------------------------------------------------------------------
    def average_latency(
        self,
        profile: TrackerSystemProfile,
        scene: SceneProfile,
        resolution: Resolution,
        event_mix: "EventMix | None" = None,
        schedule: Schedule = Schedule.SEQUENTIAL,
    ) -> float:
        """Eqs. 6-7: event-mix-weighted average frame latency.

        Methods without event gating always pay the predict path.
        """
        if event_mix is None or not profile.supports_event_gating:
            return self.frame_latency(profile, scene, resolution, "predict", schedule).total_s
        parts = (
            ("saccade", event_mix.p_saccade),
            ("reuse", event_mix.p_reuse),
            ("predict", event_mix.p_predict),
        )
        return sum(
            p * self.frame_latency(profile, scene, resolution, path, schedule).total_s
            for path, p in parts
        )

    def fps_max(
        self,
        profile: TrackerSystemProfile,
        scene: SceneProfile,
        resolution: Resolution,
        event_mix: "EventMix | None" = None,
        schedule: Schedule = Schedule.SEQUENTIAL,
    ) -> float:
        """Eq. 8: maximum sustainable frame rate."""
        return 1.0 / self.average_latency(profile, scene, resolution, event_mix, schedule)
