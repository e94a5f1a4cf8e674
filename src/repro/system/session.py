"""Frame-by-frame TFR session simulation.

Replays an oculomotor trace through the Algorithm-1 decision logic and
the system timing model, producing a per-frame latency timeline — the
dynamic counterpart of the steady-state Eqs. 6-8.  This is what a
downstream user runs to ask "what does POLO do to *my* content at *my*
frame rate": deadline misses, latency percentiles, and the realized
event mix all fall out of one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.eye.events import EventMix, MovementType
from repro.eye.motion import GazeTrack, TrackStack
from repro.render.scene import Resolution, SceneProfile
from repro.system.tfr import Schedule, TfrSystem, TrackerSystemProfile
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class SessionConfig:
    """Replay parameters.

    ``reuse_displacement_deg`` mirrors gamma2's semantics: the buffered
    gaze is reused while the eye stays within this angular distance of
    the last *predicted* position (displacement, not instantaneous
    velocity, because fixational tremor makes per-frame velocity noisy
    while barely moving the binary map).
    """

    reuse_displacement_deg: float = 1.0
    post_saccade_low_res: bool = True  # paper §2.1: 50 ms post-saccadic window

    def __post_init__(self) -> None:
        check_positive("reuse_displacement_deg", self.reuse_displacement_deg)


@dataclass
class SessionReport:
    """Timeline and aggregates of one simulated session.

    A report always covers at least one frame: the latency aggregates
    (mean, percentiles, miss rate) are undefined on an empty timeline, so
    construction rejects it instead of letting numpy emit nan + warnings.
    """

    frame_latency_s: np.ndarray
    decisions: list[str]
    event_mix: EventMix
    deadline_s: float
    fps: float

    def __post_init__(self) -> None:
        self.frame_latency_s = np.asarray(self.frame_latency_s, dtype=np.float64)
        if self.frame_latency_s.size == 0:
            raise ValueError("SessionReport requires a non-empty latency timeline")
        if len(self.decisions) != self.frame_latency_s.size:
            raise ValueError(
                f"decisions length {len(self.decisions)} does not match "
                f"{self.frame_latency_s.size} latency samples"
            )

    @property
    def mean_latency_s(self) -> float:
        return float(self.frame_latency_s.mean())

    @property
    def p99_latency_s(self) -> float:
        return float(np.percentile(self.frame_latency_s, 99))

    @property
    def deadline_miss_rate(self) -> float:
        return float(np.mean(self.frame_latency_s > self.deadline_s))

    def summary(self) -> dict[str, float]:
        return {
            "mean_ms": self.mean_latency_s * 1e3,
            "p99_ms": self.p99_latency_s * 1e3,
            "miss_rate": self.deadline_miss_rate,
            "p_saccade": self.event_mix.p_saccade,
            "p_reuse": self.event_mix.p_reuse,
            "p_predict": self.event_mix.p_predict,
        }


#: Algorithm-1 paths by ``uint8`` code (:func:`decide_path_codes`), so
#: a whole stack of codes becomes strings with one ``tolist()``.
PATHS = np.array(["saccade", "reuse", "predict"], dtype=object)
_SACCADE, _REUSE, PREDICT = range(3)


def decide_paths(
    track: "GazeTrack | TrackStack",
    config: "SessionConfig | None" = None,
    supports_event_gating: bool = True,
) -> "list[str] | list[list[str]]":
    """Per-frame Algorithm-1 path decisions for an oculomotor trace, or
    one list per row for a :class:`~repro.eye.motion.TrackStack`: the
    :func:`decide_path_codes` as strings."""
    return PATHS[decide_path_codes(track, config, supports_event_gating)].tolist()


def decide_path_codes(
    track: "GazeTrack | TrackStack",
    config: "SessionConfig | None" = None,
    supports_event_gating: bool = True,
) -> np.ndarray:
    """Per-frame Algorithm-1 path codes (indices into :data:`PATHS`,
    ``uint8``) for an oculomotor trace, ``(n_frames,)``, or for a
    :class:`~repro.eye.motion.TrackStack`, ``(n_tracks, n_frames)``.

    The decision is derived from the trace's kinematics (the behavioural
    ground truth the trained detector approximates): saccadic frames — plus
    the post-saccadic window when enabled — take the saccade path; quiet
    frames whose gaze stays near the last fresh prediction take the reuse
    path; everything else pays for a fresh prediction.  Methods without
    event gating always pay the predict path.  This is shared by the
    single-session replay here and the multi-session serving runtime
    (``repro.serve``), which decides a whole fleet's stack in one call,
    keeps the codes, and routes only predict frames to its worker pool.

    A trace is the one-row stack.  The saccade gate is one numpy mask
    over the stack, and the reuse-anchor recurrence steps through the
    frames in lockstep across the rows, each step a handful of numpy
    operations over one column, so cost is linear in frames with a
    per-frame overhead that a fleet shares: on one core of a shared Xeon
    host a lone 150-frame trace takes about 1.2 ms and a 1,000-row stack
    about 6 ms.  The reuse test is strict (``distance < threshold``)
    with ``distance = sqrt(dx*dx + dy*dy)``, and matches
    ``np.linalg.norm`` bit for bit: BLAS may round the sum of squares
    through a fused multiply-add, so for the (row, frame) cells within a
    1e-12 relative band of the threshold the pass defers to
    ``np.linalg.norm``.
    """
    config = config or SessionConfig()
    labels = track.labels
    n_frames = labels.shape[-1]
    if n_frames == 0:
        raise ValueError("empty gaze track")
    if not supports_event_gating:
        return np.full(labels.shape, PREDICT, dtype=np.uint8)
    gated = labels == MovementType.SACCADE
    if config.post_saccade_low_res:
        gated |= track.post_saccade
    return _reuse_anchor_pass(
        gated.reshape(-1, n_frames),
        track.gaze_deg.reshape(-1, n_frames, 2),
        config.reuse_displacement_deg,
    ).reshape(labels.shape)


def _reuse_anchor_pass(
    gated: np.ndarray, gaze: np.ndarray, threshold: float
) -> np.ndarray:
    """``uint8`` path codes ``(n_rows, n_frames)`` of Algorithm 1 for
    gated masks ``(n_rows, n_frames)`` and gaze ``(n_rows, n_frames, 2)``,
    one frame column at a time.

    A row without an anchor holds NaN, so its distance is NaN and no
    comparison holds: its first ungated frame predicts.
    """
    near_lo = threshold * (1.0 - 1e-12)
    near_hi = threshold * (1.0 + 1e-12)
    xs = np.ascontiguousarray(gaze[:, :, 0].T)  # frame-major columns
    ys = np.ascontiguousarray(gaze[:, :, 1].T)
    free = ~gated.T
    reuse = np.zeros(free.shape, dtype=bool)
    ax = np.full(gated.shape[0], np.nan)  # gaze at each row's last prediction
    ay = ax.copy()
    for x, y, ungated, hit in zip(xs, ys, free, reuse):
        dx = x - ax
        dy = y - ay
        distance = np.sqrt(dx * dx + dy * dy)
        near = distance < near_lo
        band = (distance < near_hi) > near
        if band.any():
            for row in np.flatnonzero(band & ungated).tolist():
                near[row] = float(np.linalg.norm((dx[row], dy[row]))) < threshold
        np.logical_and(near, ungated, out=hit)
        fresh = ungated > hit
        np.copyto(ax, x, where=fresh)
        np.copyto(ay, y, where=fresh)
    codes = np.full(gated.shape, PREDICT, dtype=np.uint8)
    codes[reuse.T] = _REUSE
    codes[gated] = _SACCADE
    return codes


def simulate_session(
    profile: TrackerSystemProfile,
    track: GazeTrack,
    scene: SceneProfile,
    resolution: Resolution,
    system: "TfrSystem | None" = None,
    schedule: Schedule = Schedule.SEQUENTIAL,
    config: "SessionConfig | None" = None,
) -> SessionReport:
    """Replay ``track`` through the decision logic and timing model.

    Paths come from :func:`decide_paths`; each frame is then costed by the
    system timing model on its path.
    """
    system = system or TfrSystem()
    config = config or SessionConfig()
    n = len(track)
    if n == 0:
        raise ValueError("empty gaze track")

    decisions = decide_paths(
        track, config, supports_event_gating=profile.supports_event_gating
    )
    latencies = np.zeros(n)
    counts = {"saccade": 0, "reuse": 0, "predict": 0}
    for i, path in enumerate(decisions):
        counts[path] += 1
        latencies[i] = system.frame_latency(
            profile, scene, resolution, path, schedule
        ).total_s

    mix = EventMix.from_counts(counts["saccade"], counts["reuse"], counts["predict"])
    deadline = 1.0 / track.fps
    return SessionReport(
        frame_latency_s=latencies,
        decisions=decisions,
        event_mix=mix,
        deadline_s=max(deadline, 1e-9),
        fps=track.fps,
    )
