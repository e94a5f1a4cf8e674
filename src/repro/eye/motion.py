"""Oculomotor sequence model.

Generates gaze trajectories with the statistics §2.1 of the paper relies
on: alternating fixations and saccades (one to three saccades per second,
each lasting 20–200 ms), occasional smooth pursuit, blinks, fixational
tremor/drift, and a ~50 ms post-saccadic low-acuity period.  Saccade
kinematics follow the main sequence (duration grows with amplitude) with
a minimum-jerk position profile.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.eye.events import MovementType, post_saccade_mask
from repro.utils.rng import RngMixin
from repro.utils.validation import check_in_range, check_positive


#: The post-saccadic low-acuity period (§2.1): :class:`GazeTrack` flags
#: this long a window after each saccade end.
POST_SACCADE_S = 0.05


@dataclass(frozen=True)
class OculomotorConfig:
    """Behavioural parameters of the gaze generator.

    Defaults follow the literature values quoted in §2.1: fixations of
    150–600 ms, saccade durations from the main sequence
    ``duration_ms = 2.2 * amplitude_deg + 21`` (Robinson-style fit),
    and blinks every ~4 s.  The 50 ms post-saccadic period is
    :data:`POST_SACCADE_S`.
    """

    fps: float = 100.0
    field_deg: float = 22.0
    fixation_duration_s: tuple[float, float] = (0.15, 0.6)
    saccade_amplitude_deg: tuple[float, float] = (2.0, 25.0)
    main_sequence_slope_ms: float = 2.2
    main_sequence_intercept_ms: float = 21.0
    pursuit_probability: float = 0.08
    pursuit_duration_s: tuple[float, float] = (0.4, 1.2)
    pursuit_speed_deg_s: tuple[float, float] = (5.0, 20.0)
    blink_rate_hz: float = 0.25
    blink_duration_s: tuple[float, float] = (0.1, 0.3)
    squint_probability: float = 0.22
    squint_level: tuple[float, float] = (0.36, 0.70)
    normal_level: tuple[float, float] = (0.82, 1.0)
    openness_segment_s: tuple[float, float] = (0.5, 2.0)
    tremor_std_deg: float = 0.04
    drift_speed_deg_s: float = 0.35

    def __post_init__(self) -> None:
        check_positive("fps", self.fps)
        check_positive("field_deg", self.field_deg)
        check_in_range("pursuit_probability", self.pursuit_probability, 0.0, 1.0)


@dataclass
class GazeTrack:
    """A sampled gaze trajectory with per-frame annotations."""

    gaze_deg: np.ndarray  # (T, 2)
    labels: np.ndarray  # (T,) MovementType values
    openness: np.ndarray  # (T,) eyelid opening in [0, 1]
    velocity_deg_s: np.ndarray  # (T,)
    fps: float
    post_saccade: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = self.gaze_deg.shape[0]
        for name, arr in (
            ("labels", self.labels),
            ("openness", self.openness),
            ("velocity_deg_s", self.velocity_deg_s),
        ):
            if arr.shape[0] != n:
                raise ValueError(f"{name} length {arr.shape[0]} != {n}")
        window = max(1, int(round(POST_SACCADE_S * self.fps)))
        self.post_saccade = post_saccade_mask(self.labels, window)

    def __len__(self) -> int:
        return self.gaze_deg.shape[0]

    def copy_with(
        self,
        gaze_deg: "np.ndarray | None" = None,
        labels: "np.ndarray | None" = None,
        openness: "np.ndarray | None" = None,
        velocity_deg_s: "np.ndarray | None" = None,
    ) -> "GazeTrack":
        """A variant of this track with some arrays replaced (the fault
        injectors' entry point).  When the gaze changes and no velocity is
        supplied, velocities are recomputed from the new positions."""
        new_gaze = self.gaze_deg if gaze_deg is None else np.asarray(gaze_deg)
        if velocity_deg_s is None:
            if gaze_deg is None:
                velocity = self.velocity_deg_s
            else:
                velocity = velocities_from_gaze(new_gaze, 1.0 / self.fps)
        else:
            velocity = np.asarray(velocity_deg_s)
        return GazeTrack(
            gaze_deg=new_gaze,
            labels=self.labels if labels is None else np.asarray(labels),
            openness=self.openness if openness is None else np.asarray(openness),
            velocity_deg_s=velocity,
            fps=self.fps,
        )


def velocities_from_gaze(gaze: np.ndarray, dt: float) -> np.ndarray:
    """Per-frame angular speed from a gaze trajectory (first frame 0)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    deltas = np.linalg.norm(np.diff(gaze, axis=0), axis=1) / dt
    return np.concatenate([[0.0], deltas])


@functools.lru_cache(maxsize=256)
def _minimum_jerk(n: int) -> np.ndarray:
    """Minimum-jerk displacement profile s(tau) in [0, 1] over ``n`` samples
    (cached per ``n``, so the array is read-only)."""
    tau = np.linspace(0.0, 1.0, n)
    profile = 10 * tau**3 - 15 * tau**4 + 6 * tau**5
    profile.flags.writeable = False
    return profile


#: Segment kinds as plain ints: the segment loop and the fills compare
#: against them once per segment and once per array.
_FIXATION = int(MovementType.FIXATION)
_SACCADE = int(MovementType.SACCADE)
_PURSUIT = int(MovementType.PURSUIT)


def _uniform(rng: np.random.Generator, bounds: "tuple[float, float]") -> float:
    """``rng.uniform(*bounds)`` for one value: the same draw and the same
    rounding (numpy computes ``low + (high - low) * next_double``),
    without the per-call overhead."""
    low, high = bounds
    return low + (high - low) * rng.random()


def _unit(rng: np.random.Generator) -> "tuple[float, float]":
    """A random 2-D direction from one ``normal(size=2)`` draw, divided by
    ``np.linalg.norm(d) + 1e-9``.  That norm is ``sqrt(d.dot(d))``; the
    dot product is kept because BLAS may fuse its multiply-add, so
    ``math.hypot`` and ``sqrt(x*x + y*y)`` can round differently."""
    d = rng.normal(size=2)
    norm = math.sqrt(d.dot(d)) + 1e-9
    dx, dy = d.tolist()
    return dx / norm, dy / norm


class _Segments:
    """One trace's segments in order, as Python scalars, and the gaze
    they give every frame.

    Each segment has a kind, a first frame and a frame count, the gaze
    position it starts from, a vector (drift direction, saccade
    displacement or pursuit direction) and, for a pursuit, its speed
    (fixations all drift at ``drift_speed_deg_s``).  Fixations add
    their tremor block and saccades their minimum-jerk profile.
    """

    def __init__(self) -> None:
        self.kinds: list[int] = []
        self.starts: list[int] = []
        self.counts: list[int] = []
        self.origins: list[tuple[float, float]] = []
        self.vectors: list[tuple[float, float]] = []
        self.speeds: list[float] = []
        self.tremors: list[np.ndarray] = []
        self.profiles: list[np.ndarray] = []

    def add(self, kind, start, count, origin, vector, speed=0.0) -> None:
        self.kinds.append(kind)
        self.starts.append(start)
        self.counts.append(count)
        self.origins.append(origin)
        self.vectors.append(vector)
        self.speeds.append(speed)

    def fill(
        self, n_frames: int, cfg: OculomotorConfig
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(gaze, labels)`` of every frame, each kind's formula applied
        to all rows at once with the per-segment operation order:
        fixation ``(p + ((k * d) * s) / fps) + tremor``, saccade
        ``p + jerk[k] * d``, pursuit ``clip(p + ((k * s) / fps) * d)``,
        for row ``k`` of a segment starting at ``p``."""
        fps = cfg.fps
        limit = cfg.field_deg / 2
        counts = np.array(self.counts)
        labels = np.array(self.kinds, dtype=np.int64).repeat(counts)
        k = (np.arange(n_frames) - np.array(self.starts).repeat(counts))[:, None]
        origin = np.array(self.origins).repeat(counts, axis=0)
        vector = np.array(self.vectors).repeat(counts, axis=0)
        # The fixation formula on every row; the rows of the other kinds
        # are replaced below.
        tremor = np.zeros((n_frames, 2))
        if self.tremors:
            tremor[labels == _FIXATION] = np.concatenate(self.tremors)
        gaze = (origin + ((k * vector) * cfg.drift_speed_deg_s) / fps) + tremor
        if self.profiles:
            saccadic = labels == _SACCADE
            jerk = np.zeros(n_frames)
            jerk[saccadic] = np.concatenate(self.profiles)
            gaze = np.where(saccadic[:, None], origin + jerk[:, None] * vector, gaze)
        if _PURSUIT in self.kinds:
            speed = np.array(self.speeds).repeat(counts)[:, None]
            path = np.clip(origin + ((k * speed) / fps) * vector, -limit, limit)
            gaze = np.where((labels == _PURSUIT)[:, None], path, gaze)
        return gaze, labels


class OculomotorModel(RngMixin):
    """Stochastic generator of gaze trajectories.

    :meth:`generate` walks the segments drawing random numbers in a fixed
    order and carrying the gaze position as Python floats, computed with
    the same operations, in the same order, as the per-frame arrays;
    the arrays are then filled once per trace.  A seed therefore fixes
    the trace bit for bit.
    """

    def __init__(self, config: "OculomotorConfig | None" = None, seed=None):
        super().__init__(seed)
        self.config = config or OculomotorConfig()

    def generate(self, n_frames: int) -> GazeTrack:
        """Generate ``n_frames`` of gaze behaviour starting from a random
        fixation point."""
        if n_frames <= 0:
            raise ValueError(f"n_frames must be positive, got {n_frames}")
        cfg = self.config
        rng = self.rng
        fps = cfg.fps
        limit = cfg.field_deg / 2
        segments = _Segments()

        px, py = rng.uniform(-cfg.field_deg / 2, cfg.field_deg / 2, size=2).tolist()
        t = 0
        while t < n_frames:
            if rng.random() < cfg.pursuit_probability:
                duration = _uniform(rng, cfg.pursuit_duration_s)
                speed = _uniform(rng, cfg.pursuit_speed_deg_s)
                n = max(2, int(round(duration * fps)))
                count = min(t + n, n_frames) - t
                dx, dy = _unit(rng)
                segments.add(_PURSUIT, t, count, (px, py), (dx, dy), speed)
                step = ((count - 1) * speed) / fps
                px = min(max(px + step * dx, -limit), limit)
                py = min(max(py + step * dy, -limit), limit)
                t += count
                continue

            duration = _uniform(rng, cfg.fixation_duration_s)
            n = max(1, int(round(duration * fps)))
            count = min(t + n, n_frames) - t
            dx, dy = _unit(rng)
            tremor = rng.normal(0.0, cfg.tremor_std_deg, size=(count, 2))
            segments.add(_FIXATION, t, count, (px, py), (dx, dy))
            segments.tremors.append(tremor)
            k = count - 1
            ex, ey = tremor[k].tolist()
            px = (px + ((k * dx) * cfg.drift_speed_deg_s) / fps) + ex
            py = (py + ((k * dy) * cfg.drift_speed_deg_s) / fps) + ey
            t += count
            if t >= n_frames:
                break

            tx, ty = self._sample_target(px, py)
            vx, vy = tx - px, ty - py
            v = np.array((vx, vy))
            amplitude = math.sqrt(v.dot(v))  # np.linalg.norm(v)
            duration_ms = (
                cfg.main_sequence_intercept_ms + cfg.main_sequence_slope_ms * amplitude
            )
            n = max(2, int(round(duration_ms / 1000.0 * fps)))
            count = min(t + n, n_frames) - t
            segments.add(_SACCADE, t, count, (px, py), (vx, vy))
            segments.profiles.append(_minimum_jerk(n)[:count])
            # A saccade cut short ends the trace, so only a whole one
            # carries its position on.
            px, py = tx, ty
            t += count

        gaze, labels = segments.fill(n_frames, cfg)
        openness = self._baseline_openness(n_frames)
        self._overlay_blinks(openness, n_frames)
        velocity = velocities_from_gaze(gaze, 1.0 / fps)
        # A closed eye yields no usable gaze signal; keep the nominal gaze
        # label but annotate the frame as a blink.
        labels[openness < 0.2] = MovementType.BLINK
        return GazeTrack(
            gaze_deg=gaze,
            labels=labels,
            openness=openness,
            velocity_deg_s=velocity,
            fps=fps,
        )

    # ------------------------------------------------------------------
    def _sample_target(self, px: float, py: float) -> "tuple[float, float]":
        cfg = self.config
        rng = self.rng
        limit = cfg.field_deg / 2
        for _ in range(32):
            amplitude = _uniform(rng, cfg.saccade_amplitude_deg)
            angle = _uniform(rng, (0, 2 * np.pi))
            tx = px + amplitude * math.cos(angle)
            ty = py + amplitude * math.sin(angle)
            if abs(tx) <= limit and abs(ty) <= limit:
                return tx, ty
        return min(max(tx, -limit), limit), min(max(ty, -limit), limit)

    def _baseline_openness(self, n_frames: int) -> np.ndarray:
        """Slow lid-level variation: mostly wide open, with occasional
        sustained squints.  These partially-occluded stretches are the
        long-tail frames that separate the gaze trackers (Fig. 8a)."""
        cfg = self.config
        rng = self.rng
        levels: list[float] = []
        lengths: list[int] = []
        t = 0
        while t < n_frames:
            duration = _uniform(rng, cfg.openness_segment_s)
            stop = min(t + max(1, int(round(duration * cfg.fps))), n_frames)
            if rng.random() < cfg.squint_probability:
                levels.append(_uniform(rng, cfg.squint_level))
            else:
                levels.append(_uniform(rng, cfg.normal_level))
            lengths.append(stop - t)
            t = stop
        return np.repeat(np.array(levels), lengths)

    def _overlay_blinks(self, openness: np.ndarray, n_frames: int) -> None:
        cfg = self.config
        expected = cfg.blink_rate_hz * n_frames / cfg.fps
        n_blinks = self.rng.poisson(expected)
        for _ in range(n_blinks):
            start = int(self.rng.integers(0, n_frames))
            duration = _uniform(self.rng, cfg.blink_duration_s)
            n = max(2, int(round(duration * cfg.fps)))
            stop = min(start + n, n_frames)
            count = stop - start
            # Triangular close/open profile.
            half = count / 2.0
            profile = 1.0 - np.minimum(np.arange(count) + 1, count - np.arange(count)) / half
            openness[start:stop] = np.minimum(openness[start:stop], np.clip(profile, 0.0, 1.0))
