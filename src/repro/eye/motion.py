"""Oculomotor sequence model.

Generates gaze trajectories with the statistics §2.1 of the paper relies
on: alternating fixations and saccades (one to three saccades per second,
each lasting 20–200 ms), occasional smooth pursuit, blinks, fixational
tremor/drift, and a ~50 ms post-saccadic low-acuity period.  Saccade
kinematics follow the main sequence (duration grows with amplitude) with
a minimum-jerk position profile.

Synthesis has two steps.  Each trace's random draws (its segment
schedule, tremor blocks, lid levels and blinks) are made in Python on
that trace's own generator, in a fixed order.  The arrays are then
filled once for a whole stack of equal-length traces
(:func:`generate_tracks`): gaze and labels over all
``n_tracks * n_frames`` rows, openness with one ``repeat`` and the
blink overlays, then velocities and the post-saccadic mask along the
frame axis.  :meth:`OculomotorModel.generate` is the one-row stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.eye.events import MovementType, post_saccade_mask
from repro.utils.rng import RngMixin
from repro.utils.validation import check_in_range, check_positive


#: The post-saccadic low-acuity period (§2.1): :class:`GazeTrack` flags
#: this long a window after each saccade end.
POST_SACCADE_S = 0.05


def _post_saccade_window(fps: float) -> int:
    """:data:`POST_SACCADE_S` in frames, at least one."""
    return max(1, int(round(POST_SACCADE_S * fps)))


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
    """A sampled gaze trajectory with per-frame annotations.

    ``post_saccade`` is computed from the labels unless it is given (a
    stack's rows pass theirs in)."""

    gaze_deg: np.ndarray  # (T, 2)
    labels: np.ndarray  # (T,) MovementType values
    openness: np.ndarray  # (T,) eyelid opening in [0, 1]
    velocity_deg_s: np.ndarray  # (T,)
    fps: float
    post_saccade: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        n = self.gaze_deg.shape[0]
        for name, arr in (
            ("labels", self.labels),
            ("openness", self.openness),
            ("velocity_deg_s", self.velocity_deg_s),
        ):
            if arr.shape[0] != n:
                raise ValueError(f"{name} length {arr.shape[0]} != {n}")
        if self.post_saccade is None:
            self.post_saccade = post_saccade_mask(
                self.labels, _post_saccade_window(self.fps)
            )

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


@dataclass(frozen=True)
class TrackStack:
    """Equal-length gaze tracks of one frame rate, one row each:
    ``gaze_deg`` is ``(n_tracks, n_frames, 2)`` and the other arrays are
    ``(n_tracks, n_frames)``.  ``stack[i]`` is row ``i`` as a
    :class:`GazeTrack` of views, so it is read-only wherever the stack
    is (a stack from :func:`generate_tracks` is)."""

    gaze_deg: np.ndarray
    labels: np.ndarray
    openness: np.ndarray
    velocity_deg_s: np.ndarray
    post_saccade: np.ndarray
    fps: float

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __getitem__(self, i: int) -> GazeTrack:
        return GazeTrack(
            self.gaze_deg[i],
            self.labels[i],
            self.openness[i],
            self.velocity_deg_s[i],
            self.fps,
            self.post_saccade[i],
        )

    @staticmethod
    def of(tracks: "Sequence[GazeTrack]") -> "TrackStack":
        """The rows of ``tracks`` copied into one stack."""
        return TrackStack(
            np.stack([t.gaze_deg for t in tracks]),
            np.stack([t.labels for t in tracks]),
            np.stack([t.openness for t in tracks]),
            np.stack([t.velocity_deg_s for t in tracks]),
            np.stack([t.post_saccade for t in tracks]),
            tracks[0].fps,
        )


def velocities_from_gaze(gaze: np.ndarray, dt: float) -> np.ndarray:
    """Per-frame angular speed along the frame axis of ``gaze``
    (``(..., n_frames, 2)``; each row's first frame is 0).

    The speed is ``sqrt(dx*dx + dy*dy) / dt``, the arithmetic of
    ``np.linalg.norm(np.diff(gaze, axis=-2), axis=-1) / dt``: separate
    multiplies and one add per frame, so no multiply-add is fused."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    speed = np.zeros(gaze.shape[:-1])
    dx = np.diff(gaze[..., 0], axis=-1)
    dy = np.diff(gaze[..., 1], axis=-1)
    dx *= dx
    dy *= dy
    dx += dy
    np.sqrt(dx, out=dx)
    dx /= dt
    speed[..., 1:] = dx
    return speed


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=256)
def _minimum_jerk(n: int) -> np.ndarray:
    """Minimum-jerk displacement profile s(tau) in [0, 1] over ``n`` samples
    (cached per ``n``, so the array is read-only)."""
    tau = np.linspace(0.0, 1.0, n)
    return _read_only(10 * tau**3 - 15 * tau**4 + 6 * tau**5)


@functools.lru_cache(maxsize=256)
def _blink_profile(n: int) -> np.ndarray:
    """Triangular close/open lid profile over ``n`` frames, clipped to
    [0, 1] (cached per ``n``, so the array is read-only)."""
    half = n / 2.0
    profile = 1.0 - np.minimum(np.arange(n) + 1, n - np.arange(n)) / half
    return _read_only(np.clip(profile, 0.0, 1.0))


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


class _Draws:
    """The random draws of a stack of traces, as Python scalars, and
    the arrays they give every row.

    Rows are numbered across the stack: trace ``s`` of a stack of
    ``n_frames``-frame traces owns rows ``s * n_frames`` onwards.  Each
    gaze segment has a kind, a first row and a row count, the gaze
    position it starts from, a vector (drift direction, saccade
    displacement or pursuit direction) and, for a pursuit, its speed
    (fixations all drift at ``drift_speed_deg_s``).  A fixation's tremor
    block is written straight into :attr:`gaze` (zero on every other
    row); a saccade keeps its minimum-jerk profile.  The lids are one
    level per stretch of rows, and each blink a first row and a count.
    """

    def __init__(self, n_rows: int) -> None:
        self.n_rows = n_rows
        self.gaze = np.zeros((n_rows, 2))
        self.kinds: list[int] = []
        self.starts: list[int] = []
        self.counts: list[int] = []
        self.origins: list[tuple[float, float]] = []
        self.vectors: list[tuple[float, float]] = []
        self.speeds: list[float] = []
        self.profiles: list[np.ndarray] = []
        self.levels: list[float] = []
        self.lengths: list[int] = []
        self.blinks: list[tuple[int, int]] = []

    def add(self, kind, start, count, origin, vector, speed=0.0) -> None:
        self.kinds.append(kind)
        self.starts.append(start)
        self.counts.append(count)
        self.origins.append(origin)
        self.vectors.append(vector)
        self.speeds.append(speed)

    def fill(self, cfg: OculomotorConfig) -> "tuple[np.ndarray, np.ndarray]":
        """``(gaze, labels)`` of every row, each kind's formula applied
        to all its rows at once with the per-segment operation order:
        fixation ``(p + ((k * d) * s) / fps) + tremor``, saccade
        ``p + jerk[k] * d``, pursuit ``clip(p + ((k * s) / fps) * d)``,
        for row ``k`` of a segment starting at ``p``.

        The fixation formula runs in place over every row (the other
        kinds' rows are overwritten after), so besides the outputs only
        the row offsets, origins and vectors are full height."""
        fps = cfg.fps
        limit = cfg.field_deg / 2
        counts = np.array(self.counts)
        labels = np.array(self.kinds, dtype=np.int64).repeat(counts)
        k = np.arange(self.n_rows) - np.array(self.starts).repeat(counts)
        origin = np.array(self.origins).repeat(counts, axis=0)
        vector = np.array(self.vectors).repeat(counts, axis=0)
        overwrite = []
        if self.profiles:
            rows = np.flatnonzero(labels == _SACCADE)
            jerk = np.concatenate(self.profiles)[:, None]
            overwrite.append((rows, origin[rows] + jerk * vector[rows]))
        if _PURSUIT in self.kinds:
            rows = np.flatnonzero(labels == _PURSUIT)
            speed = np.array(self.speeds).repeat(counts)[rows, None]
            step = (k[rows, None] * speed) / fps
            path = np.clip(origin[rows] + step * vector[rows], -limit, limit)
            overwrite.append((rows, path))
        vector *= k[:, None]
        vector *= cfg.drift_speed_deg_s
        vector /= fps
        vector += origin
        del origin, k
        gaze = self.gaze
        gaze += vector
        for rows, values in overwrite:
            gaze[rows] = values
        return gaze, labels

    def openness(self) -> np.ndarray:
        """Every row's lid level with the blinks laid over it."""
        openness = np.repeat(np.array(self.levels), self.lengths)
        for start, count in self.blinks:
            lid = openness[start : start + count]
            np.minimum(lid, _blink_profile(count), out=lid)
        return openness


def generate_tracks(
    models: "Sequence[OculomotorModel]", n_frames: int
) -> TrackStack:
    """One ``n_frames`` trace per model, as a read-only stack.

    Row ``i`` is bit for bit what ``models[i]`` alone would generate,
    and each model's generator consumes exactly its own trace's draws,
    in the same order.  The models must share one config.
    """
    if n_frames <= 0:
        raise ValueError(f"n_frames must be positive, got {n_frames}")
    if not models:
        raise ValueError("generate_tracks needs at least one model")
    cfg = models[0].config
    if any(m.config is not cfg and m.config != cfg for m in models):
        raise ValueError("models of one stack must share one OculomotorConfig")
    n_tracks = len(models)
    draws = _Draws(n_tracks * n_frames)
    for s, model in enumerate(models):
        model._draw(draws, s * n_frames, n_frames)

    gaze, labels = draws.fill(cfg)
    openness = draws.openness()
    del draws
    # A closed eye yields no usable gaze signal; keep the nominal gaze
    # label but annotate the frame as a blink.
    labels[openness < 0.2] = MovementType.BLINK
    gaze = gaze.reshape(n_tracks, n_frames, 2)
    labels = labels.reshape(n_tracks, n_frames)
    return TrackStack(
        gaze_deg=_read_only(gaze),
        labels=_read_only(labels),
        openness=_read_only(openness.reshape(n_tracks, n_frames)),
        velocity_deg_s=_read_only(velocities_from_gaze(gaze, 1.0 / cfg.fps)),
        post_saccade=_read_only(
            post_saccade_mask(labels, _post_saccade_window(cfg.fps))
        ),
        fps=cfg.fps,
    )


class OculomotorModel(RngMixin):
    """Stochastic generator of gaze trajectories.

    :meth:`_draw` walks the segments drawing random numbers in a fixed
    order and carrying the gaze position as Python floats, computed with
    the same operations, in the same order, as the per-frame arrays;
    :func:`generate_tracks` then fills the arrays once per stack.  A
    seed therefore fixes the trace bit for bit.
    """

    def __init__(self, config: "OculomotorConfig | None" = None, seed=None):
        super().__init__(seed)
        self.config = config or OculomotorConfig()

    def generate(self, n_frames: int) -> GazeTrack:
        """Generate ``n_frames`` of gaze behaviour starting from a random
        fixation point (the one-row :func:`generate_tracks`; its arrays
        are read-only)."""
        return generate_tracks([self], n_frames)[0]

    # ------------------------------------------------------------------
    def _draw(self, draws: _Draws, offset: int, n_frames: int) -> None:
        """Make one trace's draws into ``draws``, from row ``offset``:
        the start position, then per segment its roll, its scalar draws,
        its direction and, for a fixation, its tremor block; then the
        lid stretches, then the blinks."""
        cfg = self.config
        rng = self.rng
        fps = cfg.fps
        limit = cfg.field_deg / 2

        px, py = rng.uniform(-cfg.field_deg / 2, cfg.field_deg / 2, size=2).tolist()
        t = 0
        while t < n_frames:
            if rng.random() < cfg.pursuit_probability:
                duration = _uniform(rng, cfg.pursuit_duration_s)
                speed = _uniform(rng, cfg.pursuit_speed_deg_s)
                n = max(2, int(round(duration * fps)))
                count = min(t + n, n_frames) - t
                dx, dy = _unit(rng)
                draws.add(_PURSUIT, offset + t, count, (px, py), (dx, dy), speed)
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
            draws.add(_FIXATION, offset + t, count, (px, py), (dx, dy))
            draws.gaze[offset + t : offset + t + count] = tremor
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
            draws.add(_SACCADE, offset + t, count, (px, py), (vx, vy))
            draws.profiles.append(_minimum_jerk(n)[:count])
            # A saccade cut short ends the trace, so only a whole one
            # carries its position on.
            px, py = tx, ty
            t += count

        self._draw_lids(draws, n_frames)
        self._draw_blinks(draws, offset, n_frames)

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

    def _draw_lids(self, draws: _Draws, n_frames: int) -> None:
        """Slow lid-level variation: mostly wide open, with occasional
        sustained squints.  These partially-occluded stretches are the
        long-tail frames that separate the gaze trackers (Fig. 8a)."""
        cfg = self.config
        rng = self.rng
        t = 0
        while t < n_frames:
            duration = _uniform(rng, cfg.openness_segment_s)
            stop = min(t + max(1, int(round(duration * cfg.fps))), n_frames)
            if rng.random() < cfg.squint_probability:
                draws.levels.append(_uniform(rng, cfg.squint_level))
            else:
                draws.levels.append(_uniform(rng, cfg.normal_level))
            draws.lengths.append(stop - t)
            t = stop

    def _draw_blinks(self, draws: _Draws, offset: int, n_frames: int) -> None:
        cfg = self.config
        rng = self.rng
        expected = cfg.blink_rate_hz * n_frames / cfg.fps
        for _ in range(rng.poisson(expected)):
            start = int(rng.integers(0, n_frames))
            duration = _uniform(rng, cfg.blink_duration_s)
            n = max(2, int(round(duration * cfg.fps)))
            draws.blinks.append((offset + start, min(start + n, n_frames) - start))
