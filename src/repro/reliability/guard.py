"""Physiological plausibility gate on tracker outputs (SDC last line).

ABFT covers the matmul datapath, but a flipped weight bit that survives
until prediction, an IPU upset, or any fault outside the protected GEMMs
still reaches the application as a *plausible-looking* gaze sample.  The
eye itself bounds how fast that sample can move: saccade kinematics
follow the main sequence (``duration_ms = 2.2 * amplitude + 21``,
Robinson-style fit — the same constants :mod:`repro.eye.motion`
generates behaviour from), and with a minimum-jerk profile the peak
velocity exceeds the mean by at most 1.875x.  The largest in-field
saccade (25 deg) therefore peaks near ~613 deg/s; anything meaningfully
above that is not an eye movement, it is corruption.

The guard applies exactly the escalation the issue specifies: flag the
implausible jump, request **one** recompute, and if the recomputed
sample is still implausible fall back to gaze reuse (hold the last
accepted estimate) — the same degradation primitive POLO's reuse path
already makes cheap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.recover.configio import decode, decode_into, encode, field_path
from repro.utils.validation import check_positive

#: Peak-to-mean velocity ratio of a minimum-jerk displacement profile
#: (max of d/dtau [10 tau^3 - 15 tau^4 + 6 tau^5] = 15/8 at tau = 1/2).
MIN_JERK_PEAK_TO_MEAN = 1.875


class GazeVerdict(enum.Enum):
    """What the plausibility gate decided for one gaze sample."""

    PLAUSIBLE = "plausible"
    RECOMPUTED = "recomputed"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class PlausibilityConfig:
    """Main-sequence-derived bounds on frame-to-frame gaze motion.

    Defaults mirror :class:`repro.eye.motion.OculomotorConfig` so the
    gate is calibrated to the same oculomotor physiology the simulated
    users exhibit.  ``margin`` absorbs tracker noise riding on top of a
    legitimate peak-velocity frame; it is deliberately generous because
    a false trip costs one recompute, while a missed SDC reaches the
    renderer.
    """

    fps: float = 100.0
    field_deg: float = 22.0
    max_amplitude_deg: float = 25.0
    main_sequence_slope_ms: float = 2.2
    main_sequence_intercept_ms: float = 21.0
    peak_to_mean: float = MIN_JERK_PEAK_TO_MEAN
    margin: float = 1.25

    def __post_init__(self) -> None:
        check_positive("fps", self.fps)
        check_positive("field_deg", self.field_deg)
        check_positive("max_amplitude_deg", self.max_amplitude_deg)
        check_positive("peak_to_mean", self.peak_to_mean)
        check_positive("margin", self.margin)

    @property
    def max_velocity_deg_s(self) -> float:
        """Peak angular velocity of the largest main-sequence saccade."""
        duration_s = (
            self.main_sequence_intercept_ms
            + self.main_sequence_slope_ms * self.max_amplitude_deg
        ) / 1000.0
        mean = self.max_amplitude_deg / duration_s
        return mean * self.peak_to_mean * self.margin

    @property
    def max_jump_deg(self) -> float:
        """Largest physiologically plausible frame-to-frame displacement."""
        return self.max_velocity_deg_s / self.fps

    @property
    def field_limit_deg(self) -> float:
        """Per-axis bound on gaze position (eyes stay in the FOV)."""
        return self.field_deg / 2.0 * self.margin


@dataclass(init=False, eq=False)
class PlausibilityGuard:
    """Stateful gaze-sample gate: flag -> recompute once -> gaze reuse.

    Feed every tracker output through :meth:`check`.  The guard keeps
    the last *accepted* gaze as its reference, so a corrupted sample
    never poisons subsequent plausibility judgements.  Its dataclass
    fields are its counters; the guard snapshots them with that
    reference via ``state_dict`` / ``load_state`` so :mod:`repro.recover`
    restores it bit-identically.
    """

    checks: int
    flagged: int
    recomputes: int
    fallbacks: int

    def __init__(self, config: "PlausibilityConfig | None" = None):
        self.config = config or PlausibilityConfig()
        self._last: "np.ndarray | None" = None
        self.checks = 0
        self.flagged = 0
        self.recomputes = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    def plausible(self, gaze: np.ndarray, frames: float = 1.0) -> bool:
        """Is ``gaze`` reachable from the last accepted sample?

        ``frames`` is the elapsed frame count since that sample — the
        velocity bound scales linearly with time, so a sample arriving
        after a two-frame gap may legitimately jump twice as far."""
        gaze = np.asarray(gaze, dtype=np.float64)
        if not np.isfinite(gaze).all():
            return False
        if np.abs(gaze).max() > self.config.field_limit_deg:
            return False
        if self._last is None:
            return True
        jump = float(np.linalg.norm(gaze - self._last))
        return jump <= self.config.max_jump_deg * max(frames, 1.0)

    def check(
        self,
        gaze: np.ndarray,
        recompute: "Callable[[], np.ndarray] | None" = None,
        frames: float = 1.0,
    ) -> tuple[np.ndarray, GazeVerdict]:
        """Gate one tracker output; returns ``(accepted_gaze, verdict)``.

        ``recompute`` re-runs the prediction (presumably after the
        transient cleared or a scrub); it is called at most once.  With
        no recompute available, an implausible sample goes straight to
        gaze reuse.  The first sample after construction or
        :meth:`reset` is accepted unconditionally unless it is
        non-finite or out of field (there is no reference to judge a
        jump against).
        """
        self.checks += 1
        gaze = np.asarray(gaze, dtype=np.float64)
        if self.plausible(gaze, frames):
            self._last = gaze.copy()
            return gaze, GazeVerdict.PLAUSIBLE
        self.flagged += 1
        if recompute is not None:
            self.recomputes += 1
            retry = np.asarray(recompute(), dtype=np.float64)
            if self.plausible(retry, frames):
                self._last = retry.copy()
                return retry, GazeVerdict.RECOMPUTED
        self.fallbacks += 1
        if self._last is not None:
            # Gaze reuse: hold the last accepted estimate (Algorithm 1's
            # cheap path) rather than ship a corrupted one.
            return self._last.copy(), GazeVerdict.FALLBACK
        # No history at all: clamp into the field so downstream foveation
        # at least stays on screen.
        limit = self.config.field_limit_deg
        held = np.clip(np.nan_to_num(gaze, nan=0.0, posinf=limit, neginf=-limit),
                       -limit, limit)
        self._last = held.copy()
        return held, GazeVerdict.FALLBACK

    def reset(self) -> None:
        """Drop the gaze reference (e.g. after a blink or session swap);
        counters are cumulative and survive."""
        self._last = None

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, int]:
        return encode(self)

    def state_dict(self) -> dict:
        last = None if self._last is None else self._last.tolist()
        return {"last": last, "counters": self.as_dict()}

    def load_state(self, state: dict, path: str = "") -> None:
        last = decode(list[float] | None, state["last"], field_path(path, "last"))
        self._last = None if last is None else np.asarray(last, dtype=np.float64)
        decode_into(self, state["counters"], field_path(path, "counters"))
