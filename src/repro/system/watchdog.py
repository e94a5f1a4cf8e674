"""Tracking-quality watchdog: online degradation detection and recovery.

POLO sizes the foveal region from the tracker's P95 error (Eq. 1), so the
whole perceptual contract silently breaks the moment the tracker degrades
— occluded eyes, sensor noise bursts, stalled inference — while the
renderer keeps trusting the nominal error budget.  The watchdog closes
that loop: it monitors a sliding window of realized tracking errors and
per-frame confidence (eyelid openness, link integrity) and walks a
four-level degradation ladder:

* ``NOMINAL``   — tracker inside budget; render with the profile's Δθ.
* ``WIDENED``   — error inflated: widen the foveal radius to the *online*
  P95 via :meth:`TrackerSystemProfile.with_delta_theta` (Eq. 1 absorbs
  the extra error as a larger full-resolution disc).
* ``REUSE_ONLY`` — tracker untrustworthy: stop acting on fresh
  predictions; serve frames from the buffered gaze (Algorithm 1's reuse
  mechanism) until quality returns.
* ``FULL_RES``  — tracking lost: fall back to full-resolution rendering,
  which needs no gaze at all (the Fig. 12 comparator).

Escalation is immediate (a broken tracker must never shrink perceptual
quality for even one window), de-escalation is hysteretic: the watchdog
steps down one level only after the quality signal has been continuously
healthy for ``recovery_dwell_s``.  All transitions and per-level dwell
times are recorded for telemetry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.recover.configio import decode, encode
from repro.system.tfr import TrackerSystemProfile
from repro.utils.validation import check_in_range, check_positive


class DegradationLevel(enum.IntEnum):
    """Watchdog degradation ladder, ordered by severity."""

    NOMINAL = 0
    WIDENED = 1
    REUSE_ONLY = 2
    FULL_RES = 3


@dataclass(frozen=True)
class WatchdogConfig:
    """Thresholds of the quality monitor.

    The error thresholds are multiples of the profile's nominal Δθ (its
    P95 error): online P95 above ``widen_factor * Δθ`` widens the fovea,
    above ``reuse_factor * Δθ`` stops trusting fresh predictions, above
    ``full_res_factor * Δθ`` abandons foveation.  Windowed mean confidence
    below ``confidence_floor`` forces at least ``REUSE_ONLY`` regardless
    of the error stream (a mostly-closed eye produces few error samples
    but must still degrade).
    """

    window: int = 128
    min_samples: int = 16
    widen_factor: float = 1.5
    reuse_factor: float = 2.5
    full_res_factor: float = 4.0
    confidence_floor: float = 0.5
    recovery_dwell_s: float = 0.5
    widen_margin: float = 1.1

    def __post_init__(self) -> None:
        check_positive("window", self.window)
        check_positive("min_samples", self.min_samples)
        if self.min_samples > self.window:
            raise ValueError(
                f"min_samples {self.min_samples} exceeds window {self.window}"
            )
        if not 1.0 <= self.widen_factor <= self.reuse_factor <= self.full_res_factor:
            raise ValueError(
                "thresholds must satisfy 1 <= widen_factor <= reuse_factor "
                f"<= full_res_factor, got {self.widen_factor}, "
                f"{self.reuse_factor}, {self.full_res_factor}"
            )
        check_in_range("confidence_floor", self.confidence_floor, 0.0, 1.0)
        check_positive("recovery_dwell_s", self.recovery_dwell_s)
        check_positive("widen_margin", self.widen_margin)


@dataclass
class WatchdogState:
    """What a watchdog checkpoints: its ladder position and transition
    log, the sliding windows, the hysteresis clock and the dwell ledger."""

    level: DegradationLevel
    transitions: list[tuple[float, str, str]]
    #: Sliding windows: the last ``config.window`` tracking errors and
    #: confidences, oldest first.
    errors: list[float]
    confidences: list[float]
    healthy_since: "float | None"
    level_entered_s: float
    dwell_s: dict[str, float]
    max_widened_deg: float
    finalized_s: "float | None"


class TrackingWatchdog:
    """Online P95-error / confidence monitor with hysteretic recovery."""

    def __init__(
        self,
        profile: TrackerSystemProfile,
        config: "WatchdogConfig | None" = None,
        start_s: float = 0.0,
        on_transition=None,
    ):
        self.profile = profile
        self.config = config or WatchdogConfig()
        #: Optional ``(now_s, from_name, to_name)`` callback fired on every
        #: ladder transition — used by observability to emit trace instants.
        self.on_transition = on_transition
        dwell_s = {level.name: 0.0 for level in DegradationLevel}
        self.state = WatchdogState(
            DegradationLevel.NOMINAL, [], [], [], None, start_s, dwell_s,
            profile.delta_theta_deg, None,
        )

    @property
    def level(self) -> DegradationLevel:
        return self.state.level

    @property
    def transitions(self) -> "list[tuple[float, str, str]]":
        return self.state.transitions

    # ------------------------------------------------------------------
    # Quality signals
    # ------------------------------------------------------------------
    def online_p95_deg(self) -> "float | None":
        """Windowed P95 tracking error; None until ``min_samples`` seen."""
        if len(self.state.errors) < self.config.min_samples:
            return None
        return float(np.percentile(np.asarray(self.state.errors), 95))

    def mean_confidence(self) -> float:
        if not self.state.confidences:
            return 1.0
        return float(np.mean(np.asarray(self.state.confidences)))

    def _target_level(self) -> DegradationLevel:
        cfg = self.config
        nominal = max(self.profile.delta_theta_deg, 1e-9)
        target = DegradationLevel.NOMINAL
        p95 = self.online_p95_deg()
        if p95 is not None:
            ratio = p95 / nominal
            if ratio > cfg.full_res_factor:
                target = DegradationLevel.FULL_RES
            elif ratio > cfg.reuse_factor:
                target = DegradationLevel.REUSE_ONLY
            elif ratio > cfg.widen_factor:
                target = DegradationLevel.WIDENED
        if self.mean_confidence() < cfg.confidence_floor:
            target = max(target, DegradationLevel.REUSE_ONLY)
        return target

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def observe(
        self,
        now_s: float,
        error_deg: "float | None" = None,
        confidence: float = 1.0,
    ) -> DegradationLevel:
        """Feed one frame's quality signals; returns the current level.

        ``error_deg`` is the realized tracking error when a gaze sample
        exists (None for frames with no usable signal, e.g. a closed
        eye); ``confidence`` in [0, 1] is the sensing-chain health
        (eyelid openness degraded by link corruption).
        """
        if error_deg is not None:
            if error_deg < 0:
                raise ValueError(f"error_deg must be non-negative, got {error_deg}")
            self.state.errors.append(float(error_deg))
            del self.state.errors[: -self.config.window]
        self.state.confidences.append(float(np.clip(confidence, 0.0, 1.0)))
        del self.state.confidences[: -self.config.window]

        target = self._target_level()
        if target > self.level:
            self._transition(now_s, target)
            self.state.healthy_since = None
        elif target < self.level:
            if self.state.healthy_since is None:
                self.state.healthy_since = now_s
            elif now_s - self.state.healthy_since >= self.config.recovery_dwell_s:
                self._transition(now_s, DegradationLevel(self.level - 1))
                self.state.healthy_since = now_s  # one level per dwell period
        else:
            self.state.healthy_since = None
        if self.level > DegradationLevel.NOMINAL:
            self.state.max_widened_deg = max(
                self.state.max_widened_deg, self.widened_delta_theta_deg()
            )
        return self.level

    def escalate(
        self,
        now_s: float,
        to: DegradationLevel = DegradationLevel.WIDENED,
    ) -> DegradationLevel:
        """Force the ladder up to at least ``to`` from an external signal.

        The SLO engine calls this when a latency error budget pages
        (``on_page: "widen"``): even with healthy tracking, a serving
        stack that is missing deadlines should widen the foveal radius
        (Eq. 1) so stale-but-covered gaze beats fresh-but-late gaze.
        Never de-escalates — recovery stays hysteretic via
        :meth:`observe`.
        """
        if to > self.level:
            self._transition(now_s, to)
            self.state.healthy_since = None
        if self.level > DegradationLevel.NOMINAL:
            self.state.max_widened_deg = max(
                self.state.max_widened_deg, self.widened_delta_theta_deg()
            )
        return self.level

    def _transition(self, now_s: float, to: DegradationLevel) -> None:
        state = self.state
        state.dwell_s[state.level.name] += max(0.0, now_s - state.level_entered_s)
        state.transitions.append((now_s, state.level.name, to.name))
        if self.on_transition is not None:
            self.on_transition(now_s, state.level.name, to.name)
        state.level = to
        state.level_entered_s = now_s

    # ------------------------------------------------------------------
    # Render-side coupling (Eq. 1)
    # ------------------------------------------------------------------
    def widened_delta_theta_deg(self) -> float:
        """The Δθ the renderer should budget for right now: the online
        P95 with a safety margin, never below the nominal operating
        point."""
        p95 = self.online_p95_deg()
        if p95 is None:
            return self.profile.delta_theta_deg
        return max(self.profile.delta_theta_deg, self.config.widen_margin * p95)

    def profile_now(self) -> TrackerSystemProfile:
        """The profile the TFR composition should use at this instant —
        identical at NOMINAL, widened via Eq. 1 under degradation."""
        if self.level is DegradationLevel.NOMINAL:
            return self.profile
        return self.profile.with_delta_theta(self.widened_delta_theta_deg())

    @property
    def max_widened_delta_theta_deg(self) -> float:
        """Worst Δθ operating point the watchdog ever commanded."""
        return self.state.max_widened_deg

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def finalize(self, now_s: float) -> None:
        """Close the dwell accounting at end of run (idempotent)."""
        state = self.state
        if state.finalized_s is not None:
            now_s = state.finalized_s
        state.dwell_s[state.level.name] += max(0.0, now_s - state.level_entered_s)
        state.level_entered_s = now_s
        state.finalized_s = now_s

    def dwell_s(self) -> dict[str, float]:
        """Seconds spent at each level (call :meth:`finalize` first for a
        closed ledger)."""
        return dict(self.state.dwell_s)

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot of the full monitor state (sliding windows,
        ladder position, hysteresis clock, dwell ledger)."""
        # The level is written by name; the codec writes enums by value.
        return {**encode(self.state), "level": self.level.name}

    def load_state(self, state: dict, path: str = "") -> None:
        """Restore a :meth:`state_dict` snapshot."""
        level = DegradationLevel[state["level"]]
        self.state = decode(WatchdogState, {**state, "level": level}, path)
