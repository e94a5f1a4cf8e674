"""POLONet runtime: the Algorithm-1 orchestration of saccade gating,
gaze reuse, analytical cropping, and the gaze ViT (paper §4, Fig. 5).

Per frame:

1. Pool and binarize the frame (gamma1).
2. Run the saccade RNN on the binary map; a detected saccade halts all
   further gaze processing for this frame.
3. Otherwise compare the binary map against the previous frame's; if the
   difference is under gamma2, reuse the buffered gaze.
4. Otherwise locate the pupil, crop H1 x H2 around it, and run POLOViT.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core import preprocessing as pre
from repro.core.config import PolonetConfig
from repro.core.gaze_vit import PoloViT
from repro.core.saccade import SaccadeDetector
from repro.nn.transformer import TokenTrace


class Decision(enum.Enum):
    """Which Algorithm-1 path handled a frame."""

    SACCADE = "saccade"
    REUSE = "reuse"
    PREDICT = "predict"


@dataclass
class FrameResult:
    """Outcome of processing one frame."""

    decision: Decision
    gaze_deg: "np.ndarray | None"
    saccade_probability: float
    frame_difference: "int | None"
    pupil: "pre.PupilDetection | None"
    trace: "TokenTrace | None"

    @property
    def has_gaze(self) -> bool:
        return self.gaze_deg is not None


@dataclass
class RuntimeStats:
    """Counts of each decision over a run (drives Eqs. 6-7 event mix)."""

    saccade: int = 0
    reuse: int = 0
    predict: int = 0

    @property
    def total(self) -> int:
        return self.saccade + self.reuse + self.predict

    def record(self, decision: Decision) -> None:
        if decision is Decision.SACCADE:
            self.saccade += 1
        elif decision is Decision.REUSE:
            self.reuse += 1
        else:
            self.predict += 1

    def probabilities(self) -> dict[str, float]:
        total = max(self.total, 1)
        return {
            "p_saccade": self.saccade / total,
            "p_reuse": self.reuse / total,
            "p_predict": self.predict / total,
        }


class PoloNet:
    """Stateful per-frame gaze processor (Algorithm 1)."""

    def __init__(
        self,
        saccade_detector: SaccadeDetector,
        gaze_vit: PoloViT,
        config: "PolonetConfig | None" = None,
        saccade_threshold: float = 0.5,
        prune: bool = True,
    ):
        self.config = config or PolonetConfig()
        self.saccade_detector = saccade_detector
        self.gaze_vit = gaze_vit
        self.saccade_threshold = saccade_threshold
        self.prune = prune
        self.stats = RuntimeStats()
        self.reset()

    def reset(self) -> None:
        """Clear all inter-frame state (previous map, buffered gaze, RNN)."""
        self._prev_binary: "np.ndarray | None" = None
        self._buffered_gaze: "np.ndarray | None" = None
        self._hidden: "np.ndarray | None" = None
        self.stats = RuntimeStats()

    # ------------------------------------------------------------------
    def process_frame(self, frame: np.ndarray) -> FrameResult:
        """Run Algorithm 1 on one (H, W) frame in [0, 1]."""
        cfg = self.config
        binary = pre.binary_map(frame, cfg)
        prob, self._hidden = self.saccade_detector.step(
            binary, self._hidden, previous_map=self._prev_binary
        )
        if prob >= self.saccade_threshold:
            # Saccade: halt everything; rendering will use the saccade path.
            self._prev_binary = binary
            result = FrameResult(
                decision=Decision.SACCADE,
                gaze_deg=None,
                saccade_probability=prob,
                frame_difference=None,
                pupil=None,
                trace=None,
            )
            self.stats.record(result.decision)
            return result

        diff = (
            pre.frame_difference(binary, self._prev_binary)
            if self._prev_binary is not None
            else None
        )
        if (
            diff is not None
            and diff < cfg.gamma2
            and self._buffered_gaze is not None
        ):
            self._prev_binary = binary
            result = FrameResult(
                decision=Decision.REUSE,
                gaze_deg=self._buffered_gaze.copy(),
                saccade_probability=prob,
                frame_difference=diff,
                pupil=None,
                trace=None,
            )
            self.stats.record(result.decision)
            return result

        detection = pre.find_pupil_center(binary, cfg.pupil_window, cfg.pool_m)
        crop = pre.crop_frame(frame, detection, cfg)
        gaze, trace = self.gaze_vit.predict_single(crop, prune=self.prune)
        self._buffered_gaze = gaze.copy()
        self._prev_binary = binary
        result = FrameResult(
            decision=Decision.PREDICT,
            gaze_deg=gaze,
            saccade_probability=prob,
            frame_difference=diff,
            pupil=detection,
            trace=trace,
        )
        self.stats.record(result.decision)
        return result

    def process_sequence(self, frames: np.ndarray) -> list[FrameResult]:
        """Process frames in order, maintaining state across them."""
        return [self.process_frame(frame) for frame in frames]
