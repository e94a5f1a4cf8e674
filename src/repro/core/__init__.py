"""POLONet: the paper's algorithmic contribution (§4).

Saccade detection, gaze reuse, analytical cropping, the token-prunable
gaze ViT with performance-aware training, and the Algorithm-1 runtime.
"""

from repro.core.config import (
    GazeViTConfig,
    PerformanceLossConfig,
    PolonetConfig,
    SaccadeNetConfig,
)
from repro.core.gaze_vit import PoloViT
from repro.core.losses import (
    angular_error_tensor,
    hard_max_loss,
    make_performance_loss,
    mse_radians_loss,
    performance_aware_loss,
)
from repro.core.persistence import load_polonet, save_polonet
from repro.core.polonet import Decision, FrameResult, PoloNet, RuntimeStats
from repro.core.preprocessing import (
    PupilDetection,
    average_pool,
    binarize,
    binary_map,
    crop_frame,
    find_pupil_center,
    frame_difference,
    preprocess_frame,
    sequence_binary_maps,
    should_reuse,
)
from repro.core.saccade import SaccadeDetector, saccade_metrics
from repro.core.training import (
    PolonetBundle,
    build_crop_dataset,
    build_polonet,
    build_saccade_sequences,
    evaluate_saccade_detector,
    iter_crops,
    train_polovit,
    train_saccade_detector,
)

__all__ = [
    "GazeViTConfig",
    "PerformanceLossConfig",
    "PolonetConfig",
    "SaccadeNetConfig",
    "PoloViT",
    "angular_error_tensor",
    "hard_max_loss",
    "make_performance_loss",
    "mse_radians_loss",
    "performance_aware_loss",
    "load_polonet",
    "save_polonet",
    "Decision",
    "FrameResult",
    "PoloNet",
    "RuntimeStats",
    "PupilDetection",
    "average_pool",
    "binarize",
    "binary_map",
    "crop_frame",
    "find_pupil_center",
    "frame_difference",
    "preprocess_frame",
    "sequence_binary_maps",
    "should_reuse",
    "SaccadeDetector",
    "saccade_metrics",
    "PolonetBundle",
    "build_crop_dataset",
    "build_polonet",
    "build_saccade_sequences",
    "evaluate_saccade_detector",
    "iter_crops",
    "train_polovit",
    "train_saccade_detector",
]
