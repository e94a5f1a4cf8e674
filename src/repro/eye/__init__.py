"""Synthetic near-eye imaging substrate (OpenEDS-2020 stand-in).

Provides a procedural eye renderer, an oculomotor behaviour model, and
dataset synthesis with the OpenEDS annotation schema (per-frame gaze
vector in degrees plus movement-type label).
"""

from repro.eye.dataset import (
    EyeDataset,
    EyeSequence,
    make_openeds_like,
    synthesize_dataset,
    synthesize_sequence,
)
from repro.eye.events import (
    EventMix,
    EventSegment,
    MovementType,
    post_saccade_mask,
    saccade_fraction,
    segments_from_labels,
)
from repro.eye.eyeball import EyeAppearance, EyeGeometry, PupilPose
from repro.eye.loader import load_dataset, load_sequence
from repro.eye.motion import (
    GazeTrack,
    OculomotorConfig,
    OculomotorModel,
    TrackStack,
    generate_tracks,
)
from repro.eye.renderer import NearEyeRenderer, RenderConfig

__all__ = [
    "EyeDataset",
    "EyeSequence",
    "make_openeds_like",
    "synthesize_dataset",
    "synthesize_sequence",
    "EventMix",
    "EventSegment",
    "MovementType",
    "post_saccade_mask",
    "saccade_fraction",
    "segments_from_labels",
    "EyeAppearance",
    "EyeGeometry",
    "PupilPose",
    "load_dataset",
    "load_sequence",
    "GazeTrack",
    "OculomotorConfig",
    "OculomotorModel",
    "TrackStack",
    "generate_tracks",
    "NearEyeRenderer",
    "RenderConfig",
]
