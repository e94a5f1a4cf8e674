"""Synthetic OpenEDS-2020-like dataset.

OpenEDS-2020 provides per-participant near-eye image sequences annotated
with gaze vectors and movement types (128,000 train frames from 32
participants; 70,400 validation frames from 8 participants).  This module
synthesizes datasets with the same schema from the procedural eye
renderer and the oculomotor model; ``make_openeds_like`` reproduces the
participant split at a configurable scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.eye.eyeball import EyeAppearance
from repro.eye.motion import GazeTrack, OculomotorConfig, OculomotorModel
from repro.eye.renderer import NearEyeRenderer, RenderConfig
from repro.utils.image import block_reduce_mean
from repro.utils.rng import default_rng
from repro.utils.validation import check_positive


@dataclass
class EyeSequence:
    """One participant's contiguous recording.

    ``images`` must not be written after construction: ``pooled``
    remembers the pooled frames for the life of the sequence.
    """

    participant: int
    images: np.ndarray  # (T, H, W) float32 in [0, 1]
    gaze_deg: np.ndarray  # (T, 2)
    labels: np.ndarray  # (T,) MovementType values
    openness: np.ndarray  # (T,)
    velocity_deg_s: np.ndarray  # (T,)
    post_saccade: np.ndarray  # (T,) bool
    fps: float
    _pooled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.images.shape[0]
        for name in ("gaze_deg", "labels", "openness", "velocity_deg_s", "post_saccade"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} length mismatch with images ({n})")

    def __len__(self) -> int:
        return self.images.shape[0]

    def pooled(self, pool_m: int) -> np.ndarray:
        """Every frame average-pooled by ``pool_m`` x ``pool_m`` tiles (the
        IPU's first stage), as a read-only float64 (T, H // pool_m,
        W // pool_m) array.  Each frame is pooled once per pool size."""
        pooled = self._pooled.get(pool_m)
        if pooled is None:
            pooled = np.stack(
                [
                    block_reduce_mean(frame.astype(np.float64), pool_m)
                    for frame in self.images
                ]
            )
            pooled.flags.writeable = False
            self._pooled[pool_m] = pooled
        return pooled


@dataclass
class EyeDataset:
    """A collection of sequences plus flattened convenience views."""

    sequences: list[EyeSequence] = field(default_factory=list)

    def __len__(self) -> int:
        return sum(len(s) for s in self.sequences)

    @property
    def participants(self) -> list[int]:
        return [s.participant for s in self.sequences]

    def images(self) -> np.ndarray:
        return np.concatenate([s.images for s in self.sequences], axis=0)

    def gaze(self) -> np.ndarray:
        return np.concatenate([s.gaze_deg for s in self.sequences], axis=0)

    def labels(self) -> np.ndarray:
        return np.concatenate([s.labels for s in self.sequences], axis=0)

    def subsample(self, n: int, seed=None) -> tuple[np.ndarray, np.ndarray]:
        """Random (images, gaze) sample of size ``n`` across all sequences —
        the 'small calibration dataset' of §4.2."""
        rng = default_rng(seed)
        total = len(self)
        if n > total:
            raise ValueError(f"requested {n} frames but dataset has {total}")
        idx = np.sort(rng.choice(total, size=n, replace=False))
        return self.images()[idx], self.gaze()[idx]


def synthesize_sequence(
    participant: int,
    n_frames: int,
    render_config: "RenderConfig | None" = None,
    motion_config: "OculomotorConfig | None" = None,
    seed=None,
) -> EyeSequence:
    """Render one participant's sequence from a sampled appearance."""
    check_positive("n_frames", n_frames)
    rng = default_rng(seed)
    render_config = render_config or RenderConfig()
    appearance = EyeAppearance.sample(rng, render_config.width, render_config.height)
    renderer = NearEyeRenderer(appearance, render_config, seed=rng)
    motion = OculomotorModel(motion_config, seed=rng)
    track: GazeTrack = motion.generate(n_frames)

    dilation = 1.0 + 0.15 * np.sin(np.arange(n_frames) / track.fps * 0.7)
    images = np.empty(
        (n_frames, render_config.height, render_config.width), dtype=np.float32
    )
    blur = np.where(track.velocity_deg_s > 150.0, track.velocity_deg_s / 120.0, 0.0)
    for i in range(n_frames):
        images[i] = renderer.render(
            track.gaze_deg[i],
            openness=float(track.openness[i]),
            dilation=float(dilation[i]),
            motion_blur=float(blur[i]),
        )
    return EyeSequence(
        participant=participant,
        images=images,
        gaze_deg=track.gaze_deg,
        labels=track.labels,
        openness=track.openness,
        velocity_deg_s=track.velocity_deg_s,
        post_saccade=track.post_saccade,
        fps=track.fps,
    )


def synthesize_dataset(
    n_participants: int,
    frames_per_participant: int,
    render_config: "RenderConfig | None" = None,
    motion_config: "OculomotorConfig | None" = None,
    seed=None,
) -> EyeDataset:
    """Synthesize a multi-participant dataset with independent appearances."""
    check_positive("n_participants", n_participants)
    rng = default_rng(seed)
    sequences = [
        synthesize_sequence(
            participant=p,
            n_frames=frames_per_participant,
            render_config=render_config,
            motion_config=motion_config,
            seed=rng,
        )
        for p in range(n_participants)
    ]
    return EyeDataset(sequences)


def make_openeds_like(
    scale: float = 0.01,
    render_config: "RenderConfig | None" = None,
    motion_config: "OculomotorConfig | None" = None,
    seed: int = 2020,
) -> tuple[EyeDataset, EyeDataset]:
    """Train/validation datasets mirroring the OpenEDS-2020 split shape.

    At ``scale=1.0`` this produces the full 32x4000 / 8x8800 frame counts;
    the default small scale keeps pure-python pipelines tractable while
    preserving the participant structure (train and validation participants
    are disjoint draws, so validation exercises appearance generalization
    exactly as OpenEDS does).
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    train_frames = max(8, int(round(4000 * scale)))
    val_frames = max(8, int(round(8800 * scale)))
    n_train = max(2, int(round(32 * min(1.0, scale * 20))))
    n_val = max(1, int(round(8 * min(1.0, scale * 20))))
    rng = default_rng(seed)
    train = synthesize_dataset(
        n_train, train_frames, render_config, motion_config, seed=rng
    )
    val = synthesize_dataset(n_val, val_frames, render_config, motion_config, seed=rng)
    # Re-tag validation participants so ids do not collide with train.
    for offset, seq in enumerate(val.sequences):
        seq.participant = 1000 + offset
    return train, val
