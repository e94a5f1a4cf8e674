"""Training pipelines for POLONet components (paper §6).

Provides dataset preparation (analytical cropping of training frames,
binary-map sequence extraction), the POLOViT trainer with the
performance-aware loss, the saccade-RNN trainer (BPTT with class
weighting), and a one-call builder that assembles a ready-to-run
:class:`~repro.core.polonet.PoloNet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.baselines.base import TrainingLog, iterate_minibatches
from repro.core import preprocessing as pre
from repro.core.config import (
    GazeViTConfig,
    PerformanceLossConfig,
    PolonetConfig,
    SaccadeNetConfig,
)
from repro.core.gaze_vit import PoloViT
from repro.core.losses import make_performance_loss, mse_radians_loss
from repro.core.polonet import PoloNet
from repro.core.saccade import SaccadeDetector, saccade_metrics
from repro.eye.dataset import EyeDataset
from repro.eye.events import MovementType
from repro.nn import Adam, CosineSchedule, Tensor
from repro.nn import functional as F
from repro.utils.rng import default_rng


# ----------------------------------------------------------------------
# Dataset preparation
# ----------------------------------------------------------------------

def iter_crops(
    dataset: EyeDataset,
    config: "PolonetConfig | None" = None,
    min_openness: float = 0.35,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Apply the §4.2 analytical cropper to every usable frame, in order,
    yielding (float64 crop, gaze) pairs.

    Frames with the eye mostly closed carry no gaze signal and are
    excluded (their labels are nominal, not observable); partially
    occluded frames are *kept* — they are the long-tail cases the
    performance-aware loss exists to handle.
    """
    config = config or PolonetConfig()
    for seq in dataset.sequences:
        binaries = pre.sequence_binary_maps(seq, config)
        for i in range(len(seq)):
            if seq.openness[i] < min_openness:
                continue
            detection = pre.find_pupil_center(
                binaries[i], config.pupil_window, config.pool_m
            )
            crop = pre.crop_frame(seq.images[i], detection, config)
            yield crop.astype(np.float64), seq.gaze_deg[i]


def stack_crops(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Stack (crop, gaze) pairs into (N, H1, H2) crops and (N, 2) gaze."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no usable frames after openness filtering")
    crops, gazes = zip(*pairs)
    return np.stack(crops), np.stack(gazes)


def build_crop_dataset(
    dataset: EyeDataset,
    config: "PolonetConfig | None" = None,
    min_openness: float = 0.35,
) -> tuple[np.ndarray, np.ndarray]:
    """Every usable frame's crop and gaze (see ``iter_crops``), stacked."""
    return stack_crops(iter_crops(dataset, config, min_openness))


def build_saccade_sequences(
    dataset: EyeDataset,
    config: "PolonetConfig | None" = None,
    window: int = 12,
    stride: "int | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Binary-map training windows for the saccade RNN.

    Returns (sequences (B, T, h, w) float, labels (B, T) float) where a
    label of 1 marks a saccadic frame.
    """
    config = config or PolonetConfig()
    stride = stride or window
    seq_maps, seq_labels = [], []
    for seq in dataset.sequences:
        maps = pre.sequence_binary_maps(seq, config).astype(np.float64)
        labels = (seq.labels == MovementType.SACCADE).astype(np.float64)
        for start in range(0, len(seq) - window + 1, stride):
            seq_maps.append(maps[start : start + window])
            seq_labels.append(labels[start : start + window])
    if not seq_maps:
        raise ValueError(f"sequences shorter than window={window}")
    return np.stack(seq_maps), np.stack(seq_labels)


# ----------------------------------------------------------------------
# POLOViT training
# ----------------------------------------------------------------------

def train_polovit(
    vit: PoloViT,
    crops: np.ndarray,
    gaze_deg: np.ndarray,
    *,
    epochs: int = 15,
    batch_size: int = 32,
    lr: float = 1e-3,
    loss: str = "performance",
    loss_config: "PerformanceLossConfig | None" = None,
    grad_clip: float = 5.0,
    augment: bool = True,
    seed=None,
) -> TrainingLog:
    """Train POLOViT on cropped frames.

    ``loss`` selects between the Eq. 5 performance-aware objective
    (default) and plain MSE-in-radians (the ablation comparator).  The
    performance-aware run warms up with MSE for the first 40% of epochs —
    the smooth-max objective concentrates gradient on the worst samples,
    which suppresses tails well but converges slowly from random init.
    ``augment`` enables geometry-consistent augmentation: horizontal
    mirroring (with theta_x negated) and mild brightness jitter, both of
    which attack appearance overfitting to individual participants.
    """
    if loss == "performance":
        warmup_epochs = int(round(0.4 * epochs))
        perf_loss = make_performance_loss(loss_config)
    elif loss == "mse":
        warmup_epochs = epochs
        perf_loss = None
    else:
        raise ValueError(f"unknown loss {loss!r}; use 'performance' or 'mse'")

    rng = default_rng(seed)
    prepared = vit.prepare(crops)
    optimizer = Adam(vit.parameters(), lr=lr, weight_decay=1e-4)
    schedule = CosineSchedule(optimizer, total_steps=epochs, min_lr=lr * 0.1)
    log = TrainingLog()
    vit.train()
    for epoch in range(epochs):
        loss_fn = mse_radians_loss if epoch < warmup_epochs else perf_loss
        epoch_loss, batches = 0.0, 0
        for idx in iterate_minibatches(len(prepared), batch_size, rng):
            inputs = prepared[idx]
            targets = gaze_deg[idx]
            if augment:
                inputs, targets = _augment_batch(inputs, targets, rng)
            optimizer.zero_grad()
            pred = vit.forward(Tensor(inputs))
            value = loss_fn(pred, targets)
            value.backward()
            optimizer.clip_grad_norm(grad_clip)
            optimizer.step()
            epoch_loss += value.item()
            batches += 1
        schedule.step()
        log.losses.append(epoch_loss / max(batches, 1))
    vit.eval()
    return log


def _augment_batch(inputs: np.ndarray, targets: np.ndarray, rng) -> tuple:
    """Label-preserving augmentation battery.

    Mirror-flip (negating theta_x), brightness/contrast jitter, and
    additive sensor noise.  The jitter and noise deliberately disrupt the
    fine per-participant texture (iris pattern, lash layout) that a
    high-resolution model can otherwise use to memorize identities
    instead of learning geometry.
    """
    inputs = inputs.copy()
    targets = targets.copy()
    flip = rng.random(len(inputs)) < 0.5
    inputs[flip] = inputs[flip, :, ::-1]
    targets[flip, 0] *= -1.0
    scale = rng.uniform(0.9, 1.1, size=(len(inputs), 1, 1))
    contrast = rng.uniform(0.85, 1.15, size=(len(inputs), 1, 1))
    mean = inputs.mean(axis=(1, 2), keepdims=True)
    inputs = (inputs - mean) * contrast + mean
    inputs *= scale
    inputs += rng.normal(0.0, 0.025, size=inputs.shape)
    return inputs, targets


# ----------------------------------------------------------------------
# Saccade-RNN training
# ----------------------------------------------------------------------

def train_saccade_detector(
    detector: SaccadeDetector,
    sequences: np.ndarray,
    labels: np.ndarray,
    *,
    epochs: int = 10,
    batch_size: int = 16,
    lr: float = 2e-3,
    pos_weight: float = 4.0,
    grad_clip: float = 5.0,
    seed=None,
) -> TrainingLog:
    """BPTT training with positive-class weighting (saccades are ~10% of
    frames, so unweighted BCE collapses to the majority class)."""
    rng = default_rng(seed)
    optimizer = Adam(detector.parameters(), lr=lr)
    log = TrainingLog()
    detector.train()
    for _ in range(epochs):
        epoch_loss, batches = 0.0, 0
        for idx in iterate_minibatches(len(sequences), batch_size, rng):
            optimizer.zero_grad()
            logits = detector.forward(Tensor(sequences[idx]))
            loss = F.binary_cross_entropy_with_logits(
                logits, labels[idx], pos_weight=pos_weight
            )
            loss.backward()
            optimizer.clip_grad_norm(grad_clip)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        log.losses.append(epoch_loss / max(batches, 1))
    detector.eval()
    return log


def evaluate_saccade_detector(
    detector: SaccadeDetector,
    dataset: EyeDataset,
    config: "PolonetConfig | None" = None,
    threshold: float = 0.5,
) -> dict[str, float]:
    """Run the stateful detector over each sequence and score it."""
    config = config or PolonetConfig()
    predicted, actual = [], []
    for seq in dataset.sequences:
        probs = detector.sequence_probabilities(pre.sequence_binary_maps(seq, config))
        predicted.extend(probs >= threshold)
        actual.extend(seq.labels == MovementType.SACCADE)
    return saccade_metrics(np.array(predicted), np.array(actual))


# ----------------------------------------------------------------------
# One-call builder
# ----------------------------------------------------------------------

@dataclass
class PolonetBundle:
    """A trained POLONet plus its components and training logs."""

    polonet: PoloNet
    vit: PoloViT
    detector: SaccadeDetector
    vit_log: TrainingLog
    saccade_log: TrainingLog


def build_polonet(
    train_dataset: EyeDataset,
    *,
    vit_config: "GazeViTConfig | None" = None,
    polonet_config: "PolonetConfig | None" = None,
    saccade_config: "SaccadeNetConfig | None" = None,
    vit_epochs: int = 15,
    saccade_epochs: int = 8,
    prune_ratio: float = 0.2,
    int8: bool = True,
    seed: int = 0,
) -> PolonetBundle:
    """Train every POLONet component and assemble the runtime.

    Reproduces the paper's deployment configuration by default: INT8
    weights/activations and a 20% token-pruning ratio (§7.3).
    """
    vit_config = vit_config or GazeViTConfig.compact()
    polonet_config = polonet_config or PolonetConfig()
    saccade_config = saccade_config or SaccadeNetConfig()

    crops, gaze = build_crop_dataset(train_dataset, polonet_config)
    vit = PoloViT(vit_config, seed=seed)
    vit_log = train_polovit(vit, crops, gaze, epochs=vit_epochs, seed=seed)

    sample = train_dataset.sequences[0].images[0].astype(np.float64)
    map_shape = pre.binary_map(sample, polonet_config).shape
    detector = SaccadeDetector(map_shape, saccade_config, seed=seed + 1)
    seqs, labels = build_saccade_sequences(train_dataset, polonet_config)
    saccade_log = train_saccade_detector(
        detector, seqs, labels, epochs=saccade_epochs, seed=seed + 2
    )

    calib_n = min(16, len(crops))
    if int8:
        vit.enable_int8(crops[:calib_n])
    if prune_ratio > 0:
        vit.calibrate_pruning(crops[:calib_n], prune_ratio)

    polonet = PoloNet(detector, vit, polonet_config, prune=prune_ratio > 0)
    return PolonetBundle(
        polonet=polonet,
        vit=vit,
        detector=detector,
        vit_log=vit_log,
        saccade_log=saccade_log,
    )
