"""Shared experiment infrastructure.

Training the trackers is the expensive part of regenerating the paper's
tables, and several tables reuse the same trained models, so this module
builds a cached :class:`ExperimentContext` holding the synthetic
datasets, the trained POLONet bundle, and the trained baselines.

It also fixes the evaluation protocol:

* every tracker — learned and model-based alike — fits on the training
  participants and is evaluated on the held-out validation participants
  (the paper's §6 protocol: "all DNNs trained under the same
  conditions").  This is what gives the model-based methods their large
  Table 1 errors: their geometric fits inherit the training users'
  rigs/anatomy and do not transfer exactly;
* frames with the eye essentially closed are excluded from gaze scoring
  (no gaze is observable), while partially occluded frames stay in, which
  is precisely where the error tails of Fig. 8a come from.

``tracker_validation_errors`` can optionally run the deployment-style
per-user calibration instead (``per_user_calibration=True``), which is
how a commercial VOG system would actually ship.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import (
    DeepVOGTracker,
    EdGazeTracker,
    ErrorSummary,
    GazeTracker,
    IncResNetGazeTracker,
    NVGazeTracker,
    ResNetGazeTracker,
    angular_errors,
)
from repro.baselines.base import TrainingLog
from repro.core import (
    PoloViT,
    PolonetConfig,
    build_crop_dataset,
    build_polonet,
)
from repro.core.persistence import load_polonet, save_polonet
from repro.core.training import PolonetBundle
from repro.eye import EyeDataset, EyeSequence, synthesize_dataset
from repro.eye.events import post_saccade_mask
from repro.nn import load_weights, save_weights

MIN_OPENNESS = 0.3
CALIBRATION_FRAMES = 40


@dataclass(frozen=True)
class ContextScale:
    """Dataset / training sizes for one fidelity level."""

    name: str
    train_participants: int
    val_participants: int
    frames_per_participant: int
    vit_epochs: int
    cnn_epochs: int
    saccade_epochs: int

    @staticmethod
    def tiny() -> "ContextScale":
        """Fast enough for unit/integration tests."""
        return ContextScale("tiny", 2, 1, 120, 3, 5, 5)

    @staticmethod
    def bench() -> "ContextScale":
        """The scale used by the benchmark harness.

        Mirrors the OpenEDS participant structure (32 train / a held-out
        validation group): participant diversity is what controls
        cross-user generalization, so it is the dimension we keep at
        paper scale while shortening each recording.
        """
        return ContextScale("bench", 32, 3, 100, 24, 10, 10)


@dataclass
class ExperimentContext:
    """Everything the table/figure experiments share."""

    scale: ContextScale
    seed: int
    train: EyeDataset
    val: EyeDataset
    bundle: PolonetBundle
    baselines: dict[str, GazeTracker] = field(default_factory=dict)
    #: Per-frame validation errors by Table 1 row; see :meth:`validation_errors`.
    _errors: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    @property
    def polonet_config(self) -> PolonetConfig:
        return self.bundle.polonet.config

    def remember_errors(self, name: str, errors: np.ndarray) -> None:
        """Keep a copy of Table 1 row ``name``'s per-frame errors."""
        self._errors[name] = np.array(errors, copy=True)

    def validation_errors(self, name: str, compute: Callable[[], np.ndarray]) -> np.ndarray:
        """A copy of row ``name``'s remembered errors, ``compute()``d and
        remembered first if no one has.

        The memo lives on this context, so it holds only for the trained
        models in it: a retrained context (``clear_context_cache`` and
        ``get_context``) starts empty.
        """
        if name not in self._errors:
            self.remember_errors(name, compute())
        return self._errors[name].copy()


_CONTEXT_CACHE: dict[tuple[str, int], ExperimentContext] = {}

#: Directory for the on-disk context cache; empty string disables it.
CACHE_ENV_VAR = "REPRO_CONTEXT_CACHE"


def get_context(scale: "ContextScale | None" = None, seed: int = 0) -> ExperimentContext:
    """Build (or return the cached) experiment context.

    Two cache layers: an in-process dict, and an optional on-disk cache
    (set ``REPRO_CONTEXT_CACHE=<dir>``) holding the trained weights and
    synthesized datasets so that benchmark re-runs skip the training.
    """
    scale = scale or ContextScale.bench()
    key = (scale.name, seed)
    if key in _CONTEXT_CACHE:
        return _CONTEXT_CACHE[key]

    disk = _disk_cache_dir(scale, seed)
    if disk is not None:
        context = _load_context_from_disk(disk, scale, seed)
        if context is not None:
            _CONTEXT_CACHE[key] = context
            return context

    train = synthesize_dataset(
        scale.train_participants, scale.frames_per_participant, seed=seed
    )
    val = synthesize_dataset(
        scale.val_participants, scale.frames_per_participant, seed=seed + 10_000
    )
    for offset, seq in enumerate(val.sequences):
        seq.participant = 1000 + offset

    bundle = build_polonet(
        train,
        vit_epochs=scale.vit_epochs,
        saccade_epochs=scale.saccade_epochs,
        seed=seed,
    )

    baselines = _make_baselines(seed)
    images, gaze = _usable_frames(train)
    for name, tracker in baselines.items():
        if _is_model_based(tracker):
            continue  # calibrated per validation user at evaluation time
        epochs = scale.cnn_epochs
        tracker.fit(images, gaze, epochs=epochs)

    context = ExperimentContext(
        scale=scale, seed=seed, train=train, val=val, bundle=bundle, baselines=baselines
    )
    _CONTEXT_CACHE[key] = context
    if disk is not None:
        _save_context_to_disk(disk, context)
    return context


def clear_context_cache() -> None:
    _CONTEXT_CACHE.clear()


def _make_baselines(seed: int) -> dict[str, GazeTracker]:
    return {
        "NVGaze": NVGazeTracker(seed=seed + 1),
        "ResNet-34": ResNetGazeTracker(seed=seed + 2),
        "IncResNet": IncResNetGazeTracker(seed=seed + 3),
        "EdGaze": EdGazeTracker(seed=seed + 4),
        "DeepVOG": DeepVOGTracker(),
    }


# ----------------------------------------------------------------------
# On-disk context cache
# ----------------------------------------------------------------------

def _disk_cache_dir(scale: ContextScale, seed: int):
    import os
    from pathlib import Path

    root = os.environ.get(CACHE_ENV_VAR, "")
    if not root:
        return None
    return Path(root) / f"context-{scale.name}-{seed}"


def _dataset_to_arrays(dataset: EyeDataset) -> dict:
    arrays = {}
    for i, seq in enumerate(dataset.sequences):
        arrays[f"images_{i}"] = seq.images.astype(np.float16)
        arrays[f"gaze_{i}"] = seq.gaze_deg
        arrays[f"labels_{i}"] = seq.labels
        arrays[f"openness_{i}"] = seq.openness
        arrays[f"velocity_{i}"] = seq.velocity_deg_s
        arrays[f"participant_{i}"] = np.array(seq.participant)
        arrays[f"fps_{i}"] = np.array(seq.fps)
    arrays["n_sequences"] = np.array(len(dataset.sequences))
    return arrays


def _dataset_from_arrays(archive) -> EyeDataset:
    n = int(archive["n_sequences"])
    sequences = []
    for i in range(n):
        labels = archive[f"labels_{i}"]
        fps = float(archive[f"fps_{i}"])
        window = max(1, int(round(0.05 * fps)))
        sequences.append(
            EyeSequence(
                participant=int(archive[f"participant_{i}"]),
                images=archive[f"images_{i}"].astype(np.float32),
                gaze_deg=archive[f"gaze_{i}"],
                labels=labels,
                openness=archive[f"openness_{i}"],
                velocity_deg_s=archive[f"velocity_{i}"],
                post_saccade=post_saccade_mask(labels, window),
                fps=fps,
            )
        )
    return EyeDataset(sequences)


def _save_context_to_disk(directory, context: ExperimentContext) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(directory / "train.npz", **_dataset_to_arrays(context.train))
    np.savez_compressed(directory / "val.npz", **_dataset_to_arrays(context.val))
    save_polonet(context.bundle.polonet, directory / "polonet")
    for name, tracker in context.baselines.items():
        if not _is_model_based(tracker):
            save_weights(tracker.model, directory / f"baseline_{name}.npz")
    (directory / "DONE").write_text("ok")


def _load_context_from_disk(directory, scale: ContextScale, seed: int):
    if not (directory / "DONE").exists():
        return None
    with np.load(directory / "train.npz") as archive:
        train = _dataset_from_arrays(archive)
    with np.load(directory / "val.npz") as archive:
        val = _dataset_from_arrays(archive)
    polonet = load_polonet(directory / "polonet")
    bundle = PolonetBundle(
        polonet=polonet,
        vit=polonet.gaze_vit,
        detector=polonet.saccade_detector,
        vit_log=TrainingLog(losses=[float("nan")]),
        saccade_log=TrainingLog(losses=[float("nan")]),
    )
    baselines = _make_baselines(seed)
    for name, tracker in baselines.items():
        if not _is_model_based(tracker):
            load_weights(tracker.model, directory / f"baseline_{name}.npz")
    return ExperimentContext(
        scale=scale, seed=seed, train=train, val=val, bundle=bundle, baselines=baselines
    )


# ----------------------------------------------------------------------
# Evaluation protocol
# ----------------------------------------------------------------------

def _is_model_based(tracker: GazeTracker) -> bool:
    return isinstance(tracker, (EdGazeTracker, DeepVOGTracker))


def _usable_frames(dataset: EyeDataset) -> tuple[np.ndarray, np.ndarray]:
    """All frames with an observable eye, flattened across sequences."""
    images, gaze = [], []
    for seq in dataset.sequences:
        keep = seq.openness >= MIN_OPENNESS
        images.append(seq.images[keep].astype(np.float64))
        gaze.append(seq.gaze_deg[keep])
    return np.concatenate(images), np.concatenate(gaze)


def tracker_validation_errors(
    tracker: GazeTracker,
    context: ExperimentContext,
    calibration_frames: int = CALIBRATION_FRAMES,
    per_user_calibration: bool = False,
) -> np.ndarray:
    """Per-frame angular errors on the validation participants.

    Default protocol (the paper's): model-based trackers fit their
    geometric model on the pooled *training* participants, exactly like
    the learned trackers, and are evaluated cross-user.  With
    ``per_user_calibration`` they instead calibrate on an evenly-spaced
    sample of each validation sequence (deployment-style).
    """
    if _is_model_based(tracker) and not per_user_calibration:
        images, gaze = _usable_frames(context.train)
        tracker.fit(images, gaze)
    errors = []
    for seq in context.val.sequences:
        keep = seq.openness >= MIN_OPENNESS
        images = seq.images[keep].astype(np.float64)
        gaze = seq.gaze_deg[keep]
        if _is_model_based(tracker) and per_user_calibration:
            if len(images) <= calibration_frames + 4:
                raise ValueError("validation sequence too short for calibration")
            calib_idx = np.linspace(0, len(images) - 1, calibration_frames).astype(int)
            eval_mask = np.ones(len(images), dtype=bool)
            eval_mask[calib_idx] = False
            tracker.fit(images[calib_idx], gaze[calib_idx])
            pred = tracker.predict(images[eval_mask])
            errors.append(angular_errors(pred, gaze[eval_mask]))
        else:
            pred = tracker.predict(images)
            errors.append(angular_errors(pred, gaze))
    return np.concatenate(errors)


def validation_crops(context: ExperimentContext) -> tuple[np.ndarray, np.ndarray]:
    """POLOViT's validation crops and their gaze labels: the full
    preprocessing (crop) pipeline over the scored frames."""
    return build_crop_dataset(context.val, context.polonet_config, min_openness=MIN_OPENNESS)


def polovit_validation_errors(
    vit: PoloViT,
    context: ExperimentContext,
    prune: bool = True,
) -> np.ndarray:
    """POLOViT errors through the full preprocessing (crop) pipeline."""
    crops, gaze = validation_crops(context)
    return angular_errors(vit.predict(crops, prune=prune), gaze)


def summarize(errors: np.ndarray) -> ErrorSummary:
    return ErrorSummary.from_errors(errors)


# ----------------------------------------------------------------------
# Paper-reference profiles (system-model inputs decoupled from training)
# ----------------------------------------------------------------------

#: Table 1 of the paper: (mean, P90, P95) angular error in degrees.
PAPER_TABLE1 = {
    "NVGaze": (6.81, 13.07, 18.62),
    "EdGaze": (3.25, 18.29, 22.80),
    "DeepVOG": (3.47, 17.76, 23.77),
    "ResNet-34": (1.52, 5.96, 13.15),
    "IncResNet": (1.72, 6.23, 12.40),
    "POLOViT(0.4)": (2.26, 4.93, 5.91),
    "POLOViT(0.2)": (1.29, 2.31, 2.92),
    "POLOViT(0.0)": (0.98, 1.48, 2.30),
}
