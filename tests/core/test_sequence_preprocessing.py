"""Each sequence is pooled once, and every reader of its binary maps gets
the bytes the per-frame front end gave.

``EyeSequence.pooled`` remembers a sequence's pooled frames per pool
size; ``sequence_binary_maps``, ``build_saccade_sequences``,
``iter_crops``/``build_crop_dataset`` and Table 1's calibration crops
read them.  The oracles are the per-frame bodies they replaced.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    PolonetConfig,
    binary_map,
    build_crop_dataset,
    build_saccade_sequences,
    preprocess_frame,
    sequence_binary_maps,
)
from repro.eye import synthesize_dataset
from repro.eye.events import MovementType
from repro.experiments.gaze_error import _calibration_crops

POOL_MS = (1, 2, 3, 4, 5)
GAMMA1S = (35.0, 40.0, 45.0, 50.0)


@pytest.fixture(scope="module")
def dataset():
    return synthesize_dataset(2, 60, seed=31)


def reference_binary_maps(seq, config) -> np.ndarray:
    return np.stack([binary_map(im.astype(np.float64), config) for im in seq.images])


def reference_crop_dataset(dataset, config, min_openness=0.35):
    """``build_crop_dataset`` as it was: the whole front end per frame."""
    crops, gazes = [], []
    for seq in dataset.sequences:
        for i in range(len(seq)):
            if seq.openness[i] < min_openness:
                continue
            _, detection, crop = preprocess_frame(seq.images[i].astype(np.float64), config)
            crops.append(crop)
            gazes.append(seq.gaze_deg[i])
    return np.stack(crops), np.stack(gazes)


def reference_saccade_sequences(dataset, config, window=12):
    seq_maps, seq_labels = [], []
    for seq in dataset.sequences:
        maps = reference_binary_maps(seq, config).astype(np.float64)
        labels = (seq.labels == MovementType.SACCADE).astype(np.float64)
        for start in range(0, len(seq) - window + 1, window):
            seq_maps.append(maps[start : start + window])
            seq_labels.append(labels[start : start + window])
    return np.stack(seq_maps), np.stack(seq_labels)


def assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("pool_m", POOL_MS)
@pytest.mark.parametrize("gamma1", GAMMA1S)
def test_sequence_binary_maps_equal_the_per_frame_maps(dataset, pool_m, gamma1):
    config = PolonetConfig(pool_m=pool_m, gamma1=gamma1)
    for seq in dataset.sequences:
        assert_same_bytes(sequence_binary_maps(seq, config), reference_binary_maps(seq, config))


def test_each_sequence_is_pooled_once_per_pool_size(dataset):
    seq = dataset.sequences[0]
    assert seq.pooled(4) is seq.pooled(4)
    assert seq.pooled(2) is not seq.pooled(4)
    assert not seq.pooled(4).flags.writeable
    # A rebuilt sequence does not inherit the memo.
    assert dataclasses.replace(seq)._pooled == {}


@pytest.mark.parametrize("pool_m", (2, 4))
@pytest.mark.parametrize("min_openness", (0.0, 0.35, 0.8))
def test_crop_dataset_equals_the_per_frame_front_end(dataset, pool_m, min_openness):
    config = PolonetConfig(pool_m=pool_m)
    crops, gaze = build_crop_dataset(dataset, config, min_openness=min_openness)
    ref_crops, ref_gaze = reference_crop_dataset(dataset, config, min_openness)
    assert_same_bytes(crops, ref_crops)
    assert_same_bytes(gaze, ref_gaze)


@pytest.mark.parametrize("gamma1", GAMMA1S)
def test_saccade_sequences_equal_the_per_frame_maps(dataset, gamma1):
    config = PolonetConfig(gamma1=gamma1)
    seqs, labels = build_saccade_sequences(dataset, config)
    ref_seqs, ref_labels = reference_saccade_sequences(dataset, config)
    assert_same_bytes(seqs, ref_seqs)
    assert_same_bytes(labels, ref_labels)


def test_calibration_crops_are_the_first_16_training_crops(dataset):
    context = SimpleNamespace(train=dataset, polonet_config=PolonetConfig())
    crops, gaze = _calibration_crops(context)
    ref_crops, ref_gaze = reference_crop_dataset(dataset, context.polonet_config)
    assert len(crops) == 16
    assert_same_bytes(crops, ref_crops[:16])
    assert_same_bytes(gaze, ref_gaze[:16])
