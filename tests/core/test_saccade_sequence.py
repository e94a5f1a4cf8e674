"""Saccade evaluation convolves a whole sequence in one call and changes
no number.

``SaccadeDetector.sequence_probabilities`` runs the convolution once
over all T frames and steps only the recurrence; the oracle is the
per-frame ``step`` loop ``evaluate_saccade_detector`` ran before, with
each frame's binary map computed on its own.  Probabilities must match
it bit for bit across hidden sizes, input channels, head sizes, binarization
thresholds and sequence lengths.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import (
    PolonetConfig,
    SaccadeDetector,
    SaccadeNetConfig,
    binary_map,
    saccade_metrics,
    sequence_binary_maps,
)
from repro.core.training import evaluate_saccade_detector
from repro.eye import EyeDataset, MovementType, synthesize_dataset

HIDDEN_DIMS = (16, 32, 64, 128)
GAMMA1S = (35.0, 40.0, 45.0, 50.0)
LENGTHS = (1, 2, 40, 60)


@pytest.fixture(scope="module")
def dataset():
    return synthesize_dataset(2, 60, seed=17)


def reference_probabilities(detector, seq, config, length):
    """The per-frame runtime loop: one ``binary_map`` and ``step`` a frame."""
    probs, hidden, previous = [], None, None
    for i in range(length):
        binary = binary_map(seq.images[i].astype(np.float64), config)
        prob, hidden = detector.step(binary, hidden, previous_map=previous)
        previous = binary
        probs.append(prob)
    return np.array(probs)


def reference_evaluation(detector, dataset, config, threshold=0.5):
    predicted, actual = [], []
    for seq in dataset.sequences:
        probs = reference_probabilities(detector, seq, config, len(seq))
        predicted.extend(probs >= threshold)
        actual.extend(seq.labels == MovementType.SACCADE)
    return saccade_metrics(np.array(predicted), np.array(actual))


@pytest.mark.parametrize(
    "hidden,channels,head",
    list(itertools.product(HIDDEN_DIMS, (1, 2), (0, 16))),
)
def test_sequence_probabilities_equal_the_step_loop(dataset, hidden, channels, head):
    net = SaccadeNetConfig(hidden_dim=hidden, input_channels=channels, head_hidden=head)
    for gamma1 in GAMMA1S:
        config = PolonetConfig(gamma1=gamma1)
        map_shape = sequence_binary_maps(dataset.sequences[0], config).shape[1:]
        detector = SaccadeDetector(map_shape, net, seed=hidden + int(gamma1))
        for seq in dataset.sequences:
            maps = sequence_binary_maps(seq, config)
            # The loop is causal: its first L probabilities are those of
            # the first L frames alone.
            expected = reference_probabilities(detector, seq, config, len(seq))
            for length in LENGTHS:
                probs = detector.sequence_probabilities(maps[:length])
                assert probs.tobytes() == expected[:length].tobytes()


@pytest.mark.parametrize("gamma1", GAMMA1S)
def test_evaluation_equals_the_step_loop(dataset, gamma1):
    config = PolonetConfig(gamma1=gamma1)
    map_shape = sequence_binary_maps(dataset.sequences[0], config).shape[1:]
    detector = SaccadeDetector(map_shape, SaccadeNetConfig(), seed=int(gamma1))
    # A threshold near the probabilities' median, so both classes occur.
    threshold = float(np.median(reference_probabilities(
        detector, dataset.sequences[0], config, len(dataset.sequences[0])
    )))
    assert evaluate_saccade_detector(detector, dataset, config, threshold) == (
        reference_evaluation(detector, dataset, config, threshold)
    )
    one = EyeDataset(dataset.sequences[:1])
    assert evaluate_saccade_detector(detector, one, config) == (
        reference_evaluation(detector, one, config)
    )
