"""Event taxonomy utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eye import (
    EventMix,
    MovementType,
    post_saccade_mask,
    saccade_fraction,
    segments_from_labels,
)


class TestSegments:
    def test_basic_segmentation(self):
        labels = np.array([0, 0, 1, 1, 1, 0, 2])
        segments = segments_from_labels(labels)
        assert [(s.kind, s.start, s.stop) for s in segments] == [
            (MovementType.FIXATION, 0, 2),
            (MovementType.SACCADE, 2, 5),
            (MovementType.FIXATION, 5, 6),
            (MovementType.PURSUIT, 6, 7),
        ]
        assert segments[1].length == 3

    def test_empty_and_single(self):
        assert segments_from_labels(np.array([])) == []
        only = segments_from_labels(np.array([3]))
        assert only[0].kind == MovementType.BLINK and only[0].length == 1


class TestEventMix:
    def test_probabilities_sum_check(self):
        with pytest.raises(ValueError):
            EventMix(0.5, 0.5, 0.5)

    def test_from_counts(self):
        mix = EventMix.from_counts(10, 70, 20)
        assert mix.p_saccade == pytest.approx(0.1)
        assert mix.p_reuse == pytest.approx(0.7)
        assert mix.p_predict == pytest.approx(0.2)

    def test_from_counts_rejects_empty(self):
        with pytest.raises(ValueError):
            EventMix.from_counts(0, 0, 0)


class TestFractionsAndMasks:
    def test_saccade_fraction(self):
        labels = np.array([0, 1, 1, 0])
        assert saccade_fraction(labels) == pytest.approx(0.5)

    def test_saccade_fraction_rejects_empty(self):
        with pytest.raises(ValueError):
            saccade_fraction(np.array([]))

    def test_post_saccade_mask_window(self):
        labels = np.array([0, 1, 1, 0, 0, 0, 0])
        mask = post_saccade_mask(labels, window=2)
        np.testing.assert_array_equal(mask, [False, False, False, True, True, False, False])

    def test_post_saccade_mask_excludes_next_saccade(self):
        labels = np.array([1, 0, 1, 1, 0])
        mask = post_saccade_mask(labels, window=3)
        assert not mask[2] and not mask[3]
        assert mask[1] and mask[4]


def scalar_post_saccade_mask(labels, window):
    """Reference: the frame loop ``post_saccade_mask`` replaced, verbatim."""
    labels = np.asarray(labels)
    mask = np.zeros(labels.size, dtype=bool)
    in_saccade = labels == MovementType.SACCADE
    for i in range(1, labels.size):
        if in_saccade[i - 1] and not in_saccade[i]:
            mask[i : i + window] = True
    mask &= ~in_saccade
    return mask


@st.composite
def label_streams(draw):
    """Label streams of 0-200 frames over all four movement types.

    Runs rather than single frames, so saccades come in realistic
    stretches; a saccade may be the last frame, and saccade runs may
    abut (back to back) or be one non-saccade frame apart.
    """
    n = draw(st.integers(0, 200))
    kinds = st.sampled_from([int(m) for m in MovementType])
    labels: list[int] = []
    while len(labels) < n:
        labels += [draw(kinds)] * draw(st.integers(1, 12))
    labels = labels[:n]
    if n and draw(st.booleans()):
        labels[-1] = int(MovementType.SACCADE)
    return np.array(labels, dtype=np.int64)


class TestPostSaccadeMaskOracle:
    @settings(max_examples=300, deadline=None)
    @given(labels=label_streams(), window=st.integers(1, 30))
    def test_matches_frame_loop(self, labels, window):
        mask = post_saccade_mask(labels, window)
        assert mask.dtype == bool and mask.shape == labels.shape
        np.testing.assert_array_equal(mask, scalar_post_saccade_mask(labels, window))

    @pytest.mark.parametrize(
        "labels",
        [
            [],
            [1],
            [0, 1],
            [1, 1, 1],
            [1, 0, 1, 0, 1, 0],
            [1, 3, 1, 2, 1, 1, 0, 0],
            [0, 1, 1, 0, 1, 1, 2, 2, 2, 1],
        ],
    )
    @pytest.mark.parametrize("window", [1, 2, 5, 30])
    def test_edge_streams(self, labels, window):
        labels = np.array(labels, dtype=np.int64)
        np.testing.assert_array_equal(
            post_saccade_mask(labels, window), scalar_post_saccade_mask(labels, window)
        )
