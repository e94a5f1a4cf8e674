"""Eye-movement event taxonomy and label utilities.

OpenEDS-2020 annotates each frame with its movement type; the synthetic
dataset reproduces that schema.  The system model (Eq. 6/7) additionally
needs the occurrence probabilities of saccade / reuse / fresh-prediction
events, computed here from label streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class MovementType(enum.IntEnum):
    """Per-frame eye-movement annotation."""

    FIXATION = 0
    SACCADE = 1
    PURSUIT = 2
    BLINK = 3


@dataclass(frozen=True)
class EventSegment:
    """A maximal run of frames sharing one movement type."""

    kind: MovementType
    start: int
    stop: int  # exclusive

    @property
    def length(self) -> int:
        return self.stop - self.start


def segments_from_labels(labels: np.ndarray) -> list[EventSegment]:
    """Split a label stream into maximal constant-type segments."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return []
    change = np.flatnonzero(np.diff(labels)) + 1
    bounds = np.concatenate([[0], change, [labels.size]])
    return [
        EventSegment(MovementType(int(labels[a])), int(a), int(b))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


@dataclass(frozen=True)
class EventMix:
    """Occurrence probabilities of the three POLONet execution paths.

    ``p_saccade + p_reuse + p_predict == 1``; these weight the latency terms
    of Eqs. 6 and 7.
    """

    p_saccade: float
    p_reuse: float
    p_predict: float

    def __post_init__(self) -> None:
        total = self.p_saccade + self.p_reuse + self.p_predict
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"event probabilities must sum to 1, got {total}")

    @staticmethod
    def from_counts(n_saccade: int, n_reuse: int, n_predict: int) -> "EventMix":
        total = n_saccade + n_reuse + n_predict
        if total <= 0:
            raise ValueError("at least one event is required")
        return EventMix(n_saccade / total, n_reuse / total, n_predict / total)


def saccade_fraction(labels: np.ndarray) -> float:
    """Fraction of frames annotated as saccadic."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty label stream")
    return float(np.mean(labels == MovementType.SACCADE))


def post_saccade_mask(labels: np.ndarray, window: int) -> np.ndarray:
    """Flag the ``window`` frames following each saccade end (the
    post-saccadic low-acuity period, ~50 ms in the paper), along the
    last axis of ``labels`` (one row per trace)."""
    in_saccade = np.asarray(labels) == MovementType.SACCADE
    frames = np.arange(in_saccade.shape[-1])
    # A saccade ends at frame i when frame i - 1 is saccadic and i is not;
    # each frame is flagged when the latest end at or before it is fewer
    # than ``window`` frames back (ends start out ``window`` back: none).
    ends = np.zeros(in_saccade.shape, dtype=bool)
    ends[..., 1:] = in_saccade[..., :-1] & ~in_saccade[..., 1:]
    latest_end = np.maximum.accumulate(np.where(ends, frames, -window), axis=-1)
    return (frames - latest_end < window) & ~in_saccade
