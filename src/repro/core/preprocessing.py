"""Frame preprocessing: the functional golden model of the IPU (§4.1/§4.2).

Four stages, all reusing the binarized map as the paper's hardware does:

1. M x M average pooling to shrink the frame.
2. Binarization against gamma1 (dark -> 1, bright -> 0).
3. Gaze-reuse test: XOR-difference count between consecutive binary maps
   compared against gamma2.
4. Pupil-center search: S x S sliding-window sum over the binary map
   (evaluated only at white pixels, as the IPU does), followed by a fixed
   H1 x H2 crop of the *full-resolution* frame around the detected center.

``repro.hw.ipu`` costs these exact dataflows; tests cross-check that the
hardware model and this golden model agree bit-for-bit on outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import PolonetConfig
from repro.eye.dataset import EyeSequence
from repro.utils.image import block_reduce_mean, crop_centered


def average_pool(frame: np.ndarray, pool_m: int) -> np.ndarray:
    """M x M average pooling (IPU adder-tree stage)."""
    return block_reduce_mean(frame, pool_m)


def binarize(pooled: np.ndarray, gamma1_unit: float) -> np.ndarray:
    """Binary map: 1 where darker than the threshold (pupil), else 0."""
    return (pooled < gamma1_unit).astype(np.uint8)


def binary_map(frame: np.ndarray, config: PolonetConfig) -> np.ndarray:
    """Pooling + binarization in one call (Algorithm 1 lines 2-3)."""
    return binarize(average_pool(frame, config.pool_m), config.gamma1_unit)


def sequence_binary_maps(seq: EyeSequence, config: PolonetConfig) -> np.ndarray:
    """``binary_map`` of every frame of ``seq`` as (T, h, w) uint8, binarized
    from the sequence's pooled frames (each frame is pooled once)."""
    return binarize(seq.pooled(config.pool_m), config.gamma1_unit)


def frame_difference(current: np.ndarray, previous: np.ndarray) -> int:
    """Count of differing binary pixels (the XOR-array + adder tree)."""
    if current.shape != previous.shape:
        raise ValueError(f"binary map shapes differ: {current.shape} vs {previous.shape}")
    return int(np.sum(current != previous))


def should_reuse(current: np.ndarray, previous: "np.ndarray | None", gamma2: float) -> bool:
    """Gaze-reuse decision (Algorithm 1 line 7)."""
    if previous is None:
        return False
    return frame_difference(current, previous) < gamma2


@dataclass(frozen=True)
class PupilDetection:
    """Pupil-center search result, in both binary-map and frame coordinates."""

    row_pooled: int
    col_pooled: int
    row: int
    col: int
    window_sum: int

    @property
    def found(self) -> bool:
        """Whether any dark pixel existed (a blank map yields sum 0)."""
        return self.window_sum > 0


def find_pupil_center(binary: np.ndarray, window: int, pool_m: int = 1) -> PupilDetection:
    """S x S sliding-window sum over the binary map; the maximal window's
    center is the pupil center (§4.2).

    Matches the IPU's selective evaluation: windows are only scored where
    the center pixel is 1.  Ties resolve to the first maximal pixel in
    raster order (the hardware keeps the first maximum it sees in its
    comparator register).  ``pool_m`` converts the result back to
    full-resolution frame coordinates.
    """
    if window % 2 == 0:
        raise ValueError("window must be odd")
    h, w = binary.shape
    half = window // 2
    padded = np.pad(binary.astype(np.int32), half)
    # Integral image for O(1) window sums.
    integral = np.zeros((h + window, w + window), dtype=np.int64)
    integral[1:, 1:] = padded.cumsum(axis=0).cumsum(axis=1)
    sums = (
        integral[window:, window:]
        - integral[:-window, window:]
        - integral[window:, :-window]
        + integral[:-window, :-window]
    )
    sums = np.where(binary > 0, sums, -1)  # only white-centred windows compete
    best = int(np.argmax(sums))
    row_p, col_p = divmod(best, w)
    best_sum = int(sums[row_p, col_p])
    if best_sum < 0:
        # No white pixels at all: fall back to the map center.
        row_p, col_p, best_sum = h // 2, w // 2, 0
    return PupilDetection(
        row_pooled=row_p,
        col_pooled=col_p,
        row=row_p * pool_m + pool_m // 2,
        col=col_p * pool_m + pool_m // 2,
        window_sum=best_sum,
    )


def crop_frame(frame: np.ndarray, detection: PupilDetection, config: PolonetConfig) -> np.ndarray:
    """Fixed-size H1 x H2 crop of the full-resolution frame centred on the
    detected pupil (Algorithm 1 line 11)."""
    return crop_centered(
        frame, detection.row, detection.col, config.crop_height, config.crop_width
    )


def preprocess_frame(frame: np.ndarray, config: PolonetConfig):
    """Full front-end for one frame: returns (binary map, detection, crop)."""
    binary = binary_map(frame, config)
    detection = find_pupil_center(binary, config.pupil_window, config.pool_m)
    crop = crop_frame(frame, detection, config)
    return binary, detection, crop
