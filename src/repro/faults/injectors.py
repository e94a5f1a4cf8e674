"""Deterministic, seedable input-fault injectors for the sensing chain.

Three layers of the eye-to-SoC path can fail, and each gets an injector
that wraps the corresponding clean model:

* :class:`FaultySensor` wraps :class:`repro.hw.sensor.CameraSensor` —
  i.i.d. frame drops (the sensor delivers nothing this frame).
* :class:`FaultyMipiLink` wraps :class:`repro.hw.mipi.MipiLink` —
  per-bit transient errors; a corrupted frame costs one link-layer
  retransmission (``transfer_with_retransmits``) and a confidence dent.
* :func:`inject_input_faults` wraps a ``repro.eye`` oculomotor trace —
  noise bursts perturb the gaze signal (breaking reuse anchors exactly
  the way real tracking noise does) and occlusion episodes drive eyelid
  openness down to partial or total closure.

All sampling comes from one ``numpy`` generator per call, so a fixed seed
reproduces the exact fault trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eye.events import MovementType
from repro.eye.motion import GazeTrack
from repro.faults.config import InputFaultConfig
from repro.faults.netfaults import ShardKill  # noqa: F401  (perf/workloads.py imports it here)
from repro.hw.mipi import MipiLink
from repro.hw.sensor import CameraSensor
from repro.utils.rng import default_rng
from repro.utils.validation import check_probability

#: Eyelid openness below which no usable gaze signal exists (matches the
#: blink-labelling threshold of the oculomotor generator).
OCCLUSION_BLIND_OPENNESS = 0.2


class SimulatedCrash(RuntimeError):
    """The serving process died mid-run (raised by :class:`ProcessKill`).

    Escapes the checkpointed event loop exactly like a SIGKILL would end
    the real process: no cleanup handlers run inside the runtime, and
    whatever the durability layer already fsynced is all that survives.
    """


@dataclass(frozen=True)
class ProcessKill:
    """Kill the runtime process after ``at_event`` events have applied.

    The process itself is the fault domain here — unlike the worker
    crash/stall schedule, nothing inside the run survives; recovery is
    ``repro.recover``'s checkpoint-plus-journal warm restart.  Firing on
    an event *index* (not a timestamp) keeps kills exact under any
    config: the same index always interrupts the same prefix of the
    deterministic event stream.
    """

    at_event: int

    def __post_init__(self) -> None:
        if self.at_event <= 0:
            raise ValueError(
                f"at_event must be a positive event index, got {self.at_event}"
            )

    def fires_at(self, events_processed: int) -> bool:
        return events_processed == self.at_event


class FaultySensor:
    """Camera sensor with transient frame drops."""

    def __init__(
        self,
        sensor: "CameraSensor | None" = None,
        drop_rate: float = 0.0,
        seed=None,
    ):
        self.sensor = sensor or CameraSensor()
        self.drop_rate = check_probability("drop_rate", drop_rate)
        self.rng = default_rng(seed)
        self.frames_total = 0
        self.frames_dropped = 0

    def acquire(self) -> bool:
        """One exposure; False means the frame was lost at the sensor."""
        self.frames_total += 1
        if self.rng.random() < self.drop_rate:
            self.frames_dropped += 1
            return False
        return True

    @property
    def acquisition_s(self) -> float:
        return self.sensor.acquisition_s

    @property
    def frame_bits(self) -> int:
        return self.sensor.frame_bits


class FaultyMipiLink:
    """MIPI link with transient bit errors and CRC-triggered retransmits."""

    def __init__(
        self,
        link: "MipiLink | None" = None,
        bit_error_rate: float = 0.0,
        seed=None,
    ):
        self.link = link or MipiLink()
        self.bit_error_rate = check_probability("bit_error_rate", bit_error_rate)
        self.rng = default_rng(seed)
        self.frames_total = 0
        self.frames_corrupted = 0

    def frame_corruption_probability(self, bits: int) -> float:
        """Probability at least one bit of a ``bits``-long frame flips."""
        if bits < 0:
            raise ValueError(f"bits must be non-negative, got {bits}")
        return float(1.0 - (1.0 - self.bit_error_rate) ** bits)

    def transfer(self, bits: int) -> tuple[float, int]:
        """One frame transfer: ``(latency_s, n_bit_errors)``.

        A corrupted frame (any flipped bit) is retransmitted once; the
        retransmission is assumed clean (transients are transient).
        """
        self.frames_total += 1
        if self.rng.random() < self.frame_corruption_probability(bits):
            self.frames_corrupted += 1
            n_errors = max(1, int(self.rng.poisson(self.bit_error_rate * bits)))
            return self.link.transfer_with_retransmits(bits, 1), n_errors
        return self.link.transfer_latency_s(bits), 0


@dataclass
class InputFaultTrace:
    """Per-frame record of the input faults injected into one session."""

    dropped: np.ndarray  # (T,) bool — sensor delivered no frame
    noise_deg: np.ndarray  # (T,) extra angular tracking error magnitude
    occlusion: np.ndarray  # (T,) injected eyelid closure in [0, 1]
    corrupted: np.ndarray  # (T,) bool — MIPI transient bit errors
    retransmit_s: np.ndarray  # (T,) extra link latency of corrupted frames

    @property
    def n_frames(self) -> int:
        return int(self.dropped.size)

    @property
    def n_dropped(self) -> int:
        return int(self.dropped.sum())

    @property
    def n_noise_frames(self) -> int:
        return int((self.noise_deg > 0).sum())

    @property
    def n_occluded(self) -> int:
        return int((self.occlusion > 0).sum())

    @property
    def n_corrupted(self) -> int:
        return int(self.corrupted.sum())


def _burst_windows(
    rng: np.random.Generator,
    n_frames: int,
    fps: float,
    rate_hz: float,
    duration_s: float,
) -> np.ndarray:
    """Boolean mask of Poisson-arriving fault windows over the trace."""
    mask = np.zeros(n_frames, dtype=bool)
    if rate_hz <= 0:
        return mask
    expected = rate_hz * n_frames / fps
    n_windows = int(rng.poisson(expected))
    length = max(1, int(round(duration_s * fps)))
    for _ in range(n_windows):
        start = int(rng.integers(0, n_frames))
        mask[start : start + length] = True
    return mask


def inject_input_faults(
    track: GazeTrack,
    config: InputFaultConfig,
    seed=None,
    sensor: "CameraSensor | None" = None,
    link: "MipiLink | None" = None,
) -> tuple[GazeTrack, InputFaultTrace]:
    """Apply the configured input-fault mix to one oculomotor trace.

    Returns the faulted track (perturbed gaze, reduced openness,
    re-labelled blind frames, recomputed velocities) plus the per-frame
    fault trace the chaos model and its watchdogs consume.
    """
    rng = default_rng(seed)
    sensor = sensor or CameraSensor()
    link = link or MipiLink()
    n = len(track)

    dropped = rng.random(n) < config.frame_drop_rate

    noise_mask = _burst_windows(
        rng, n, track.fps, config.noise_burst_rate_hz, config.noise_burst_duration_s
    )
    noise_xy = np.zeros((n, 2))
    if noise_mask.any():
        noise_xy[noise_mask] = rng.normal(
            0.0, config.noise_burst_std_deg, size=(int(noise_mask.sum()), 2)
        )
    noise_deg = np.linalg.norm(noise_xy, axis=1)

    occl_mask = _burst_windows(
        rng, n, track.fps, config.occlusion_rate_hz, config.occlusion_duration_s
    )
    occlusion = np.zeros(n)
    if occl_mask.any():
        lo, hi = config.occlusion_level
        occlusion[occl_mask] = rng.uniform(lo, hi, size=int(occl_mask.sum()))

    p_corrupt = 1.0 - (1.0 - config.bit_error_rate) ** sensor.frame_bits
    corrupted = rng.random(n) < p_corrupt
    retransmit_s = np.where(corrupted, link.transfer_latency_s(sensor.frame_bits), 0.0)

    gaze = track.gaze_deg + noise_xy
    openness = np.minimum(track.openness, 1.0 - occlusion)
    labels = track.labels.copy()
    labels[openness < OCCLUSION_BLIND_OPENNESS] = MovementType.BLINK
    faulted = track.copy_with(gaze_deg=gaze, labels=labels, openness=openness)

    trace = InputFaultTrace(
        dropped=dropped,
        noise_deg=noise_deg,
        occlusion=occlusion,
        corrupted=corrupted,
        retransmit_s=retransmit_s,
    )
    return faulted, trace
