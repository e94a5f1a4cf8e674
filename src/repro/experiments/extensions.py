"""Extension experiments (paper §8 future work).

Two studies the paper's conclusion defers, built on the same substrates:

* ``run_latency_qoe`` — maps each method's end-to-end TFR latency to a
  quality-of-experience score at every scene/resolution, locating where
  each method crosses the 50-70 ms acceptability band.
* ``run_saccade_sensitivity`` — sweeps the saccade detector's operating
  threshold, trading false positives (visible low-res flashes during
  fixation) against false negatives (lost latency savings), and reports
  the expected artifact rate and the Eq. 6 average latency at each point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import PoloNet
from repro.experiments.common import ExperimentContext
from repro.experiments.profiles import (
    SYSTEM_BASELINES,
    polo_execution,
    profile_from_execution,
    system_profiles,
)
from repro.eye import MovementType
from repro.eye.events import EventMix
from repro.perception.qoe import (
    false_positive_artifact_rate,
    latency_qoe,
    misdetection_qoe,
)
from repro.render import RES_1080P, RESOLUTIONS, SCENES, scene_by_name
from repro.system import TfrSystem
from repro.system.metrics import table_to_text


# ----------------------------------------------------------------------
# Latency QoE
# ----------------------------------------------------------------------

@dataclass
class LatencyQoeResult:
    """Per-method QoE at each resolution (scene-averaged)."""

    qoe: dict = field(default_factory=dict)  # (method, resolution) -> score
    latency_ms: dict = field(default_factory=dict)

    def best_method(self, resolution: str) -> str:
        candidates = {m: s for (m, r), s in self.qoe.items() if r == resolution}
        return max(candidates, key=candidates.get)


def run_latency_qoe(
    errors_p95: dict[str, float],
    pruning_ratio: float = 0.2,
    system: "TfrSystem | None" = None,
) -> LatencyQoeResult:
    system = system or TfrSystem()
    profiles = system_profiles(errors_p95, pruning_ratio)
    result = LatencyQoeResult()
    for res in RESOLUTIONS:
        for name, profile in profiles.items():
            label = "POLO_N" if name == "POLO" else name
            latency = float(
                np.mean(
                    [
                        system.frame_latency(profile, scene, res).total_s
                        for scene in SCENES
                    ]
                )
            )
            result.latency_ms[(label, res.name)] = latency * 1e3
            result.qoe[(label, res.name)] = float(latency_qoe(latency))
    return result


def format_latency_qoe(result: LatencyQoeResult) -> str:
    methods = sorted({m for m, _ in result.qoe})
    headers = ["Method"] + [f"{r.name} QoE" for r in RESOLUTIONS]
    rows = [
        [m] + [f"{result.qoe[(m, r.name)]:.2f}" for r in RESOLUTIONS] for m in methods
    ]
    return "Extension — latency quality-of-experience\n" + table_to_text(headers, rows)


# ----------------------------------------------------------------------
# Saccade-misdetection sensitivity
# ----------------------------------------------------------------------

@dataclass
class SaccadeSensitivityResult:
    """Per-threshold detector operating points."""

    points: dict = field(default_factory=dict)
    # threshold -> {fpr, fnr, artifact_rate, qoe, avg_latency_ms}


def measure_detector_rates(
    context: ExperimentContext, threshold: float, max_frames: int = 150
) -> tuple[float, float, EventMix]:
    """False-positive / false-negative rates of the trained detector at a
    given decision threshold, plus the resulting event mix."""
    detector = context.bundle.detector
    polonet = PoloNet(
        detector,
        context.bundle.vit,
        context.polonet_config,
        saccade_threshold=threshold,
        prune=True,
    )
    fp = fn = tp = tn = 0
    counts = {"saccade": 0, "reuse": 0, "predict": 0}
    for seq in context.val.sequences:
        polonet.reset()
        n = min(len(seq), max_frames)
        for i in range(n):
            result = polonet.process_frame(seq.images[i].astype(np.float64))
            counts[result.decision.value] += 1
            is_saccade = seq.labels[i] == MovementType.SACCADE
            flagged = result.decision.value == "saccade"
            if flagged and is_saccade:
                tp += 1
            elif flagged and not is_saccade:
                fp += 1
            elif not flagged and is_saccade:
                fn += 1
            else:
                tn += 1
    fpr = fp / max(fp + tn, 1)
    fnr = fn / max(fn + tp, 1)
    mix = EventMix.from_counts(
        max(counts["saccade"], 0), counts["reuse"], max(counts["predict"], 1)
    )
    return fpr, fnr, mix


def run_saccade_sensitivity(
    context: ExperimentContext,
    errors_p95: dict[str, float],
    thresholds: tuple = (0.3, 0.5, 0.7, 0.9),
    system: "TfrSystem | None" = None,
) -> SaccadeSensitivityResult:
    system = system or TfrSystem()
    scene = scene_by_name("E")
    profile = profile_from_execution(polo_execution(0.2), errors_p95["POLO"])
    result = SaccadeSensitivityResult()
    for threshold in thresholds:
        fpr, fnr, mix = measure_detector_rates(context, threshold)
        avg_latency = system.average_latency(profile, scene, RES_1080P, mix)
        result.points[threshold] = {
            "fpr": fpr,
            "fnr": fnr,
            "artifact_rate": false_positive_artifact_rate(fpr),
            "qoe": misdetection_qoe(fpr),
            "avg_latency_ms": avg_latency * 1e3,
            "event_mix": mix,
        }
    return result


def format_saccade_sensitivity(result: SaccadeSensitivityResult) -> str:
    headers = ["Threshold", "FPR", "FNR", "Artifacts/s", "QoE", "Avg latency(ms)"]
    rows = [
        [
            f"{t:.1f}",
            f"{p['fpr']:.3f}",
            f"{p['fnr']:.3f}",
            f"{p['artifact_rate']:.2f}",
            f"{p['qoe']:.2f}",
            f"{p['avg_latency_ms']:.1f}",
        ]
        for t, p in result.points.items()
    ]
    return (
        "Extension — saccade misdetection sensitivity (scene E, 1080P)\n"
        + table_to_text(headers, rows)
    )
