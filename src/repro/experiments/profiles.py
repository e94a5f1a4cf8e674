"""Assembling system profiles: tracker -> (gaze latency, error) pairs.

Bridges the algorithm layer and the system layer: runs each method's
paper-scale workload through its dedicated accelerator model to get the
gaze-processing latency Td, and pairs it with a tracking error Delta-theta
(measured on the synthetic validation set, or the paper's Table 1 values
for system-model tests that must be independent of training noise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import (
    DeepVOGTracker,
    EdGazeTracker,
    IncResNetGazeTracker,
    NVGazeTracker,
    ResNetGazeTracker,
)
from repro.core import GazeViTConfig, SaccadeDetector
from repro.core.gaze_vit import vit_workload
from repro.experiments.common import PAPER_TABLE1
from repro.hw import (
    EnergyBreakdown,
    PathReport,
    PoloAcceleratorModel,
    baseline_accelerator,
    polo_accelerator,
)
from repro.system import TrackerSystemProfile

#: Paper-scale eye-frame geometry (OpenEDS sensor).
PAPER_FRAME_SHAPE = (400, 640)
PAPER_POOL_M = 4
PAPER_MAP_SHAPE = (100, 160)

_BASELINE_CLASSES = {
    "NVGaze": NVGazeTracker,
    "ResNet-34": ResNetGazeTracker,
    "IncResNet": IncResNetGazeTracker,
    "EdGaze": EdGazeTracker,
    "DeepVOG": DeepVOGTracker,
}

BASELINE_NAMES = tuple(_BASELINE_CLASSES)
#: The four baselines that appear in the §7 system figures.
SYSTEM_BASELINES = ("ResNet-34", "IncResNet", "EdGaze", "DeepVOG")
#: POLONet's three execution paths, in the order a trace lays them out.
POLO_PATHS = ("saccade", "reuse", "predict")


@dataclass(frozen=True)
class GazeExecution:
    """Accelerator-level results for one method's gaze processing."""

    name: str
    td_predict_s: float
    energy_predict: EnergyBreakdown
    td_saccade_s: "float | None" = None
    td_reuse_s: "float | None" = None


def polo_path_reports(
    pruning_ratio: float = 0.2,
    vit_config: "GazeViTConfig | None" = None,
    *,
    abft: bool = False,
    tracer=None,
) -> dict[str, PathReport]:
    """POLONet's three paths on the paper-scale POLO accelerator.

    The gaze ViT runs :func:`pruned_vit_workload` at ``pruning_ratio``;
    ``abft`` costs every GEMM with its checksum protection.  With a
    ``tracer``, each path's stage spans land on the accelerator track,
    laid out back to back from t = 0 in :data:`POLO_PATHS` order.
    """
    vit_ops = pruned_vit_workload(vit_config or GazeViTConfig.paper(), pruning_ratio)
    saccade_ops = SaccadeDetector(PAPER_MAP_SHAPE).workload(PAPER_MAP_SHAPE)
    model = PoloAcceleratorModel(
        polo_accelerator(abft=abft),
        frame_shape=PAPER_FRAME_SHAPE,
        pool_m=PAPER_POOL_M,
    )
    reports = {}
    t = 0.0
    for path in POLO_PATHS:
        reports[path] = model.path_report(
            path,
            saccade_ops,
            vit_ops if path == "predict" else None,
            tracer=tracer,
            t0_s=t,
        )
        t += reports[path].latency_s
    return reports


def polo_execution(
    pruning_ratio: float = 0.2,
    vit_config: "GazeViTConfig | None" = None,
) -> GazeExecution:
    """Run POLONet's three paths on the POLO accelerator."""
    reports = polo_path_reports(pruning_ratio, vit_config)
    return GazeExecution(
        name="POLO",
        td_predict_s=reports["predict"].latency_s,
        energy_predict=reports["predict"].energy,
        td_saccade_s=reports["saccade"].latency_s,
        td_reuse_s=reports["reuse"].latency_s,
    )


def pruned_vit_workload(config: GazeViTConfig, pruning_ratio: float) -> list:
    """Paper-scale POLOViT ops under an overall compute-pruning ratio.

    The token selector fires every ``prune_every`` blocks; block token
    counts step down uniformly at each firing so the summed token-compute
    equals ``1 - pruning_ratio`` of the unpruned total, mirroring how the
    calibrated threshold behaves on the compact model.
    """
    if not 0.0 <= pruning_ratio < 1.0:
        raise ValueError(f"pruning_ratio must be in [0, 1), got {pruning_ratio}")
    full = config.num_patches + 1
    depth = config.depth
    if pruning_ratio == 0.0:
        tokens = [full] * depth
    else:
        # Uniform per-stage drop fraction f solving sum = (1-r)*full*depth.
        target = (1.0 - pruning_ratio) * full * depth
        lo, hi = 0.0, 0.9
        for _ in range(40):
            f = 0.5 * (lo + hi)
            tokens = _staged_tokens(full, depth, config.prune_every, f)
            if sum(tokens) > target:
                lo = f
            else:
                hi = f
        tokens = _staged_tokens(full, depth, config.prune_every, 0.5 * (lo + hi))
    return vit_workload(config, tokens)


def _staged_tokens(full: int, depth: int, prune_every: int, drop: float) -> list[int]:
    tokens = []
    current = full
    for block in range(depth):
        tokens.append(int(round(current)))
        if (block + 1) % prune_every == 0 and (block + 1) < depth:
            current = max(2.0, current * (1.0 - drop))
    return tokens


def baseline_execution(name: str) -> GazeExecution:
    """Run one baseline's workload on its dedicated FP16 accelerator."""
    tracker = _BASELINE_CLASSES[name]()
    accelerator = baseline_accelerator(name)
    report = accelerator.run(tracker.workload())
    return GazeExecution(
        name=name, td_predict_s=report.latency_s, energy_predict=report.energy
    )


# ----------------------------------------------------------------------
def profile_from_execution(
    execution: GazeExecution, delta_theta_deg: float
) -> TrackerSystemProfile:
    return TrackerSystemProfile(
        name=execution.name,
        td_predict_s=execution.td_predict_s,
        delta_theta_deg=delta_theta_deg,
        td_saccade_s=execution.td_saccade_s,
        td_reuse_s=execution.td_reuse_s,
        energy_predict_j=execution.energy_predict.total_j,
    )


def system_profiles(
    errors_p95: dict[str, float],
    pruning_ratio: float = 0.2,
) -> dict[str, TrackerSystemProfile]:
    """Profiles for POLO plus the four §7 baselines.

    ``errors_p95`` maps method name -> Delta-theta in degrees; 'POLO' keys
    the POLOViT error at the chosen pruning ratio.
    """
    profiles = {
        "POLO": profile_from_execution(
            polo_execution(pruning_ratio), errors_p95["POLO"]
        )
    }
    for name in SYSTEM_BASELINES:
        profiles[name] = profile_from_execution(
            baseline_execution(name), errors_p95[name]
        )
    return profiles


def paper_reference_errors(pruning_ratio: float = 0.2) -> dict[str, float]:
    """P95 errors straight from the paper's Table 1."""
    key = f"POLOViT({pruning_ratio:.1f})"
    if key not in PAPER_TABLE1:
        raise KeyError(f"paper reports no pruning ratio {pruning_ratio}")
    errors = {name: PAPER_TABLE1[name][2] for name in SYSTEM_BASELINES}
    errors["POLO"] = PAPER_TABLE1[key][2]
    return errors
