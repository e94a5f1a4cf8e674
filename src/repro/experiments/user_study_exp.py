"""Fig. 15: the 2IFC user study comparing foveated rendering driven by
POLOViT's error traces against ResNet-34's.

Error traces come from the trained trackers' per-frame validation errors
(the paper replays recorded tracking-error traces on a Quest Pro); the
synthetic observers then perform the 7-participant, 32-trial protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import (
    ExperimentContext,
    polovit_validation_errors,
    tracker_validation_errors,
)
from repro.experiments.gaze_error import DEPLOYED_RATIO, polovit_row
from repro.perception import DEFAULT_VIDEOS, StudyResult, run_user_study
from repro.system.metrics import table_to_text


@dataclass
class UserStudyExperiment:
    """Study result plus the traces that produced it."""

    result: StudyResult
    candidate_trace: np.ndarray
    baseline_trace: np.ndarray


def error_traces(context: ExperimentContext) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame error traces: (POLOViT(0.2), ResNet-34), as Table 1
    remembered them on ``context`` or computed here in that order."""
    candidate = context.validation_errors(
        polovit_row(DEPLOYED_RATIO),
        lambda: polovit_validation_errors(context.bundle.vit, context, prune=True),
    )
    baseline = context.validation_errors(
        "ResNet-34",
        lambda: tracker_validation_errors(context.baselines["ResNet-34"], context),
    )
    return candidate, baseline


def run_fig15(
    context: "ExperimentContext | None" = None,
    traces: "tuple[np.ndarray, np.ndarray] | None" = None,
    n_participants: int = 7,
    repeats: int = 4,
    seed: int = 42,
) -> UserStudyExperiment:
    if traces is None:
        if context is None:
            raise ValueError("provide either a context or explicit error traces")
        traces = error_traces(context)
    candidate, baseline = traces
    result = run_user_study(
        candidate,
        baseline,
        videos=DEFAULT_VIDEOS,
        n_participants=n_participants,
        repeats=repeats,
        seed=seed,
    )
    return UserStudyExperiment(
        result=result, candidate_trace=candidate, baseline_trace=baseline
    )


def format_fig15(experiment: UserStudyExperiment) -> str:
    result = experiment.result
    headers = ["Video", "POLOViT preferred", "std"]
    rows = [
        [name, f"{100 * rate:.0f}%", f"{100 * result.per_video_std[name]:.0f}%"]
        for name, rate in result.per_video.items()
    ]
    text = "Fig. 15 — 2IFC user study selections\n" + table_to_text(headers, rows)
    text += (
        f"\nOverall: POLOViT preferred {100 * result.mean_selection:.0f}%"
        f" +/- {100 * result.std_selection:.0f}% across participants"
    )
    return text
