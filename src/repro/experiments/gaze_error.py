"""Table 1 / Fig. 8a: gaze-tracking error of POLOViT (INT8, at pruning
ratios 0.0 / 0.2 / 0.4) against the five baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro.baselines import ErrorSummary, angular_errors
from repro.core import iter_crops
from repro.core.training import stack_crops
from repro.experiments.common import (
    ExperimentContext,
    tracker_validation_errors,
    validation_crops,
)
from repro.system.metrics import table_to_text

PRUNE_RATIOS = (0.0, 0.2, 0.4)
#: The ratio the trained bundle's POLOViT was calibrated to (§7.3).
DEPLOYED_RATIO = 0.2


@dataclass
class GazeErrorResult:
    """Error summaries per method plus raw error arrays (for Fig. 8a)."""

    summaries: dict[str, ErrorSummary] = field(default_factory=dict)
    raw_errors: dict[str, np.ndarray] = field(default_factory=dict)

    def ordered_names(self) -> list[str]:
        return list(self.summaries)


def run_table1(context: ExperimentContext) -> GazeErrorResult:
    """Evaluate every method on the validation participants.

    The bundle's POLOViT runs every pruning ratio in one ``predict``
    (one encoder prefix per chunk) and is left as it was.  Every row's
    errors are remembered on the context, where Fig. 15 reads them.
    """
    result = GazeErrorResult()
    for name, tracker in context.baselines.items():
        result.raw_errors[name] = tracker_validation_errors(tracker, context)

    vit = context.bundle.vit
    calib_crops, _ = _calibration_crops(context)
    thresholds = [
        vit.prune_threshold if ratio == DEPLOYED_RATIO
        else vit.pruning_threshold(calib_crops, ratio)
        for ratio in PRUNE_RATIOS
    ]
    crops, gaze = validation_crops(context)
    predictions = vit.predict(crops, thresholds=thresholds)
    for ratio, pred in zip(PRUNE_RATIOS, predictions):
        result.raw_errors[polovit_row(ratio)] = angular_errors(pred, gaze)

    for name, errors in result.raw_errors.items():
        result.summaries[name] = ErrorSummary.from_errors(errors)
        context.remember_errors(name, errors)
    return result


def polovit_row(ratio: float) -> str:
    """Table 1's row name for INT8 POLOViT at pruning ratio ``ratio``."""
    return f"INT8-POLOViT({ratio:.1f})"


def _calibration_crops(context: ExperimentContext):
    """The first 16 training crops: the set ``build_polonet`` calibrated on."""
    return stack_crops(islice(iter_crops(context.train, context.polonet_config), 16))


def format_table1(result: GazeErrorResult) -> str:
    headers = ["Method", "Mean(deg)", "P90(deg)", "P95(deg)"]
    rows = [
        [name, f"{s.mean:.2f}", f"{s.p90:.2f}", f"{s.p95:.2f}"]
        for name, s in result.summaries.items()
    ]
    return "Table 1 — gaze tracking error\n" + table_to_text(headers, rows)


def format_fig8a(result: GazeErrorResult) -> str:
    """Fig. 8a: distribution statistics (mean, p5, p95, min, max)."""
    headers = ["Method", "Min", "P5", "Mean", "P95", "Max"]
    rows = []
    for name, s in result.summaries.items():
        rows.append(
            [
                name,
                f"{s.minimum:.2f}",
                f"{s.p5:.2f}",
                f"{s.mean:.2f}",
                f"{s.p95:.2f}",
                f"{s.maximum:.2f}",
            ]
        )
    return "Fig. 8a — gaze error distributions (deg)\n" + table_to_text(headers, rows)
