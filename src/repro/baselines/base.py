"""Common gaze-tracker interface, metrics, and training loop.

Every tracker — POLOViT and the five baselines of Table 1 — implements
:class:`GazeTracker`, so the evaluation harness can train, score, and
cost them uniformly.  Each tracker also exposes ``workload()``: its
paper-scale per-frame inference op list, consumed by the hardware models
to produce the latency/energy comparisons of §7.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.nn import Module, Adam, Tensor, no_grad
from repro.nn import functional as F
from repro.utils.rng import default_rng


def angular_errors(pred_deg: np.ndarray, target_deg: np.ndarray) -> np.ndarray:
    """Per-sample gaze error: the L2 norm of the (theta_x, theta_y)
    difference in degrees, the metric of Table 1."""
    pred_deg = np.asarray(pred_deg, dtype=np.float64)
    target_deg = np.asarray(target_deg, dtype=np.float64)
    if pred_deg.shape != target_deg.shape:
        raise ValueError(f"shape mismatch: {pred_deg.shape} vs {target_deg.shape}")
    return np.linalg.norm(pred_deg - target_deg, axis=-1)


@dataclass(frozen=True)
class ErrorSummary:
    """Gaze-error statistics in the format of Table 1 / Fig. 8a."""

    mean: float
    p50: float
    p90: float
    p95: float
    p5: float
    minimum: float
    maximum: float

    @staticmethod
    def from_errors(errors: np.ndarray) -> "ErrorSummary":
        errors = np.asarray(errors, dtype=np.float64)
        if errors.size == 0:
            raise ValueError("no errors to summarize")
        return ErrorSummary(
            mean=float(errors.mean()),
            p50=float(np.percentile(errors, 50)),
            p90=float(np.percentile(errors, 90)),
            p95=float(np.percentile(errors, 95)),
            p5=float(np.percentile(errors, 5)),
            minimum=float(errors.min()),
            maximum=float(errors.max()),
        )


@dataclass
class TrainingLog:
    """Loss trajectory returned by ``fit``."""

    losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("empty training log")
        return self.losses[-1]


class GazeTracker(abc.ABC):
    """Interface shared by all gaze-direction estimators."""

    #: human-readable name used in reports (matches the paper's labels)
    name: str = "tracker"

    @abc.abstractmethod
    def fit(self, images: np.ndarray, gaze_deg: np.ndarray, **kwargs) -> TrainingLog:
        """Train or calibrate on (N, H, W) images with (N, 2) gaze labels."""

    @abc.abstractmethod
    def predict(self, images: np.ndarray) -> np.ndarray:
        """Predict (N, 2) gaze angles in degrees."""

    @abc.abstractmethod
    def workload(self) -> list:
        """Paper-scale per-frame inference ops (see :mod:`repro.hw.ops`)."""

    def evaluate(self, images: np.ndarray, gaze_deg: np.ndarray) -> ErrorSummary:
        """Predict and summarize angular errors."""
        return ErrorSummary.from_errors(angular_errors(self.predict(images), gaze_deg))


def iterate_minibatches(n: int, batch_size: int, rng, shuffle: bool = True):
    """Yield index arrays covering ``range(n)`` in batches."""
    order = np.arange(n)
    if shuffle:
        rng.shuffle(order)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train_regressor(
    model: Module,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    epochs: int = 10,
    batch_size: int = 32,
    lr: float = 1e-3,
    loss_fn=None,
    weight_decay: float = 0.0,
    grad_clip: float = 5.0,
    seed=None,
) -> TrainingLog:
    """Generic minibatch training loop used by all learned trackers.

    ``loss_fn(pred: Tensor, target: np.ndarray) -> Tensor`` defaults to MSE;
    POLOViT passes the performance-aware loss from :mod:`repro.core.losses`.
    """
    rng = default_rng(seed)
    loss_fn = loss_fn or F.mse_loss
    optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    log = TrainingLog()
    model.train()
    for _ in range(epochs):
        epoch_loss = 0.0
        batches = 0
        for idx in iterate_minibatches(len(inputs), batch_size, rng):
            optimizer.zero_grad()
            pred = model(Tensor(inputs[idx]))
            loss = loss_fn(pred, targets[idx])
            loss.backward()
            optimizer.clip_grad_norm(grad_clip)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        log.losses.append(epoch_loss / max(batches, 1))
    model.eval()
    return log


def predict_in_batches(model: Module, inputs: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Run inference in batches under no-grad."""
    outputs = []
    model.eval()
    with no_grad():
        for start in range(0, len(inputs), batch_size):
            pred = model(Tensor(inputs[start : start + batch_size]))
            outputs.append(pred.data.copy())
    return np.concatenate(outputs, axis=0)
