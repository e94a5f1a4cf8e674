"""Saccade detection network (paper §4.1, Eq. 2).

A deliberately tiny model operating on the *binarized, pooled* eye map:
one convolution, max pooling, and a leaky recurrent cell whose hidden
state carries inter-frame motion evidence, followed by a small
classifier head.  On the POLO accelerator this runs in under 2% of the
gaze ViT's latency, which is what makes the saccade-gated early exit
profitable.

Two documented deviations from the paper's Eq. 2, both forced by our
sensor being 16x smaller than OpenEDS's (so per-frame pupil displacement
on the pooled map is sub-pixel):

* the conv input carries *two* channels — the current and previous
  binary maps.  The IPU already buffers the previous map for the gaze
  reuse XOR test (§5.1), so the pair costs no extra hardware; it makes
  the frame-to-frame displacement directly visible to the convolution
  instead of requiring the 32-unit recurrent state to store the previous
  pupil position at sub-pixel precision.
* an optional 16-unit ReLU layer before the sigmoid readout
  (``SaccadeNetConfig.head_hidden``), because "the position changed" is
  not linearly separable from signed difference features.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SaccadeNetConfig
from repro.hw.ops import MatMulOp, NonlinearKind, NonlinearOp, conv2d_as_matmul
from repro.nn import (
    Conv2d,
    LeakyRecurrentCell,
    Linear,
    Module,
    Tensor,
    concatenate,
    no_grad,
)
from repro.nn import functional as F


class SaccadeDetector(Module):
    """Conv + leaky-RNN + MLP binary classifier over binary-map pairs."""

    def __init__(
        self,
        input_shape: tuple[int, int],
        config: "SaccadeNetConfig | None" = None,
        seed: int = 0,
    ):
        super().__init__()
        self.config = config or SaccadeNetConfig()
        self.input_shape = tuple(input_shape)
        c = self.config
        self.conv = Conv2d(
            c.input_channels,
            c.conv_channels,
            c.conv_kernel,
            padding=c.conv_kernel // 2,
            seed=seed,
        )
        pooled_h = self.input_shape[0] // c.pool
        pooled_w = self.input_shape[1] // c.pool
        self.feature_dim = c.conv_channels * pooled_h * pooled_w
        self.cell = LeakyRecurrentCell(self.feature_dim, c.hidden_dim, seed=seed + 1)
        if c.head_hidden > 0:
            self.head_hidden = Linear(c.hidden_dim, c.head_hidden, seed=seed + 3)
            self.fc = Linear(c.head_hidden, 1, seed=seed + 2)
        else:
            self.head_hidden = None
            self.fc = Linear(c.hidden_dim, 1, seed=seed + 2)

    # ------------------------------------------------------------------
    def features(self, stacked: Tensor) -> Tensor:
        """(B, C, H, W) binary-map stacks -> (B, feature_dim)."""
        b = stacked.shape[0]
        x = self.conv(stacked).relu()
        x = F.max_pool2d(x, self.config.pool)
        return x.reshape(b, -1)

    def classify(self, h: Tensor) -> Tensor:
        """Hidden state -> saccade logit."""
        if self.head_hidden is not None:
            h = self.head_hidden(h).relu()
        return self.fc(h)

    def _pair(self, current: np.ndarray, previous: np.ndarray) -> np.ndarray:
        """(N, H, W) current and previous maps -> the (N, C, H, W) conv input."""
        if self.config.input_channels == 1:
            return current[:, None]
        return np.stack([current, previous], axis=1)

    def _stack_step(self, maps: np.ndarray, step: int) -> np.ndarray:
        """Assemble the (B, C, H, W) input for one timestep of (B, T, H, W)
        sequences; the previous map of the first frame is the frame itself
        (no motion evidence)."""
        current = maps[:, step]
        return self._pair(current, maps[:, step - 1] if step > 0 else current)

    def _advance(self, features: Tensor, h: "np.ndarray | None"):
        """One recurrent step at runtime: (1, feature_dim) features and the
        previous hidden state -> (saccade probability, new hidden state)."""
        new_h = self.cell(features, Tensor(h) if h is not None else None)
        prob = self.classify(new_h).sigmoid()
        return float(prob.data[0, 0]), new_h.data.copy()

    def forward(self, sequences: Tensor, h0: "Tensor | None" = None) -> Tensor:
        """(B, T, H, W) binary-map sequences -> (B, T) saccade logits."""
        maps = sequences.data
        b, t = maps.shape[0], maps.shape[1]
        h = h0 if h0 is not None else self.cell.initial_state(b)
        logits = []
        for step in range(t):
            x = self.features(Tensor(self._stack_step(maps, step)))
            h = self.cell(x, h)
            logits.append(self.classify(h))
        return concatenate(logits, axis=1)  # (B, T)

    # ------------------------------------------------------------------
    def step(
        self,
        binary_map: np.ndarray,
        h: "np.ndarray | None",
        previous_map: "np.ndarray | None" = None,
    ):
        """Single-frame runtime path (no autograd).

        Args:
            binary_map: (H, W) current binary map.
            h: previous hidden state (1, hidden) or None at sequence start.
            previous_map: (H, W) previous binary map (the IPU's reuse
                buffer); defaults to the current map at sequence start.

        Returns:
            (saccade_probability, new_hidden_state)
        """
        current = binary_map.astype(np.float64)[None]
        prev = (
            previous_map.astype(np.float64)[None] if previous_map is not None else current
        )
        with no_grad():
            feats = self.features(Tensor(self._pair(current, prev)))
            return self._advance(feats, h)

    def sequence_probabilities(self, maps: np.ndarray) -> np.ndarray:
        """Runtime path over a whole (T, H, W) binary-map sequence from a
        fresh hidden state: the (T,) saccade probabilities that ``step``
        gives frame by frame.  The convolution runs once over all frames;
        only the recurrence steps per frame."""
        current = maps.astype(np.float64)
        previous = np.concatenate([current[:1], current[:-1]])
        probs = np.empty(len(current))
        h = None
        with no_grad():
            feats = self.features(Tensor(self._pair(current, previous))).data
            for t in range(len(current)):
                probs[t], h = self._advance(Tensor(feats[t : t + 1]), h)
        return probs

    def detect(self, prob: float, threshold: float = 0.5) -> bool:
        return prob >= threshold

    # ------------------------------------------------------------------
    def workload(self, map_shape: "tuple[int, int] | None" = None) -> list:
        """Per-frame inference ops at the given binary-map resolution.

        Defaults to the paper-scale map: a 640x400 OpenEDS frame pooled by
        M = 4 gives a 160x100 binary map.
        """
        h, w = map_shape or (100, 160)
        c = self.config
        ops = [
            conv2d_as_matmul(h, w, c.input_channels, c.conv_channels, kernel=c.conv_kernel),
            NonlinearOp(NonlinearKind.RELU, h * w * c.conv_channels),
        ]
        feat = c.conv_channels * (h // c.pool) * (w // c.pool)
        ops.append(MatMulOp(m=1, k=feat, n=c.hidden_dim))
        ops.append(MatMulOp(m=1, k=c.hidden_dim, n=c.hidden_dim))
        ops.append(NonlinearOp(NonlinearKind.TANH, c.hidden_dim))
        if c.head_hidden > 0:
            ops.append(MatMulOp(m=1, k=c.hidden_dim, n=c.head_hidden))
            ops.append(NonlinearOp(NonlinearKind.RELU, c.head_hidden))
            ops.append(MatMulOp(m=1, k=c.head_hidden, n=1))
        else:
            ops.append(MatMulOp(m=1, k=c.hidden_dim, n=1))
        ops.append(NonlinearOp(NonlinearKind.SIGMOID, 1))
        return ops


def saccade_metrics(predicted: np.ndarray, actual: np.ndarray) -> dict[str, float]:
    """Accuracy and macro F1 for binary saccade classification (Table 2)."""
    predicted = np.asarray(predicted, dtype=bool)
    actual = np.asarray(actual, dtype=bool)
    if predicted.shape != actual.shape:
        raise ValueError("prediction/label shape mismatch")
    accuracy = float(np.mean(predicted == actual))

    def f1(positive: bool) -> float:
        pred_p = predicted == positive
        act_p = actual == positive
        tp = float(np.sum(pred_p & act_p))
        fp = float(np.sum(pred_p & ~act_p))
        fn = float(np.sum(~pred_p & act_p))
        if tp == 0:
            return 0.0
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        return 2 * precision * recall / (precision + recall)

    macro_f1 = 0.5 * (f1(True) + f1(False))
    return {"accuracy": accuracy, "macro_f1": macro_f1}
