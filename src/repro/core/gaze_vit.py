"""POLOViT: the token-prunable gaze-tracking ViT (paper §4.3, Fig. 7).

Wraps the generic :class:`repro.nn.ViTEncoder` with a 2-D gaze regression
head, INT8 post-training quantization, token-filter calibration (mapping
a target overall pruning ratio to a received-attention threshold), and a
hardware workload description parameterized by the observed token trace.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import GazeViTConfig
from repro.hw.ops import MatMulOp, NonlinearKind, NonlinearOp
from repro.nn import (
    ActivationQuantizer,
    Linear,
    Module,
    QuantSpec,
    Tensor,
    TokenFilter,
    ViTEncoder,
    no_grad,
    quantize_weights,
)
from repro.nn.transformer import BatchTokenTrace, EncoderPrefix, TokenTrace
from repro.utils.image import resize_bilinear


def vit_workload(config: GazeViTConfig, tokens_per_block: "list[int] | None" = None) -> list:
    """Per-frame inference ops of a gaze ViT with the given per-block
    token counts (defaults to no pruning)."""
    full_tokens = config.num_patches + 1
    if tokens_per_block is None:
        tokens_per_block = [full_tokens] * config.depth
    if len(tokens_per_block) != config.depth:
        raise ValueError(
            f"expected {config.depth} per-block token counts, got {len(tokens_per_block)}"
        )
    d = config.dim
    hidden = int(d * config.mlp_ratio)
    patch_in = config.patch_size * config.patch_size
    ops: list = [MatMulOp(m=full_tokens - 1, k=patch_in, n=d)]  # patch embed
    for t in tokens_per_block:
        ops.append(MatMulOp(m=t, k=d, n=3 * d))  # QKV projection
        ops.append(MatMulOp(m=t, k=d, n=t, transposed=True))  # QK^T (all heads)
        ops.append(NonlinearOp(NonlinearKind.SOFTMAX, config.num_heads * t * t))
        ops.append(MatMulOp(m=t, k=t, n=d))  # attn @ V
        ops.append(MatMulOp(m=t, k=d, n=d))  # output projection
        ops.append(MatMulOp(m=t, k=d, n=hidden))  # MLP up
        ops.append(NonlinearOp(NonlinearKind.GELU, t * hidden))
        ops.append(MatMulOp(m=t, k=hidden, n=d))  # MLP down
        ops.append(NonlinearOp(NonlinearKind.LAYERNORM, 2 * t * d))
    ops.append(MatMulOp(m=1, k=d, n=2))  # gaze head
    return ops


def _filter_at(threshold: "float | None") -> "TokenFilter | None":
    """The received-attention token filter at ``threshold`` (None: none)."""
    if threshold is None:
        return None
    return TokenFilter(threshold=threshold, criterion="max")


class PoloViT(Module):
    """Gaze-regression ViT with inference-time token pruning."""

    name = "POLOViT"

    def __init__(self, config: "GazeViTConfig | None" = None, seed: int = 0):
        super().__init__()
        self.config = config or GazeViTConfig.compact()
        c = self.config
        self.encoder = ViTEncoder(
            image_size=c.image_size,
            patch_size=c.patch_size,
            dim=c.dim,
            depth=c.depth,
            num_heads=c.num_heads,
            mlp_ratio=c.mlp_ratio,
            prune_every=c.prune_every,
            seed=seed,
        )
        self.head = Linear(c.dim, 2, seed=seed + 7777)
        self._int8 = False
        self._input_quant = ActivationQuantizer(QuantSpec(bits=8))
        self._prune_threshold: "float | None" = None
        self.last_trace: "TokenTrace | BatchTokenTrace | None" = None

    # ------------------------------------------------------------------
    # Forward paths
    # ------------------------------------------------------------------
    def forward(self, images: Tensor, token_filter: "TokenFilter | None" = None) -> Tensor:
        """(N, H, W) images -> (N, 2) gaze in degrees."""
        return self._finish(self.encode_prefix(images), token_filter)

    def encode_prefix(self, images: Tensor) -> EncoderPrefix:
        """The INT8 input quantizer and the encoder's
        threshold-independent prefix (:meth:`ViTEncoder.encode_prefix`)."""
        if self._int8:
            images = self._input_quant(images)
        return self.encoder.encode_prefix(images)

    def _finish(self, prefix: EncoderPrefix, token_filter: "TokenFilter | None") -> Tensor:
        emb, trace = self.encoder.encode_rest(prefix, token_filter)
        self.last_trace = trace
        return self.head(emb)

    def prepare(self, images: np.ndarray) -> np.ndarray:
        """Resize arbitrary crops to the ViT input size and center them."""
        c = self.config
        images = np.asarray(images, dtype=np.float64)
        if images.ndim == 2:
            images = images[None]
        resized = resize_bilinear(images, c.image_size, c.image_size)
        return resized - 0.5

    def predict(
        self,
        images: np.ndarray,
        prune: bool = True,
        chunk: int = 64,
        thresholds: "list[float | None] | None" = None,
    ) -> "np.ndarray | list[np.ndarray]":
        """Batch inference; pruning applies per-sample via masked selection.

        Pruned batches run one vectorized forward per chunk: each sample
        keeps its own token subset behind a live-token mask, so batching
        never changes a sample's result beyond float round-off.

        ``thresholds`` evaluates several pruning thresholds sigma at once
        (None: no pruning) in place of ``prune`` and returns one array per
        threshold: no threshold changes a chunk's encoder prefix, so it is
        encoded once.  ``last_trace`` is the last chunk's, at the last
        threshold.
        """
        single = thresholds is None
        if single:
            thresholds = [self._prune_threshold if prune else None]
        filters = [_filter_at(threshold) for threshold in thresholds]
        prepared = self.prepare(images)
        outputs: list[list[np.ndarray]] = [[] for _ in filters]
        with no_grad():
            for start in range(0, len(prepared), chunk):
                prefix = self.encode_prefix(Tensor(prepared[start : start + chunk]))
                for token_filter, output in zip(filters, outputs):
                    output.append(self._finish(prefix, token_filter).data.copy())
        predictions = [np.concatenate(output, axis=0) for output in outputs]
        return predictions[0] if single else predictions

    def predict_single(self, image: np.ndarray, prune: bool = True):
        """One frame -> (gaze (2,), TokenTrace) — the POLONet runtime path."""
        pred = self.predict(image[None] if image.ndim == 2 else image, prune=prune)
        return pred[0], self.last_trace

    # ------------------------------------------------------------------
    # Token pruning
    # ------------------------------------------------------------------
    @property
    def prune_threshold(self) -> "float | None":
        """The received-attention threshold sigma (None: no pruning)."""
        return self._prune_threshold

    def token_filter(self) -> "TokenFilter | None":
        return _filter_at(self._prune_threshold)

    def set_prune_threshold(self, threshold: "float | None") -> None:
        """Directly set the received-attention pruning threshold sigma."""
        self._prune_threshold = threshold

    def calibrate_pruning(
        self, images: np.ndarray, target_ratio: float, tolerance: float = 0.02
    ) -> float:
        """Set the threshold :meth:`pruning_threshold` finds; returns it
        (0.0 for a zero target, which disables pruning)."""
        threshold = self.pruning_threshold(images, target_ratio, tolerance)
        self._prune_threshold = threshold
        return 0.0 if threshold is None else threshold

    def pruning_threshold(
        self, images: np.ndarray, target_ratio: float, tolerance: float = 0.02
    ) -> "float | None":
        """Find the threshold sigma whose overall compute-pruning ratio
        matches ``target_ratio`` on calibration images (§7.3's sweep knob);
        None for a zero target.  The model is left as it is.

        Bisects on the threshold.  The images' encoder prefix is encoded
        once; each step runs only the blocks up to the last filter point
        and reads the batch trace's pruning ratio.
        """
        if not 0.0 <= target_ratio < 1.0:
            raise ValueError(f"target_ratio must be in [0, 1), got {target_ratio}")
        if target_ratio == 0.0:
            return None
        with no_grad():
            prefix = self.encode_prefix(Tensor(self.prepare(images)))
            lo, hi = 0.0, 1.0
            threshold = 0.5
            for _ in range(20):
                threshold = 0.5 * (lo + hi)
                trace = self.encoder.prune_trace(prefix, _filter_at(threshold))
                achieved = trace.pruning_ratio
                if abs(achieved - target_ratio) <= tolerance:
                    break
                if achieved < target_ratio:
                    lo = threshold
                else:
                    hi = threshold
        return threshold

    # ------------------------------------------------------------------
    # Quantization
    # ------------------------------------------------------------------
    def enable_int8(self, calibration_images: "np.ndarray | None" = None) -> None:
        """Quantize weights to INT8 and calibrate the input quantizer."""
        quantize_weights(self, QuantSpec(bits=8))
        if calibration_images is not None:
            self._input_quant.observe(self.prepare(calibration_images))
        else:
            self._input_quant.observe(np.array([0.5]))
        self._int8 = True

    @property
    def int8(self) -> bool:
        return self._int8

    # ------------------------------------------------------------------
    # Hardware workload
    # ------------------------------------------------------------------
    def workload(
        self,
        trace: "TokenTrace | BatchTokenTrace | None" = None,
        paper_scale: bool = True,
    ) -> list:
        """Per-frame inference ops.

        With ``paper_scale`` the op shapes use the published configuration
        (8 blocks, dim 384, 197 tokens) with the *relative* token counts of
        ``trace`` applied, so pruning measured on the compact model costs
        the paper-scale model consistently.  A :class:`BatchTokenTrace` is
        costed at its batch-mean token counts (the average per-frame work a
        serving batch carries).
        """
        cfg = GazeViTConfig.paper() if paper_scale else self.config
        full_tokens = cfg.num_patches + 1
        if trace is None:
            tokens_per_block = [full_tokens] * cfg.depth
        else:
            observed = (
                trace.mean_tokens_per_block()
                if isinstance(trace, BatchTokenTrace)
                else trace.tokens_per_block
            )
            scale = full_tokens / max(trace.initial_tokens, 1)
            tokens_per_block = [max(2, int(round(t * scale))) for t in observed]
            # The compact and paper models share the same depth by default;
            # if they differ, repeat the last observed count.
            while len(tokens_per_block) < cfg.depth:
                tokens_per_block.append(tokens_per_block[-1])
            tokens_per_block = tokens_per_block[: cfg.depth]
        return vit_workload(cfg, tokens_per_block)
