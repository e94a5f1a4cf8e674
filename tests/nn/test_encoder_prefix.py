"""The encoder's threshold-independent prefix changes no number.

``ViTEncoder.forward`` is ``encode_prefix`` followed by ``encode_rest``,
and ``PoloViT.pruning_threshold`` bisects on ``prune_trace`` of one
prefix.  The oracles below are the forward loop and the bisection as
they were before the split: a full forward (every block, the final norm
and the head) per bisection step.  Embeddings, traces, thresholds and
predictions must match them bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GazeViTConfig, PoloViT
from repro.nn import Tensor, TokenFilter, ViTEncoder, no_grad
from repro.nn.tensor import concatenate
from repro.nn.transformer import BatchTokenTrace, TokenTrace

DEPTHS = (1, 2, 4, 6)
BATCHES = (1, 16, 70)
#: 12 x 12 inputs in 4 x 4 patches: 9 image tokens and the class token.
IMAGE, PATCH = 12, 4


def prune_everies(depth: int) -> list[int]:
    """Every block, every two, every three, and never (``depth``: every
    value >= depth places no filter)."""
    return sorted({p for p in (1, 2, 3) if p < depth} | {depth})


def reference_forward(encoder: ViTEncoder, x: Tensor, token_filter):
    """The single-loop encoder forward the prefix split replaced."""
    n = x.shape[0]
    tokens = encoder.patch_embed(x)
    cls = encoder.cls_token * Tensor(np.ones((n, 1, 1)))
    tokens = concatenate([cls, tokens], axis=1)
    tokens = tokens + encoder.pos_embed
    initial_tokens = tokens.shape[1]
    active = np.ones((n, initial_tokens), dtype=bool)
    counts = []
    for i, block in enumerate(encoder.blocks):
        counts.append(active.sum(axis=1))
        tokens = block(tokens, key_mask=None if active.all() else active)
        at_filter = (i + 1) % encoder.prune_every == 0 and (i + 1) < encoder.depth
        if token_filter is not None and at_filter:
            active = token_filter.keep_mask(block.attn.last_stats, active)
            live_cols = active.any(axis=0)
            if not live_cols.all():
                tokens = tokens[:, np.flatnonzero(live_cols), :]
                active = active[:, live_cols]
    tokens = encoder.norm(tokens)
    per_block = np.stack(counts, axis=1)
    if n == 1:
        trace = TokenTrace([int(t) for t in per_block[0]], initial_tokens)
    else:
        trace = BatchTokenTrace(per_block, initial_tokens)
    return tokens[:, 0, :], trace


def reference_threshold(vit: PoloViT, images, target_ratio, tolerance=0.02):
    """The bisection with one full forward per step."""
    prepared = vit.prepare(images)

    def ratio_at(threshold):
        x = Tensor(prepared)
        if vit.int8:
            x = vit._input_quant(x)
        with no_grad():
            emb, trace = reference_forward(
                vit.encoder, x, TokenFilter(threshold=threshold, criterion="max")
            )
            vit.head(emb)
        return trace.pruning_ratio

    lo, hi = 0.0, 1.0
    threshold = 0.5
    for _ in range(20):
        threshold = 0.5 * (lo + hi)
        achieved = ratio_at(threshold)
        if abs(achieved - target_ratio) <= tolerance:
            break
        if achieved < target_ratio:
            lo = threshold
        else:
            hi = threshold
    return threshold


def small_config(depth: int, prune_every: int) -> GazeViTConfig:
    return GazeViTConfig(
        image_size=IMAGE, patch_size=PATCH, dim=8, depth=depth, num_heads=2,
        mlp_ratio=2.0, prune_every=prune_every,
    )


def crops(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(size=(n, 20, 20))


def assert_same_trace(trace, expected):
    assert type(trace) is type(expected)
    assert trace.initial_tokens == expected.initial_tokens
    if isinstance(expected, TokenTrace):
        assert trace.tokens_per_block == expected.tokens_per_block
    else:
        assert trace.tokens_per_block.tobytes() == expected.tokens_per_block.tobytes()


CASES = [
    (depth, every, batch)
    for depth in DEPTHS
    for every in prune_everies(depth)
    for batch in BATCHES
]


@pytest.mark.parametrize("depth, prune_every, batch", CASES)
def test_composed_forward_equals_the_single_loop(depth, prune_every, batch):
    encoder = ViTEncoder(
        IMAGE, PATCH, 8, depth, 2, mlp_ratio=2.0, prune_every=prune_every, seed=3
    )
    x = Tensor(crops(batch)[:, :IMAGE, :IMAGE] - 0.5)
    with no_grad():
        prefix = encoder.encode_prefix(x)
        median = float(np.median(prefix.stats.column_max))
        filters = [None, TokenFilter(threshold=median), TokenFilter(ratio=0.3)]
        for token_filter in filters:
            emb, trace = encoder(x, token_filter=token_filter)
            ref_emb, ref_trace = reference_forward(encoder, x, token_filter)
            assert emb.data.tobytes() == ref_emb.data.tobytes()
            assert_same_trace(trace, ref_trace)
            # One prefix serves every filter, and the trace-only
            # remainder reports the full remainder's trace.
            rest_emb, rest_trace = encoder.encode_rest(prefix, token_filter)
            assert rest_emb.data.tobytes() == ref_emb.data.tobytes()
            assert_same_trace(rest_trace, ref_trace)
            assert_same_trace(encoder.prune_trace(prefix, token_filter), ref_trace)


@pytest.mark.parametrize("int8", [False, True], ids=["float", "int8"])
@pytest.mark.parametrize("depth, prune_every, batch", CASES)
def test_calibration_equals_full_forward_bisection(depth, prune_every, batch, int8):
    vit = PoloViT(small_config(depth, prune_every), seed=5)
    images = crops(batch, seed=1)
    if int8:
        vit.enable_int8(images[:16])
    expected = reference_threshold(vit, images, 0.3)
    assert vit.pruning_threshold(images, 0.3) == expected
    assert vit.prune_threshold is None  # finding a threshold sets none
    assert vit.calibrate_pruning(images, 0.3) == expected
    assert vit.prune_threshold == expected


@pytest.mark.parametrize("batch", BATCHES)
def test_predict_at_several_thresholds_equals_one_predict_each(batch):
    vit = PoloViT(small_config(4, 2), seed=7)
    images = crops(batch, seed=2)
    vit.enable_int8(images[:16])
    low = vit.pruning_threshold(images, 0.2)
    high = vit.pruning_threshold(images, 0.4)
    together = vit.predict(images, thresholds=[None, low, high])
    for threshold, predicted in zip([None, low, high], together):
        vit.set_prune_threshold(threshold)
        alone = vit.predict(images, prune=threshold is not None)
        assert predicted.tobytes() == alone.tobytes()
