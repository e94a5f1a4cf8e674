"""Vision-transformer building blocks: patch embedding, encoder blocks,
and a token-prunable encoder used by POLOViT (paper Fig. 7).

The encoder reports a :class:`TokenTrace` describing how many tokens each
block processed — the hardware mapper consumes this to cost out the
systolic-array schedule under pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn import init
from repro.nn.attention import AttentionStats, MultiHeadSelfAttention, TokenFilter
from repro.nn.layers import GELU, LayerNorm, Linear, Module, Sequential
from repro.nn.tensor import Tensor, concatenate
from repro.utils.rng import default_rng


@dataclass
class TokenTrace:
    """Per-block token counts observed during one forward pass."""

    tokens_per_block: list[int] = field(default_factory=list)
    initial_tokens: int = 0

    @property
    def final_tokens(self) -> int:
        return self.tokens_per_block[-1] if self.tokens_per_block else self.initial_tokens

    @property
    def pruning_ratio(self) -> float:
        """Fraction of token-compute removed relative to a no-pruning pass."""
        if not self.tokens_per_block or self.initial_tokens == 0:
            return 0.0
        full = self.initial_tokens * len(self.tokens_per_block)
        actual = sum(self.tokens_per_block)
        return 1.0 - actual / full


@dataclass
class BatchTokenTrace:
    """Per-sample, per-block live-token counts of one batched forward.

    The padded/masked batch keeps one column layout for every sample, but
    each sample prunes independently — so the *compute-relevant* token count
    (what the accelerator or a gather-compacted kernel would execute) differs
    per sample.  ``tokens_per_block[i, b]`` is sample ``i``'s live tokens in
    block ``b``.
    """

    tokens_per_block: np.ndarray  # (N, depth) int
    initial_tokens: int = 0

    @property
    def batch_size(self) -> int:
        return int(self.tokens_per_block.shape[0])

    def sample(self, i: int) -> TokenTrace:
        """The classic single-sample trace of batch element ``i``."""
        return TokenTrace(
            tokens_per_block=[int(t) for t in self.tokens_per_block[i]],
            initial_tokens=self.initial_tokens,
        )

    def per_sample(self) -> list[TokenTrace]:
        return [self.sample(i) for i in range(self.batch_size)]

    @property
    def pruning_ratios(self) -> np.ndarray:
        """(N,) per-sample compute-pruning ratios."""
        if self.tokens_per_block.size == 0 or self.initial_tokens == 0:
            return np.zeros(self.batch_size)
        full = self.initial_tokens * self.tokens_per_block.shape[1]
        return 1.0 - self.tokens_per_block.sum(axis=1) / full

    @property
    def pruning_ratio(self) -> float:
        """Batch-mean pruning ratio (drop-in for ``TokenTrace.pruning_ratio``)."""
        return float(np.mean(self.pruning_ratios)) if self.batch_size else 0.0

    def mean_tokens_per_block(self) -> list[int]:
        """Rounded batch-mean per-block token counts (workload costing)."""
        return [int(round(t)) for t in self.tokens_per_block.mean(axis=0)]


@dataclass
class EncoderPrefix:
    """The part of an encoder forward that no token filter changes.

    A token filter first fires after block ``prune_every - 1``, so up to
    that block every sample keeps every token, whatever the threshold.
    ``tokens`` is that block's output and ``stats`` its received-attention
    statistics, the first filter's input.
    """

    tokens: Tensor
    stats: AttentionStats


class PatchEmbed(Module):
    """Split a monochrome image into patches and project them to ``dim``."""

    def __init__(self, image_size: int, patch_size: int, dim: int, seed=None):
        super().__init__()
        if image_size % patch_size != 0:
            raise ValueError(
                f"image_size {image_size} must be divisible by patch_size {patch_size}"
            )
        self.image_size = image_size
        self.patch_size = patch_size
        self.grid = image_size // patch_size
        self.num_patches = self.grid * self.grid
        self.proj = Linear(patch_size * patch_size, dim, seed=seed)

    def forward(self, x: Tensor) -> Tensor:
        """x: (N, H, W) monochrome image -> (N, num_patches, dim)."""
        n, h, w = x.shape
        if h != self.image_size or w != self.image_size:
            raise ValueError(
                f"expected {self.image_size}x{self.image_size} input, got {h}x{w}"
            )
        p, g = self.patch_size, self.grid
        patches = x.reshape(n, g, p, g, p).transpose(0, 1, 3, 2, 4).reshape(n, g * g, p * p)
        return self.proj(patches)


class TransformerBlock(Module):
    """Pre-norm transformer encoder block (LN→MHA→res, LN→MLP→res)."""

    def __init__(self, dim: int, num_heads: int, mlp_ratio: float = 4.0, seed=None):
        super().__init__()
        base = 0 if seed is None else seed
        hidden = int(dim * mlp_ratio)
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, num_heads, seed=base)
        self.norm2 = LayerNorm(dim)
        self.mlp = Sequential(
            Linear(dim, hidden, seed=base + 2),
            GELU(),
            Linear(hidden, dim, seed=base + 3),
        )

    def forward(self, x: Tensor, key_mask: "np.ndarray | None" = None) -> Tensor:
        x = x + self.attn(self.norm1(x), key_mask=key_mask)
        x = x + self.mlp(self.norm2(x))
        return x


class ViTEncoder(Module):
    """Token-prunable ViT encoder with a class token and learned positions.

    Token filters run after every ``prune_every`` blocks (the paper's token
    selector fires every two transformer layers).  Pruning is an
    inference-time mechanism: during training (or when no filter is given)
    all tokens flow through every block.
    """

    def __init__(
        self,
        image_size: int,
        patch_size: int,
        dim: int,
        depth: int,
        num_heads: int,
        mlp_ratio: float = 4.0,
        prune_every: int = 2,
        seed=None,
    ):
        super().__init__()
        rng = default_rng(seed)
        base = 0 if seed is None else seed
        self.dim = dim
        self.depth = depth
        self.prune_every = prune_every
        self.patch_embed = PatchEmbed(image_size, patch_size, dim, seed=base)
        self.cls_token = Tensor(
            init.truncated_normal((1, 1, dim), 0.02, rng), requires_grad=True, name="cls"
        )
        self.pos_embed = Tensor(
            init.truncated_normal((1, self.patch_embed.num_patches + 1, dim), 0.02, rng),
            requires_grad=True,
            name="pos",
        )
        self.blocks = [
            TransformerBlock(dim, num_heads, mlp_ratio, seed=base + 10 * (i + 1))
            for i in range(depth)
        ]
        self.norm = LayerNorm(dim)

    @property
    def prefix_depth(self) -> int:
        """Blocks up to and including the first token-filter point: no
        threshold changes their output."""
        return min(self.prune_every, self.depth)

    def forward(
        self, x: Tensor, token_filter: "TokenFilter | None" = None
    ) -> "tuple[Tensor, TokenTrace | BatchTokenTrace]":
        """Encode an image batch; returns (cls embedding, token trace).

        Token pruning is per-sample even in a batch: each sample keeps its
        own token subset (selected from its own received-attention stats)
        while the batch stays rectangular via a live-token mask.  Columns no
        sample keeps are compacted away, so a batch of one degenerates to
        exact single-sample pruning with no masking overhead — bit-identical
        to running the sample alone.  Returns a :class:`TokenTrace` for a
        single sample and a :class:`BatchTokenTrace` otherwise.

        The forward is :meth:`encode_prefix` followed by
        :meth:`encode_rest`; a caller trying several filters on one batch
        encodes the prefix once.
        """
        return self.encode_rest(self.encode_prefix(x), token_filter)

    def encode_prefix(self, x: Tensor) -> EncoderPrefix:
        """Patch embed, class and position tokens, and the blocks up to
        and including the first filter point (:attr:`prefix_depth`)."""
        n = x.shape[0]
        tokens = self.patch_embed(x)
        # Broadcast the class token across the batch via a differentiable
        # multiply so its gradient accumulates over samples.
        cls = self.cls_token * Tensor(np.ones((n, 1, 1)))
        tokens = concatenate([cls, tokens], axis=1)
        tokens = tokens + self.pos_embed
        for block in self.blocks[: self.prefix_depth]:
            tokens = block(tokens)
        return EncoderPrefix(tokens, self.blocks[self.prefix_depth - 1].attn.last_stats)

    def encode_rest(
        self, prefix: EncoderPrefix, token_filter: "TokenFilter | None" = None
    ) -> "tuple[Tensor, TokenTrace | BatchTokenTrace]":
        """Finish the forward begun by :meth:`encode_prefix` under
        ``token_filter``: the remaining blocks, the final norm and the
        class token; the prefix is left as it was."""
        tokens, counts = self._blocks_after(prefix, token_filter, self.depth)
        tokens = self.norm(tokens)
        return tokens[:, 0, :], _trace(counts, prefix.tokens.shape[1])

    def prune_trace(
        self, prefix: EncoderPrefix, token_filter: "TokenFilter | None"
    ) -> "TokenTrace | BatchTokenTrace":
        """The trace :meth:`encode_rest` would report, without running the
        blocks after the last filter point or the final norm: their token
        counts are the tokens that survive the last filter."""
        last_filter = self.prune_every * ((self.depth - 1) // self.prune_every)
        _, counts = self._blocks_after(prefix, token_filter, last_filter)
        return _trace(counts, prefix.tokens.shape[1])

    def _blocks_after(
        self, prefix: EncoderPrefix, token_filter: "TokenFilter | None", stop: int
    ) -> "tuple[Tensor, np.ndarray]":
        """Run blocks ``prefix_depth .. stop - 1`` behind ``token_filter``;
        returns the tokens and the (N, depth) live-token counts."""
        active = np.ones(prefix.tokens.shape[:2], dtype=bool)
        counts = [active.sum(axis=1)] * self.prefix_depth
        tokens, active = self._prune(
            token_filter, self.prefix_depth - 1, prefix.stats, prefix.tokens, active
        )
        for i in range(self.prefix_depth, stop):
            counts.append(active.sum(axis=1))
            block = self.blocks[i]
            tokens = block(tokens, key_mask=None if active.all() else active)
            tokens, active = self._prune(
                token_filter, i, block.attn.last_stats, tokens, active
            )
        # Blocks from ``stop`` on would see the tokens that are live now.
        counts += [active.sum(axis=1)] * (self.depth - len(counts))
        return tokens, np.stack(counts, axis=1)

    def _prune(
        self,
        token_filter: "TokenFilter | None",
        i: int,
        stats: AttentionStats,
        tokens: Tensor,
        active: np.ndarray,
    ) -> "tuple[Tensor, np.ndarray]":
        """Apply ``token_filter`` if one runs after block ``i``; columns no
        sample keeps are compacted away."""
        at_filter = (i + 1) % self.prune_every == 0 and (i + 1) < self.depth
        if token_filter is None or not at_filter:
            return tokens, active
        active = token_filter.keep_mask(stats, active)
        live_cols = active.any(axis=0)
        if not live_cols.all():
            tokens = tokens[:, np.flatnonzero(live_cols), :]
            active = active[:, live_cols]
        return tokens, active


def _trace(per_block: np.ndarray, initial_tokens: int) -> "TokenTrace | BatchTokenTrace":
    """A :class:`TokenTrace` for one sample, a :class:`BatchTokenTrace`
    for a batch."""
    if per_block.shape[0] == 1:
        return TokenTrace(
            tokens_per_block=[int(t) for t in per_block[0]],
            initial_tokens=initial_tokens,
        )
    return BatchTokenTrace(tokens_per_block=per_block, initial_tokens=initial_tokens)
