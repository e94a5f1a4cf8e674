"""Stateless differentiable operations built on the Tensor primitives.

Composite functions here are expressed in terms of the primitive ops in
:mod:`repro.nn.tensor` so their gradients come for free; a few (softmax,
layer_norm, conv2d) implement fused forward/backward passes for speed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.tensor import Tensor, _to_tensor, _unbroadcast

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def relu(x: Tensor) -> Tensor:
    return _to_tensor(x).relu()


def tanh(x: Tensor) -> Tensor:
    return _to_tensor(x).tanh()


def sigmoid(x: Tensor) -> Tensor:
    return _to_tensor(x).sigmoid()


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (matches the SFU's piecewise model)."""
    x = _to_tensor(x)
    data = x.data
    inner = _SQRT_2_OVER_PI * (data + 0.044715 * (data * data * data))
    t = np.tanh(inner)
    out_data = 0.5 * data * (1.0 + t)

    def backward(grad: np.ndarray) -> None:
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * data**2)
        local = 0.5 * (1.0 + t) + 0.5 * data * (1.0 - t**2) * d_inner
        x._accumulate(grad * local)

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax with a fused backward pass."""
    x = _to_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _to_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp; the smooth-max used by the performance-aware loss."""
    x = _to_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    exp = np.exp(x.data - m)
    total = exp.sum(axis=axis, keepdims=True)
    out_data = np.log(total) + m
    soft = exp / total
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def backward(grad: np.ndarray) -> None:
        g = grad if keepdims else np.expand_dims(grad, axis)
        x._accumulate(g * soft)

    return Tensor._make(out_data, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last dimension with affine parameters."""
    x, weight, bias = _to_tensor(x), _to_tensor(weight), _to_tensor(bias)
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = centered * inv_std
    out_data = normalized * weight.data + bias.data
    dim = x.data.shape[-1]

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            weight._accumulate(
                _unbroadcast(grad * normalized, weight.data.shape)
            )
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.data.shape))
        if x.requires_grad:
            g = grad * weight.data
            g_mean = g.mean(axis=-1, keepdims=True)
            g_dot = (g * normalized).mean(axis=-1, keepdims=True)
            x._accumulate(inv_std * (g - g_mean - normalized * g_dot))
        _ = dim  # retained for clarity of the derivation

    return Tensor._make(out_data, (x, weight, bias), backward)


def linear(x: Tensor, weight: Tensor, bias: "Tensor | None" = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (weight is (out, in))."""
    out = _to_tensor(x) @ _to_tensor(weight).swapaxes(-1, -2)
    if bias is not None:
        out = out + bias
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return _to_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = _to_tensor(x)
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


# ----------------------------------------------------------------------
# Convolution / pooling (im2col based)
# ----------------------------------------------------------------------

def _im2col(data: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """Unfold (N, C, H, W) into (N, out_h, out_w, C*kh*kw) patches."""
    n, c, h, w = data.shape
    if padding:
        data = np.pad(data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (data.shape[2] - kh) // stride + 1
    out_w = (data.shape[3] - kw) // stride + 1
    s0, s1, s2, s3 = data.strides
    windows = np.lib.stride_tricks.as_strided(
        data,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h, out_w, c * kh * kw)
    return cols, out_h, out_w


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: "Tensor | None" = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution; x is (N, C, H, W), weight is (O, C, kh, kw)."""
    x, weight = _to_tensor(x), _to_tensor(weight)
    n, c, h, w = x.data.shape
    o, c_w, kh, kw = weight.data.shape
    if c != c_w:
        raise ValueError(f"input channels {c} do not match weight channels {c_w}")
    cols, out_h, out_w = _im2col(x.data, kh, kw, stride, padding)
    w_mat = weight.data.reshape(o, -1)
    out_data = cols @ w_mat.T  # (N, out_h, out_w, O)
    if bias is not None:
        out_data = out_data + bias.data
    out_data = out_data.transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        g = grad.transpose(0, 2, 3, 1)  # (N, out_h, out_w, O)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 1, 2)))
        if weight.requires_grad:
            gw = np.einsum("nhwo,nhwk->ok", g, cols)
            weight._accumulate(gw.reshape(weight.data.shape))
        if x.requires_grad:
            gcols = g @ w_mat  # (N, out_h, out_w, C*kh*kw)
            gx = np.zeros(
                (n, c, h + 2 * padding, w + 2 * padding), dtype=x.data.dtype
            )
            gcols = gcols.reshape(n, out_h, out_w, c, kh, kw)
            for i in range(kh):
                for j in range(kw):
                    gx[
                        :,
                        :,
                        i : i + out_h * stride : stride,
                        j : j + out_w * stride : stride,
                    ] += gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            if padding:
                gx = gx[:, :, padding:-padding, padding:-padding]
            x._accumulate(gx)

    return Tensor._make(out_data, parents, backward)


def max_pool2d(x: Tensor, kernel: int, stride: "int | None" = None) -> Tensor:
    """Max pooling over square windows; x is (N, C, H, W)."""
    x = _to_tensor(x)
    stride = stride or kernel
    n, c, h, w = x.data.shape
    merged = x.data.reshape(n * c, 1, h, w)
    cols, out_h, out_w = _im2col(merged, kernel, kernel, stride, 0)
    cols = cols.reshape(n, c, out_h, out_w, kernel * kernel)
    argmax = cols.argmax(axis=-1)
    out_data = np.take_along_axis(cols, argmax[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        ki, kj = np.divmod(argmax, kernel)
        ii = (np.arange(out_h) * stride)[None, None, :, None] + ki
        jj = (np.arange(out_w) * stride)[None, None, None, :] + kj
        nn_idx = np.arange(n)[:, None, None, None]
        cc_idx = np.arange(c)[None, :, None, None]
        index = (nn_idx, cc_idx, ii, jj)
        if stride >= kernel:  # windows do not overlap: every index is distinct
            gx[index] += grad
        else:
            np.add.at(gx, index, grad)
        x._accumulate(gx)

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: "int | None" = None) -> Tensor:
    """Average pooling over square windows; x is (N, C, H, W)."""
    x = _to_tensor(x)
    stride = stride or kernel
    n, c, h, w = x.data.shape
    merged = x.data.reshape(n * c, 1, h, w)
    cols, out_h, out_w = _im2col(merged, kernel, kernel, stride, 0)
    out_data = cols.mean(axis=-1).reshape(n, c, out_h, out_w)
    scale = 1.0 / (kernel * kernel)

    def backward(grad: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        g = grad * scale
        for i in range(kernel):
            for j in range(kernel):
                gx[
                    :,
                    :,
                    i : i + out_h * stride : stride,
                    j : j + out_w * stride : stride,
                ] += g
        x._accumulate(gx)

    return Tensor._make(out_data, (x,), backward)


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------

def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error over all elements."""
    pred = _to_tensor(pred)
    target = _to_tensor(target)
    diff = pred - target.detach()
    return (diff * diff).mean()


def binary_cross_entropy_with_logits(logits: Tensor, target, pos_weight: float = 1.0) -> Tensor:
    """Numerically stable BCE on logits; optional positive-class weighting."""
    logits = _to_tensor(logits)
    target_t = _to_tensor(target).detach()
    z = logits
    # max(z, 0) - z * y + log(1 + exp(-|z|)), weighted on positives.
    max_part = z.relu()
    abs_z = z.abs()
    log_part = (Tensor(1.0) + (-abs_z).exp()).log()
    per_sample = max_part - z * target_t + log_part
    if pos_weight != 1.0:
        weights = Tensor(1.0 + (pos_weight - 1.0) * target_t.data)
        per_sample = per_sample * weights
    return per_sample.mean()
