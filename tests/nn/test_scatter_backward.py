"""Backward passes that scatter without ``np.add.at`` where no index can
repeat, and GELU's cube as two multiplies, change no gradient bit.

``Tensor.__getitem__`` with a basic index (ints, slices, ``None``,
``Ellipsis``) and ``max_pool2d`` with ``stride >= kernel`` select each
input element at most once, so they add the gradient with one ``+=``;
every other index still goes through ``np.add.at``.  The oracle is
``np.add.at`` into zeros, compared byte for byte (``-0.0`` included).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F

SHAPE = (4, 5, 6)

# A plain-Python index is labelled by its repr; a numpy one by name, since
# numpy's repr is long, multi-line for a 3-D mask, and varies by version.
BASIC = [
    2,
    pytest.param(np.int64(-1), id="np-int64-negative"),
    slice(None),
    slice(1, None, 2),
    slice(None, None, -2),
    (1, 3),
    (Ellipsis, 2),
    (None, slice(0, 3), Ellipsis, None),
    (slice(None), 0, slice(1, 4)),
    (3, 4, 5),
]
ADVANCED = [
    pytest.param(np.array([0, 0, 2, 0]), id="int-array-repeats"),
    [3, 1, 3],
    pytest.param((slice(None), np.array([4, 4, 1])), id="slice-then-int-array"),
    pytest.param(
        (np.array([0, 1, 0]), slice(None), np.array([2, 2, 2])),
        id="int-arrays-around-slice",
    ),
    pytest.param(np.array([True, False, True, True]), id="bool-mask-1d"),
    pytest.param(
        np.zeros(SHAPE, dtype=bool)
        | (np.arange(np.prod(SHAPE)).reshape(SHAPE) % 3 == 0),
        id="bool-mask-3d",
    ),
]


def gradient_with_signed_zeros(shape, rng) -> np.ndarray:
    grad = rng.normal(size=shape)
    flat = grad.reshape(-1)
    flat[::3] = -0.0
    flat[1::5] = 0.0
    return grad


def reference_getitem_grad(data, index, grad) -> np.ndarray:
    full = np.zeros_like(data)
    np.add.at(full, index, grad)
    return full


@pytest.mark.parametrize("index", BASIC + ADVANCED, ids=repr)
def test_getitem_backward_equals_add_at(index):
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=SHAPE), requires_grad=True)
    out = x[index]
    grad = gradient_with_signed_zeros(out.data.shape, rng)
    out.backward(grad)
    expected = reference_getitem_grad(x.data, index, grad)
    assert x.grad.tobytes() == expected.tobytes()


def test_a_repeated_advanced_index_accumulates():
    x = Tensor(np.zeros(4), requires_grad=True)
    x[np.array([0, 0, 2, 0])].backward(np.array([1.0, 2.0, 3.0, 4.0]))
    assert x.grad.tolist() == [7.0, 0.0, 3.0, 0.0]


def test_a_negative_zero_gradient_lands_as_positive_zero():
    x = Tensor(np.ones(3), requires_grad=True)
    x[1:].backward(np.array([-0.0, -0.0]))
    assert [math.copysign(1.0, g) for g in x.grad] == [1.0, 1.0, 1.0]


def reference_max_pool_grad(data, kernel, stride, grad) -> np.ndarray:
    n, c, h, w = data.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    gx = np.zeros_like(data)
    for b in range(n):
        for ch in range(c):
            for i in range(out_h):
                for j in range(out_w):
                    window = data[b, ch, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
                    ki, kj = divmod(int(window.reshape(-1).argmax()), kernel)
                    np.add.at(gx, (b, ch, i * stride + ki, j * stride + kj), grad[b, ch, i, j])
    return gx


@pytest.mark.parametrize("kernel,stride", [(2, 2), (2, 3), (3, 3), (3, 1), (3, 2), (2, 1)])
@pytest.mark.parametrize("ties", [False, True])
def test_max_pool_backward_equals_add_at(kernel, stride, ties):
    rng = np.random.default_rng(kernel * 10 + stride)
    data = rng.normal(size=(2, 3, 9, 8))
    if ties:
        data = np.round(data)  # many equal maxima: the first one wins
    x = Tensor(data, requires_grad=True)
    out = F.max_pool2d(x, kernel, stride)
    grad = gradient_with_signed_zeros(out.data.shape, rng)
    out.backward(grad)
    expected = reference_max_pool_grad(data, kernel, stride, grad)
    assert x.grad.tobytes() == expected.tobytes()


def reference_gelu_backward(data, grad) -> np.ndarray:
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (data + 0.044715 * (data * data * data)))
    d_inner = c * (1.0 + 3 * 0.044715 * data**2)
    return grad * (0.5 * (1.0 + t) + 0.5 * data * (1.0 - t**2) * d_inner)


def test_gelu_is_the_closed_form_with_the_cube_as_two_multiplies():
    rng = np.random.default_rng(9)
    data = rng.normal(scale=3.0, size=(16, 65, 32))
    data.reshape(-1)[:4] = [0.0, -0.0, 1e-300, -50.0]
    x = Tensor(data, requires_grad=True)
    out = F.gelu(x)
    c = math.sqrt(2.0 / math.pi)
    expected = 0.5 * data * (1.0 + np.tanh(c * (data + 0.044715 * (data * data * data))))
    assert out.data.tobytes() == expected.tobytes()
    grad = rng.normal(size=data.shape)
    out.backward(grad)
    assert x.grad.tobytes() == reference_gelu_backward(data, grad).tobytes()
