"""Stateless numerical kernels for the numpy DNN framework.

Forward *and* backward implementations of the operations the paper's
evaluation networks need (convolution via im2col, pooling, batch-norm
statistics, softmax cross-entropy).  The layer classes in
:mod:`repro.nn.layers` are thin stateful wrappers over these kernels, and
the kernels themselves are unit-tested against finite differences.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..arch.mapper import im2col
from ..errors import ShapeError


def conv_out_hw(h: int, w: int, fy: int, fx: int, stride: int, padding: int) -> Tuple[int, int]:
    """Output spatial dimensions of a convolution."""
    oh = (h + 2 * padding - fy) // stride + 1
    ow = (w + 2 * padding - fx) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv does not fit: {h}x{w} kernel {fy}x{fx} stride {stride}")
    return oh, ow


def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, stride: int, padding: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Convolution forward.

    Returns ``(out, x_cols)`` where ``x_cols`` is the im2col matrix cached
    for the backward pass.  ``x`` is ``(N, C, H, W)``, ``weight`` is
    ``(K, C, Fy, Fx)``, the result ``(N, K, OH, OW)``.
    """
    n, _, h, w = x.shape
    k, _, fy, fx = weight.shape
    oh, ow = conv_out_hw(h, w, fy, fx, stride, padding)
    x_cols = im2col(x, fy, fx, stride=stride, padding=padding)  # (N*OH*OW, C*Fy*Fx)
    w_mat = weight.reshape(k, -1)  # (K, C*Fy*Fx)
    out = x_cols @ w_mat.T
    if bias is not None:
        out = out + bias[None, :]
    return out.reshape(n, oh, ow, k).transpose(0, 3, 1, 2), x_cols


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    fy: int,
    fx: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add inverse of :func:`repro.arch.mapper.im2col`.

    ``cols`` has shape ``(N*OH*OW, C*Fy*Fx)``; overlapping windows add,
    which is exactly the gradient of the window extraction.  Taps add in
    ``(dy, dx)`` order into a channels-last buffer, so each element sees an
    NCHW scatter-add's float additions in the same order; one copy then
    gives the result NCHW strides.
    """
    n, c, h, w = x_shape
    oh, ow = conv_out_hw(h, w, fy, fx, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    nhwc = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, fy, fx)
    # scatter-add each kernel offset in one vectorized slice-assignment
    for dy in range(fy):
        for dx in range(fx):
            nhwc[:, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride] += cols6[
                ..., dy, dx
            ]
    x_padded = nhwc.transpose(0, 3, 1, 2).copy()
    if padding:
        return x_padded[:, :, padding : padding + h, padding : padding + w]
    return x_padded


def conv2d_backward(
    grad_out: np.ndarray,
    x_cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    weight: np.ndarray,
    stride: int,
    padding: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv2d w.r.t. input, weight and bias."""
    n, k, oh, ow = grad_out.shape
    g = grad_out.transpose(0, 2, 3, 1).reshape(-1, k)  # (N*OH*OW, K)
    w_mat = weight.reshape(k, -1)
    grad_w = (g.T @ x_cols).reshape(weight.shape)
    grad_b = g.sum(axis=0)
    grad_cols = g @ w_mat
    fy, fx = weight.shape[2], weight.shape[3]
    grad_x = col2im(grad_cols, x_shape, fy, fx, stride, padding)
    return grad_x, grad_w, grad_b


def relu_forward(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """ReLU and its mask (cached for backward)."""
    mask = x > 0
    return x * mask, mask


def relu_backward(grad_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Gradient of ReLU."""
    return grad_out * mask


def maxpool2d_forward(x: np.ndarray, size: int, stride: int) -> Tuple[np.ndarray, np.ndarray]:
    """Max pooling; returns output and the argmax index cache."""
    n, c, h, w = x.shape
    oh = (h - size) // stride + 1
    ow = (w - size) // stride + 1
    s = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, size, size),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    ).reshape(n, c, oh, ow, size * size)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    return out, idx


def maxpool2d_backward(
    grad_out: np.ndarray,
    idx: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    size: int,
    stride: int,
) -> np.ndarray:
    """Gradient of max pooling (routes to the argmax positions)."""
    n, c, h, w = x_shape
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    dy, dx = np.divmod(idx, size)
    ii, cc, yy, xx = np.meshgrid(
        np.arange(n), np.arange(c), np.arange(oh), np.arange(ow), indexing="ij"
    )
    np.add.at(grad_x, (ii, cc, yy * stride + dy, xx * stride + dx), grad_out)
    return grad_x


def global_avgpool_forward(x: np.ndarray) -> np.ndarray:
    """Spatial mean: ``(N, C, H, W) -> (N, C)``."""
    return x.mean(axis=(2, 3))


def global_avgpool_backward(grad_out: np.ndarray, x_shape) -> np.ndarray:
    """Gradient of the spatial mean."""
    n, c, h, w = x_shape
    return np.broadcast_to(grad_out[:, :, None, None], x_shape) / (h * w)


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
    eps: float,
    training: bool,
):
    """Batch normalization over the channel axis of ``(N, C, H, W)``.

    Returns ``(out, cache)``; updates the running statistics in place when
    ``training``.
    """
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean *= 1 - momentum
        running_mean += momentum * mean
        running_var *= 1 - momentum
        running_var += momentum * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
    cache = (x_hat, inv_std, gamma)
    return out, cache


def batchnorm_backward(grad_out: np.ndarray, cache) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of batch normalization (training-mode statistics)."""
    x_hat, inv_std, gamma = cache
    n, _, h, w = grad_out.shape
    m = n * h * w
    grad_gamma = (grad_out * x_hat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    g = grad_out * gamma[None, :, None, None]
    grad_x = (
        inv_std[None, :, None, None]
        / m
        * (
            m * g
            - g.sum(axis=(0, 2, 3))[None, :, None, None]
            - x_hat * (g * x_hat).sum(axis=(0, 2, 3))[None, :, None, None]
        )
    )
    return grad_x, grad_gamma, grad_beta


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the max-subtraction stabilization."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits."""
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (batch, classes), got {logits.shape}")
    n = logits.shape[0]
    probs = softmax(logits)
    eps = 1e-12
    loss = -np.log(probs[np.arange(n), labels] + eps).mean()
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return float(loss), grad / n


def topk_correct(logits: np.ndarray, labels: np.ndarray, topk: int = 1) -> int:
    """Number of top-k-correct predictions (an exact integer count).

    Chunked evaluation loops accumulate these counts instead of
    per-chunk accuracy floats, so a short final chunk (non-divisible
    batch size) can never skew the weighting and the total is exact.
    """
    if topk == 1:
        return int((logits.argmax(axis=1) == labels).sum())
    top = np.argpartition(-logits, topk - 1, axis=1)[:, :topk]
    return int((top == labels[:, None]).any(axis=1).sum())


def accuracy(logits: np.ndarray, labels: np.ndarray, topk: int = 1) -> float:
    """Top-k classification accuracy (Fig. 11 uses top-3)."""
    return topk_correct(logits, labels, topk) / logits.shape[0]
