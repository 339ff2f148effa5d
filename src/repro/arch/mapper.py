"""Convolution -> GEMM lowering (im2col) and tiling helpers.

A convolution layer with weights ``(K, C, Fy, Fx)`` applied to inputs
``(N, C, H, W)`` lowers to the matrix product of

* an **activation matrix** of shape ``(N*OH*OW, C*Fy*Fx)`` whose rows are
  the receptive fields of each output pixel, and
* a **weight matrix** of shape ``(C*Fy*Fx, K)``.

Row ordering along the reduction axis is ``(c, fy, fx)`` with the channel
index outermost, so a permutation of the *previous layer's* output
channels expands to ``Fy*Fx`` consecutive rows here — the contract
:func:`repro.core.pipeline.plan_network` relies on.

If the GEMM is larger than the physical array, it is tiled into
array-sized blocks (Section II-A); :func:`tile_ranges` enumerates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..errors import ShapeError


@dataclass(frozen=True)
class ConvShape:
    """Static shape information of a lowered convolution layer.

    ``groups > 1`` describes a grouped convolution: the layer lowers to
    ``groups`` independent GEMMs, one per contiguous (input, output)
    channel block (``groups == c`` is depthwise).  Each group's GEMM has
    the same row count but a ``groups``-times shorter reduction and
    ``k // groups`` output columns.
    """

    n: int
    c: int
    h: int
    w: int
    k: int
    fy: int
    fx: int
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ShapeError("groups must be >= 1")
        if self.c % self.groups or self.k % self.groups:
            raise ShapeError(
                f"groups={self.groups} must divide both channel counts "
                f"(C={self.c}, K={self.k})"
            )

    @property
    def out_h(self) -> int:
        return (self.h + 2 * self.padding - self.fy) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.w + 2 * self.padding - self.fx) // self.stride + 1

    @property
    def n_pixels(self) -> int:
        """Output pixels per image times batch: GEMM row count."""
        return self.n * self.out_h * self.out_w

    @property
    def c_per_group(self) -> int:
        """Input channels read by each output-channel block."""
        return self.c // self.groups

    @property
    def k_per_group(self) -> int:
        """Output channels per group GEMM."""
        return self.k // self.groups

    @property
    def reduction(self) -> int:
        """Per-group GEMM reduction length ``(C / groups) * Fy * Fx``.

        This is Eq. 1's ``N`` — the MACs accumulated per output — which
        for a grouped layer only spans the group's own input channels.
        """
        return self.c_per_group * self.fy * self.fx


def lower_weights(weights: np.ndarray) -> np.ndarray:
    """Reshape conv weights ``(K, C, Fy, Fx)`` to the GEMM matrix ``(C*Fy*Fx, K)``."""
    weights = np.asarray(weights)
    if weights.ndim != 4:
        raise ShapeError(f"conv weights must be 4-D (K, C, Fy, Fx), got {weights.shape}")
    k = weights.shape[0]
    return weights.reshape(k, -1).T.copy()


def im2col(
    inputs: np.ndarray, fy: int, fx: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Lower inputs ``(N, C, H, W)`` to the activation matrix ``(N*OH*OW, C*Fy*Fx)``.

    Zero padding matches the convolution's implicit border; the column
    order is ``(c, fy, fx)`` with ``c`` outermost (see module docstring).
    One gather builds it: a per-image ``(OH*OW, C*Fy*Fx)`` index into each
    flattened, zero-bordered image copy.
    """
    inputs = np.asarray(inputs)
    if inputs.ndim != 4:
        raise ShapeError(f"inputs must be 4-D (N, C, H, W), got {inputs.shape}")
    n, c, h, w = inputs.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = (hp - fy) // stride + 1
    ow = (wp - fx) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"kernel {fy}x{fx} stride {stride} does not fit input {h}x{w} pad {padding}"
        )
    padded = np.zeros((n, c, hp, wp), dtype=inputs.dtype)
    padded[:, :, padding : padding + h, padding : padding + w] = inputs
    # index axes (OH, OW, C, Fy, Fx)
    y = (np.arange(oh)[:, None] * stride + np.arange(fy))[:, None, None, :, None]
    x = (np.arange(ow)[:, None] * stride + np.arange(fx))[None, :, None, None, :]
    idx = np.arange(c)[:, None, None] * (hp * wp) + (y * wp + x)
    cols = np.take(padded.reshape(n, -1), idx.reshape(oh * ow, c * fy * fx), axis=1)
    return cols.reshape(n * oh * ow, c * fy * fx)


def conv2d_reference(
    inputs: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Golden integer convolution via the lowering (used by correctness tests).

    Returns ``(N, K, OH, OW)`` in int64 — the exact value a fault-free
    accelerator must produce regardless of computation order.  With
    ``groups > 1`` the weights have shape ``(K, C // groups, Fy, Fx)``
    and the layer runs as ``groups`` independent lowered GEMMs over
    contiguous channel blocks.
    """
    inputs = np.asarray(inputs)
    weights = np.asarray(weights)
    n, c = inputs.shape[0], inputs.shape[1]
    k, c_per_group, fy, fx = weights.shape
    if groups < 1 or c % groups or k % groups or c // groups != c_per_group:
        raise ShapeError(
            f"weights {weights.shape} do not match {c} input channels in {groups} group(s)"
        )
    if groups > 1:
        return np.concatenate(
            [
                conv2d_reference(
                    inputs[:, g * c_per_group : (g + 1) * c_per_group],
                    weights[g * (k // groups) : (g + 1) * (k // groups)],
                    stride=stride,
                    padding=padding,
                )
                for g in range(groups)
            ],
            axis=1,
        )
    act = im2col(inputs, fy, fx, stride=stride, padding=padding).astype(np.int64)
    wmat = lower_weights(weights).astype(np.int64)
    out = act @ wmat  # (N*OH*OW, K)
    h, w = inputs.shape[2], inputs.shape[3]
    oh = (h + 2 * padding - fy) // stride + 1
    ow = (w + 2 * padding - fx) // stride + 1
    return out.reshape(n, oh, ow, k).transpose(0, 3, 1, 2)


def tile_ranges(total: int, tile: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` covering ``[0, total)`` in ``tile``-sized blocks."""
    if tile < 1:
        raise ShapeError("tile size must be >= 1")
    for start in range(0, total, tile):
        yield start, min(start + tile, total)


def sample_pixel_rows(
    n_pixels: int, max_pixels: int, rng: np.random.Generator
) -> np.ndarray:
    """Choose a representative subset of GEMM rows for TER estimation.

    Dynamic timing analysis over every output pixel of every layer is
    unnecessary — TER is a per-cycle average, and a uniform pixel sample
    is an unbiased estimator.  Returns sorted unique row indices.
    """
    if n_pixels <= max_pixels:
        return np.arange(n_pixels)
    return np.sort(rng.choice(n_pixels, size=max_pixels, replace=False))
