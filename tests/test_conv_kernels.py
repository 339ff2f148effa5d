"""Differential tests of the convolution lowering kernels.

``repro.arch.mapper.im2col`` builds the activation matrix with one
gather, and ``repro.nn.functional.col2im`` scatter-adds into a
channels-last buffer.  Every BLAS operand in training, calibration and
operand recording comes out of them, so they must reproduce, byte for
byte, the plain ``as_strided`` window copy and the NCHW scatter-add they
replaced.  Those are kept here as the oracles: the kernels are compared
on a seeded shape grid, and whole training epochs are compared with the
oracles monkeypatched into :mod:`repro.nn.functional`.

The quantized path's channels-last ``_im2col_nhwc`` zero-borders its
input the same way, and is compared likewise against the ``np.pad``
version it replaced.
"""

import itertools

import numpy as np
import pytest

from repro.arch.mapper import im2col
from repro.nn import functional as F
from repro.nn.datasets import DatasetSpec, SyntheticImageDataset
from repro.nn.layers import BatchNorm2d
from repro.nn.models import build_model
from repro.nn.quantize import _im2col_nhwc, _windows_nhwc
from repro.nn.training import Trainer


def reference_im2col(inputs, fy, fx, stride=1, padding=0):
    """Sliding windows via ``as_strided``, transposed and copied C-contiguous."""
    inputs = np.asarray(inputs)
    n, c, h, w = inputs.shape
    if padding:
        inputs = np.pad(
            inputs, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    oh = (h + 2 * padding - fy) // stride + 1
    ow = (w + 2 * padding - fx) // stride + 1
    s = inputs.strides
    windows = np.lib.stride_tricks.as_strided(
        inputs,
        shape=(n, c, oh, ow, fy, fx),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * fy * fx)
    return np.ascontiguousarray(cols)


def reference_im2col_nhwc(x, fy, fx, stride, padding):
    """Channels-last windows over an ``np.pad`` copy of the input."""
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    windows = _windows_nhwc(x, fy, fx, stride)
    n, oh, ow = windows.shape[:3]
    return windows.reshape(n * oh * ow, fy * fx * x.shape[3])


def reference_col2im(cols, x_shape, fy, fx, stride, padding):
    """Scatter-add each ``(dy, dx)`` tap straight into an NCHW padded buffer."""
    n, c, h, w = x_shape
    oh, ow = F.conv_out_hw(h, w, fy, fx, stride, padding)
    x_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, fy, fx).transpose(0, 3, 1, 2, 4, 5)
    for dy in range(fy):
        for dx in range(fx):
            x_padded[:, :, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride] += cols6[
                :, :, :, :, dy, dx
            ]
    if padding:
        return x_padded[:, :, padding : padding + h, padding : padding + w]
    return x_padded


#: (N, C, (H, W), (Fy, Fx), stride, padding): H != W and Fy != Fx included.
GRID = list(
    itertools.product(
        (1, 3), (1, 4), ((5, 7), (8, 6)), ((1, 1), (3, 2), (2, 3), (3, 3)), (1, 2), (0, 1, 2)
    )
)


def _with_negative_zeros(x, rng):
    x = x.copy()
    x[rng.random(x.shape) < 0.2] = -0.0
    return x


def _draw(rng, shape, dtype):
    if dtype == np.float64:
        return _with_negative_zeros(rng.standard_normal(shape), rng)
    info = np.iinfo(dtype)
    return rng.integers(max(info.min, -1000), min(info.max, 1000), size=shape, dtype=dtype)


class TestIm2colOracle:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint8])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_byte_equal_on_grid(self, dtype, transposed):
        rng = np.random.default_rng(7)
        for n, c, (h, w), (fy, fx), stride, padding in GRID:
            if transposed:  # non-contiguous (N, C, H, W) view
                x = _draw(rng, (n, c, w, h), dtype).transpose(0, 1, 3, 2)
            else:
                x = _draw(rng, (n, c, h, w), dtype)
            expected = reference_im2col(x, fy, fx, stride=stride, padding=padding)
            got = im2col(x, fy, fx, stride=stride, padding=padding)
            case = (n, c, h, w, fy, fx, stride, padding)
            assert got.dtype == expected.dtype and got.shape == expected.shape, case
            assert got.flags.c_contiguous, case
            assert got.tobytes() == expected.tobytes(), case


class TestIm2colNhwcOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("groups", [1, 2])
    def test_byte_equal_on_grid(self, dtype, groups):
        """Whole inputs, and each group's channel slice: the strided view a
        grouped conv passes in."""
        rng = np.random.default_rng(13)
        for n, c, (h, w), (fy, fx), stride, padding in GRID:
            drawn = np.int64 if dtype == np.int64 else np.float64
            x = _draw(rng, (n, h, w, c * groups), drawn).astype(dtype)
            for g in range(groups):
                x_g = x[..., g * c : (g + 1) * c]
                expected = reference_im2col_nhwc(x_g, fy, fx, stride, padding)
                got = _im2col_nhwc(x_g, fy, fx, stride=stride, padding=padding)
                case = (n, c, h, w, fy, fx, stride, padding, g)
                assert got.dtype == expected.dtype and got.shape == expected.shape, case
                assert got.tobytes() == expected.tobytes(), case


class TestCol2imOracle:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_byte_equal_with_equal_strides(self, dtype):
        rng = np.random.default_rng(11)
        for n, c, (h, w), (fy, fx), stride, padding in GRID:
            oh, ow = F.conv_out_hw(h, w, fy, fx, stride, padding)
            cols = _with_negative_zeros(rng.standard_normal((n * oh * ow, c * fy * fx)), rng)
            cols = cols.astype(dtype)
            expected = reference_col2im(cols, (n, c, h, w), fy, fx, stride, padding)
            got = F.col2im(cols, (n, c, h, w), fy, fx, stride, padding)
            case = (n, c, h, w, fy, fx, stride, padding)
            assert got.dtype == expected.dtype and got.shape == expected.shape, case
            assert got.strides == expected.strides, case
            assert got.tobytes() == expected.tobytes(), case


def _trained_state(model_name, monkeypatch, reference_kernels):
    """Train one epoch; return the model and its parameter/BN-stat bytes."""
    with monkeypatch.context() as patch:
        if reference_kernels:
            patch.setattr(F, "im2col", reference_im2col)
            patch.setattr(F, "col2im", reference_col2im)

        def no_evaluation(*args, **kwargs):
            raise AssertionError("fit must not run an evaluation pass")

        patch.setattr(Trainer, "evaluate", no_evaluation)
        ds = SyntheticImageDataset(DatasetSpec(name="t", n_classes=4))
        x, y = ds.sample(48, stream_seed=0)
        model = build_model(model_name, n_classes=4, width=0.125, seed=0)
        Trainer(model, lr=0.03, batch_size=16, seed=0).fit(x, y, epochs=1)
    state = [p.data.tobytes() for p in model.parameters()]
    for module in model.modules():
        if isinstance(module, BatchNorm2d):
            state += [module.running_mean.tobytes(), module.running_var.tobytes()]
    return model, state


@pytest.mark.parametrize("model_name", ["vgg16", "resnet18"])
def test_training_epoch_is_bit_identical_to_reference_kernels(model_name, monkeypatch):
    model, state = _trained_state(model_name, monkeypatch, reference_kernels=False)
    _, expected = _trained_state(model_name, monkeypatch, reference_kernels=True)
    assert model.training is False
    assert len(state) == len(expected)
    assert all(a == b for a, b in zip(state, expected))
