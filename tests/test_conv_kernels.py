"""Differential tests of the convolution lowering kernels.

``repro.arch.mapper.im2col`` builds the activation matrix with one
gather, and ``repro.nn.functional.col2im`` scatter-adds into a
channels-last buffer.  Every BLAS operand in training, calibration and
operand recording comes out of them, so they must reproduce, byte for
byte, the plain ``as_strided`` window copy and the NCHW scatter-add they
replaced.  Those are kept here as the oracles: the kernels are compared
on a seeded shape grid, and whole training epochs are compared with the
oracles monkeypatched into :mod:`repro.nn.functional`.

The quantized path's ``QuantizedConv.accumulate_nhwc`` quantizes,
zero-borders and gathers its channels-last input one block of whole
images at a time.  Its accumulators and recorded operand columns are
compared, with the block budget forced down to one image and to a size
that leaves a short last block, against an unblocked ``np.pad`` im2col
GEMM and against the int64 ``_grouped_int_gemm`` reference.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.arch.mapper import im2col
from repro.nn import functional as F
from repro.nn.datasets import DatasetSpec, SyntheticImageDataset
from repro.nn.layers import BatchNorm2d
from repro.nn.models import build_model
from repro.nn import quantize as Q
from repro.nn.quantize import QuantizedConv, _windows_nhwc
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


def _qconv(rng, c, k, fy, fx, stride, padding, groups=1, bits=8):
    """A calibrated random conv: float32 BLAS at 8 bits, float64 at 16."""
    weight = rng.standard_normal((k, c // groups, fy, fx))
    qc = QuantizedConv(
        "conv", weight, rng.standard_normal(k), stride, padding, bits, bits, groups
    )
    qc.restore_observations([3.0])
    return qc


def unblocked_accumulate(qc, x):
    """One whole-batch ``np.pad`` im2col GEMM per group: ``(acc, int64 cols)``.

    The quantization is ``quantize_input``'s divide/round/clip in the
    input's own dtype; the recorded columns are reordered to
    ``mapper.im2col``'s ``(c, fy, fx)`` order.
    """
    w_groups = qc._blas_weights_nhwc()
    _, c_g, fy, fx = qc.weight_q.shape
    x_q = np.clip(np.round(x / qc.in_scale), 0, (1 << qc.act_bits) - 1)
    x_q = x_q.astype(w_groups[0].dtype)
    accs, recorded = [], []
    for g, w in enumerate(w_groups):
        x_g = x_q[..., g * c_g : (g + 1) * c_g]
        cols = reference_im2col_nhwc(x_g, fy, fx, qc.stride, qc.padding)
        accs.append(cols @ w)
        rows = cols.shape[0]
        recorded.append(
            cols.reshape(rows, fy * fx, c_g).transpose(0, 2, 1).astype(np.int64).reshape(rows, -1)
        )
    return np.concatenate(accs, axis=1), np.concatenate(recorded, axis=1)


def force_images_per_block(monkeypatch, qc, x, images):
    """Set the block budget to ``images`` images' worth of one group's columns."""
    _, h, w, _ = x.shape
    _, c_g, fy, fx = qc.weight_q.shape
    oh, ow = F.conv_out_hw(h, w, fy, fx, qc.stride, qc.padding)
    itemsize = qc._blas_weights_nhwc()[0].dtype.itemsize
    monkeypatch.setattr(Q, "_ACC_BLOCK_BYTES", images * oh * ow * fy * fx * c_g * itemsize)


class TestIm2colNhwcOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("groups", [1, 2])
    def test_byte_equal_on_grid(self, dtype, groups, monkeypatch):
        """The channels-last gather inside ``accumulate_nhwc``, seen
        through its recorded columns and accumulators, equals the ``np.pad``
        windows on the grid, one image per block and in two-image blocks
        (a short last block at ``N = 3``).  ``dtype`` is the activation
        dtype: the quantizing divide runs in it, as ``quantize_input``'s."""
        rng = np.random.default_rng(13)
        for n, c, (h, w), (fy, fx), stride, padding in GRID:
            qc = _qconv(rng, c * groups, 2 * groups, fy, fx, stride, padding, groups)
            qc.record = True
            x = (np.abs(_draw(rng, (n, h, w, c * groups), np.float64)) * 2).astype(dtype)
            expected_acc, expected_cols = unblocked_accumulate(qc, x)
            for images in (1, 2):
                force_images_per_block(monkeypatch, qc, x, images)
                acc = qc.accumulate_nhwc(x)
                case = (n, c, h, w, fy, fx, stride, padding, images)
                assert acc.dtype == expected_acc.dtype == np.float32, case
                assert acc.tobytes() == expected_acc.tobytes(), case
                assert qc.recorded_cols.dtype == np.int64, case
                assert qc.recorded_cols.tobytes() == expected_cols.tobytes(), case


#: (C, K, Fy, stride, padding, groups): stride 1 and 2, padding 0-2, a
#: 1x1 conv, a grouped conv and a depthwise conv.
CONVS = [
    (4, 6, 3, 1, 1, 1),
    (4, 6, 3, 2, 1, 1),
    (3, 5, 3, 1, 0, 1),
    (3, 4, 5, 2, 2, 1),
    (8, 5, 1, 1, 0, 1),
    (6, 4, 3, 1, 1, 2),
    (6, 6, 3, 2, 1, 6),
]


class TestBlockedAccumulation:
    @pytest.mark.parametrize("bits", [8, 16], ids=["float32", "float64"])
    @pytest.mark.parametrize("conv", CONVS, ids=lambda c: "c{}k{}f{}s{}p{}g{}".format(*c))
    def test_equals_unblocked_and_int64_gemm(self, conv, bits, monkeypatch):
        """Byte-equal to the unblocked im2col GEMM and, as integers, to the
        int64 reference, with its recorded columns; one image per block,
        two (a short last block of 5 images) and the default budget."""
        c, k, f, stride, padding, groups = conv
        rng = np.random.default_rng(c * 100 + k * 10 + f + bits)
        qc = _qconv(rng, c, k, f, f, stride, padding, groups, bits)
        dtype = np.float32 if bits == 8 else np.float64
        assert qc._blas_weights_nhwc()[0].dtype == dtype
        x = np.abs(rng.standard_normal((5, 7, 6, c))) * 2
        expected_acc, expected_cols = unblocked_accumulate(qc, x)
        qc.record = True
        x_nchw = np.ascontiguousarray(x.transpose(0, 3, 1, 2))
        reference = qc._grouped_int_gemm(qc.quantize_input(x_nchw))
        assert reference.tobytes() == expected_acc.astype(np.int64).tobytes()
        assert qc.recorded_cols.tobytes() == expected_cols.tobytes()
        default_budget = Q._ACC_BLOCK_BYTES
        for images in (1, 2, None):
            if images is None:
                monkeypatch.setattr(Q, "_ACC_BLOCK_BYTES", default_budget)
            else:
                force_images_per_block(monkeypatch, qc, x, images)
            for record in (True, False):
                qc.record, qc.recorded_cols = record, None
                acc = qc.accumulate_nhwc(x)
                assert acc.dtype == dtype and acc.shape == expected_acc.shape
                assert acc.tobytes() == expected_acc.tobytes(), images
                assert np.array_equal(acc.astype(np.int64), reference)
                if record:
                    assert qc.recorded_cols.tobytes() == expected_cols.tobytes(), images
                else:
                    assert qc.recorded_cols is None

    def test_does_not_build_the_whole_batch_im2col(self):
        """64 images of a 32x32x8 3x3 conv: an unblocked call gathers one
        18.9 MB float32 im2col; a blocked one holds its output, the
        quantized input and one block, a fraction of that."""
        rng = np.random.default_rng(0)
        qc = _qconv(rng, 8, 8, 3, 3, 1, 1)
        x = np.abs(rng.standard_normal((64, 32, 32, 8)))
        full_cols = 64 * 32 * 32 * 9 * 8 * 4
        assert full_cols > 18_800_000
        qc.accumulate_nhwc(x[:1])  # weights lowered outside the trace
        tracemalloc.start()
        try:
            acc = qc.accumulate_nhwc(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert acc.nbytes == 64 * 32 * 32 * 8 * 4
        assert peak < full_cols / 4, peak

    def test_one_window_view_per_call(self, monkeypatch):
        """The padded buffer's window view is built once per call and
        sliced per block, however many blocks the batch splits into."""
        rng = np.random.default_rng(2)
        qc = _qconv(rng, 8, 8, 3, 3, 1, 1)
        x = np.abs(rng.standard_normal((5, 7, 6, 8)))
        force_images_per_block(monkeypatch, qc, x, 2)  # blocks of 2, 2 and 1
        views = []
        real = Q._windows_nhwc
        monkeypatch.setattr(Q, "_windows_nhwc", lambda *a: views.append(a) or real(*a))
        qc.accumulate_nhwc(x)
        assert len(views) == 1


class TestCol2imOracle:
    @staticmethod
    def assert_grid_byte_equal(dtype, on_case=lambda cols, n: None):
        rng = np.random.default_rng(11)
        for n, c, (h, w), (fy, fx), stride, padding in GRID:
            oh, ow = F.conv_out_hw(h, w, fy, fx, stride, padding)
            cols = _with_negative_zeros(rng.standard_normal((n * oh * ow, c * fy * fx)), rng)
            cols = cols.astype(dtype)
            on_case(cols, n)
            expected = reference_col2im(cols, (n, c, h, w), fy, fx, stride, padding)
            got = F.col2im(cols, (n, c, h, w), fy, fx, stride, padding)
            case = (n, c, h, w, fy, fx, stride, padding)
            assert got.dtype == expected.dtype and got.shape == expected.shape, case
            assert got.strides == expected.strides, case
            assert got.tobytes() == expected.tobytes(), case

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_byte_equal_with_equal_strides(self, dtype):
        self.assert_grid_byte_equal(dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("images_per_block", [1, 2])
    def test_byte_equal_in_forced_blocks(self, dtype, images_per_block, monkeypatch):
        """Every grid case fits one block of the default budget; a budget
        of one or two images' ``cols`` splits the batch, short last block
        included."""

        def budget(cols, n):
            monkeypatch.setattr(F, "_COL2IM_BLOCK_BYTES", images_per_block * cols.nbytes // n)

        self.assert_grid_byte_equal(dtype, budget)


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
