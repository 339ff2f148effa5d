"""Post-training int8 quantization and integer inference.

The accelerator executes convolutions as integer GEMMs: uint8 activations
(ReLU outputs), int8 weights, wide-accumulator partial sums (Section II).
This module turns a trained float :class:`~repro.nn.models.ClassifierNetwork`
into a :class:`QuantizedNetwork` that

* folds each batch-norm into its preceding convolution (what a deployment
  compiler does — and what determines the weight *signs* READ reorders);
* quantizes weights per-tensor symmetric (int8 by default, any 2-16-bit
  width per layer) and activations per-tensor unsigned (scales from a
  calibration batch);
* executes each convolution as an exact integer GEMM, exposing the raw
  integer accumulators to a fault-injection hook (the paper's
  error-injection point: output activations *before* the activation
  function) and optionally recording the quantized operand streams that
  the systolic-array TER simulation replays;
* lowers the classifier head's ``Linear`` layers to 1x1 quantized
  convolutions (``Flatten`` / ``GlobalAvgPool`` become shape adapters),
  so the head runs on the same integer datapath as every other layer and
  is covered by TER simulation and fault injection — the seed repro's
  float-head special case is gone;
* supports grouped/depthwise convolutions (per-group integer GEMMs over
  contiguous channel blocks) and per-layer mixed-precision bit widths
  (``bits_per_layer``: layer name -> n_bits applied to both the weight
  and activation quantizers; unlisted layers use ``default_bits``).

Non-convolution operators (ReLU, pooling, residual adds) execute in
float — they are not in the MAC datapath under study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.mapper import im2col
from ..errors import QuantizationError, TrainingError
from . import functional as F
from .layers import (
    BasicBlock,
    BatchNorm2d,
    Conv2d,
    EncoderBlock,
    Flatten,
    GlobalAvgPool,
    LayerNorm,
    Linear,
    MaxPool2d,
    Module,
    PatchExtract,
    ReLU,
    SelfAttention,
    Sequential,
    TokenLinear,
    TokenMean,
)
from .models import ClassifierNetwork

#: Injection hook signature: (integer accumulators (pixels, K), layer) -> modified.
Injector = Callable[[np.ndarray, "QuantizedConv"], np.ndarray]

#: Version of the calibration observations stored beside trained
#: parameters (:meth:`QuantizedNetwork.calibration`).  Bump it when the
#: float calibration pass or the statistics it observes change: stored
#: observations of another version are then recomputed, not restored.
CALIBRATION_VERSION = 1

#: Bytes of one group's im2col columns :meth:`QuantizedConv.accumulate_nhwc`
#: gathers per block of whole images (at least one image), so a block's
#: columns and GEMM stay in a core's L2 cache.  512 KB was fastest of
#: 256 KB-2 MB on the four micro paper networks at 64, 192 and 384
#: stacked images (2 MB-L2 x86 host, one BLAS thread).
_ACC_BLOCK_BYTES = 1 << 19


@dataclass
class TrialBatchStats:
    """Work-avoidance counters of one lanes walk.

    ``deduped`` counts (trial, layer) events where a trial's flip draw
    collapsed onto an already-evaluated representative (zero-effective-
    flip draws staying in the fault-free lane, or duplicate flip
    patterns sharing one class).
    """

    deduped: int = 0


def fold_batchnorm(
    conv: Conv2d, bn: Optional[BatchNorm2d]
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold an inference-mode batch norm into conv weights and bias.

    Returns the effective float ``(weight, bias)`` such that
    ``bn(conv(x)) == conv'(x)`` with the running statistics.
    """
    weight = conv.weight.data.copy()
    bias = conv.bias.data.copy() if conv.bias is not None else np.zeros(weight.shape[0])
    if bn is None:
        return weight, bias
    inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
    scale = bn.gamma.data * inv_std  # per output channel
    weight *= scale[:, None, None, None]
    bias = (bias - bn.running_mean) * scale + bn.beta.data
    return weight, bias


def canonical_bits(
    bits_per_layer: Optional[object], default_bits: int = 8
) -> Tuple[Tuple[str, int], ...]:
    """Normalize a per-layer bit-width spec to a name-sorted tuple.

    Entries equal to ``default_bits`` are dropped, so specs that resolve
    to the same effective quantization normalize — and therefore hash
    and cache (bundle memo, :class:`~repro.faults.InjectionJob` content
    key) — identically.  The single normalization every consumer shares.
    """
    if not bits_per_layer:
        return ()
    items = bits_per_layer.items() if hasattr(bits_per_layer, "items") else bits_per_layer
    return tuple(
        sorted((str(k), int(v)) for k, v in items if int(v) != int(default_bits))
    )


def quantize_weights(weight: np.ndarray, n_bits: int = 8) -> Tuple[np.ndarray, float]:
    """Per-tensor symmetric ``n_bits``-wide quantization: ``(w_q, scale)``.

    ``n_bits=8`` is the paper's int8 datapath; the mixed-precision
    scenarios narrow individual layers down to 2 bits through this same
    entry point.
    """
    max_abs = float(np.abs(weight).max())
    if max_abs == 0:
        return np.zeros_like(weight, dtype=np.int64), 1.0
    q_max = (1 << (n_bits - 1)) - 1
    scale = max_abs / q_max
    w_q = np.clip(np.round(weight / scale), -q_max - 1, q_max).astype(np.int64)
    return w_q, scale


class QuantizedConv:
    """A conv layer executing as an integer GEMM on the accelerator.

    Lifecycle: constructed un-calibrated (``in_scale is None``) — forward
    then runs in float and records the input range; after
    :meth:`finalize_calibration` (or :meth:`restore_observations` of a
    stored range) the forward path is the integer GEMM.

    Attributes
    ----------
    name:
        Source conv layer name (keys the per-layer TER/BER tables).
    weight_q / w_scale / bias:
        Folded, quantized parameters (``weight_bits`` per-tensor
        symmetric weights, ``act_bits`` unsigned activations — a
        mixed-precision network varies these per layer).
    groups:
        Grouped-convolution factor: the layer executes as ``groups``
        independent integer GEMMs over contiguous channel blocks
        (``groups == in_channels`` is depthwise).
    injector:
        Optional fault hook applied to the raw accumulators.
    recorded_cols:
        When ``record`` is set, the most recent quantized im2col operand
        matrix ``(pixels, C*Fy*Fx)``, int64, from either forward path —
        the exact stream the systolic simulator replays for TER
        measurement.  For a grouped layer the
        reduction axis is the concatenation of the per-group operand
        blocks (identical to the dense im2col, channels being contiguous
        per group); group ``g`` owns columns ``group_col_spans()[g]``.
    """

    def __init__(
        self,
        name: str,
        weight: np.ndarray,
        bias: np.ndarray,
        stride: int,
        padding: int,
        act_bits: int = 8,
        weight_bits: int = 8,
        groups: int = 1,
    ) -> None:
        if groups < 1 or weight.shape[0] % groups:
            raise QuantizationError(
                f"layer {name}: groups={groups} must divide the "
                f"{weight.shape[0]} output channels"
            )
        self.name = name
        self.weight_float = weight
        self.weight_q, self.w_scale = quantize_weights(weight, n_bits=weight_bits)
        self.bias = bias
        self.stride = stride
        self.padding = padding
        self.act_bits = act_bits
        self.weight_bits = weight_bits
        self.groups = groups
        self.in_scale: Optional[float] = None
        self._observed_max = 0.0
        self.injector: Optional[Injector] = None
        self.record = False
        self.recorded_cols: Optional[np.ndarray] = None

        self._lowered: Optional[List[np.ndarray]] = None
        self._blas_weights_hwc: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------ #
    @property
    def out_channels(self) -> int:
        return self.weight_q.shape[0]

    @property
    def in_channels(self) -> int:
        """Input channels consumed (``C``, summed over groups)."""
        return self.weight_q.shape[1] * self.groups

    @property
    def kernel_area(self) -> int:
        return self.weight_q.shape[2] * self.weight_q.shape[3]

    @property
    def n_macs_per_output(self) -> int:
        """Reduction length N of Eq. 1 (per output — i.e. per group)."""
        return int(np.prod(self.weight_q.shape[1:]))

    def group_col_spans(self) -> List[Tuple[int, int]]:
        """Per-group ``(start, stop)`` column spans of the im2col matrix.

        The dense im2col reduction axis is ordered ``(c, fy, fx)`` with
        channels outermost, so each group's operands are one contiguous
        block of ``(C / groups) * Fy * Fx`` columns.
        """
        span = self.n_macs_per_output
        return [(g * span, (g + 1) * span) for g in range(self.groups)]

    def lowered_weight_matrix(self) -> np.ndarray:
        """Quantized GEMM weight matrix ``(C*Fy*Fx, K)`` for READ planning.

        Only meaningful for dense layers; a grouped layer is ``groups``
        independent GEMMs — use :meth:`lowered_group_weights`.
        """
        if self.groups != 1:
            raise QuantizationError(
                f"layer {self.name} has groups={self.groups}; use lowered_group_weights()"
            )
        return self.lowered_group_weights()[0]

    def lowered_group_weights(self) -> List[np.ndarray]:
        """Per-group GEMM weight matrices ``((C/g)*Fy*Fx, K/g)``, built afresh.

        Built from ``weight_q`` on each call, not copied from the int64
        GEMM's memo, so a process that never runs that GEMM (a warm run,
        or one on the BLAS walks only) holds no int64 copy of the weights.
        """
        k_g = self.weight_q.shape[0] // self.groups
        return [
            self.weight_q[g * k_g : (g + 1) * k_g].reshape(k_g, -1).T.copy()
            for g in range(self.groups)
        ]

    def _lowered_weights(self) -> List[np.ndarray]:
        """Memoized per-group lowered weight matrices (frozen post-build)."""
        if self._lowered is None:
            self._lowered = self.lowered_group_weights()
        return self._lowered

    def acc_bound(self) -> int:
        """Largest possible |partial sum| of this layer's integer GEMM.

        Every accumulation order is bounded by
        ``q_max * max_k sum_c |w_q[c, k]|`` (activations are uint
        ``act_bits``).  When this bound fits the float32 (2**24) or
        float64 (2**53) exact-integer range, a BLAS GEMM in that dtype is
        *exact* — every intermediate is an integer below the mantissa
        limit — and therefore bit-identical to the int64 reference
        regardless of BLAS blocking, threading or batch shape.
        """
        q_max = (1 << self.act_bits) - 1
        col_sums = np.abs(self.weight_q.reshape(self.out_channels, -1)).sum(axis=1)
        return int(q_max) * int(col_sums.max(initial=0))

    def _blas_weights_nhwc(self) -> Optional[List[np.ndarray]]:
        """Lowered BLAS weights with the reduction re-ordered ``(fy,fx,c)``.

        The channels-last GEMM of :meth:`accumulate_nhwc` sums exactly
        the same integer products in a different order, which an exact
        datapath cannot observe — so the accumulators stay bit-identical
        while the operand gather runs over contiguous channel runs.  One
        matrix per group, each ``(Fy*Fx*(C/g), K/g)``, in the narrowest
        float dtype that holds every partial sum exactly: float32 below
        an :meth:`acc_bound` of 2**24, float64 below 2**53.  ``None``
        means neither does, and callers fall back to the int64 reference
        GEMM.
        """
        if self._blas_weights_hwc is None:
            bound = self.acc_bound()
            if bound >= (1 << 53):  # pragma: no cover - needs a >2**45-element reduction
                return None
            dtype = np.float32 if bound < (1 << 24) else np.float64
            k_g = self.weight_q.shape[0] // self.groups
            self._blas_weights_hwc = [
                np.ascontiguousarray(
                    self.weight_q[g * k_g : (g + 1) * k_g].transpose(2, 3, 1, 0), dtype=dtype
                ).reshape(-1, k_g)
                for g in range(self.groups)
            ]
        return self._blas_weights_hwc

    def accumulate_nhwc(self, x: np.ndarray) -> np.ndarray:
        """Integer-*valued* accumulators ``(N*OH*OW, K)`` via exact BLAS GEMMs.

        ``x`` is the channels-last ``(N, H, W, C)`` float activation
        tensor.  Bit-identical values to the int64 GEMM in
        :meth:`_forward_quantized` (see :meth:`acc_bound` for why, and
        :meth:`_blas_weights_nhwc` for the reduction re-ordering) — the
        batched injection runtime's hot loop.  Accumulator rows are
        ordered ``(n, oy, ox)`` exactly like the channels-first path, so
        per-element flip masks line up between the runtimes.

        The batch runs in blocks of whole images, as many as fit
        ``_ACC_BLOCK_BYTES`` of one group's im2col columns (at least
        one).  Each block is quantized (the float64 divide/round/clip of
        :meth:`quantize_input`, so every quantization decision is the
        same), written into one zero-bordered buffer, gathered group by
        group — through one window view of that buffer, built once per
        call and sliced per block — into one reused channels-contiguous
        column buffer, and
        multiplied into its rows of one preallocated output.  A block's
        columns and GEMM stay in a core's L2 cache, and no call holds
        the whole batch's columns.  Splitting the rows cannot change a
        bit: every partial sum is an integer below the dtype's exact
        range.  A batch that fits one block runs as one GEMM per group.

        The result stays in the BLAS float dtype: every entry is an
        exactly-represented integer, and so is every entry after an
        MSB-window bit flip (which lands within the 24-bit PSUM range) —
        converting the full tensor to int64 would only add memory
        traffic.  Falls back to the int64 reference on the (unreachable
        in practice) overflow case.  With ``record`` set, keeps the int64
        operand matrix the reference GEMM would record, built from the
        same quantized values in ``mapper.im2col``'s ``(c, fy, fx)``
        column order, in ``recorded_cols``.
        """
        w_groups = self._blas_weights_nhwc()
        if w_groups is None:  # pragma: no cover - see _blas_weights_nhwc
            x_nchw = np.ascontiguousarray(x.transpose(0, 3, 1, 2))
            return self._grouped_int_gemm(self.quantize_input(x_nchw))
        if self.in_scale is None:
            raise QuantizationError(f"layer {self.name} is not calibrated")
        q_max = (1 << self.act_bits) - 1
        n, h, w, c = x.shape
        _, c_g, fy, fx = self.weight_q.shape
        k_g = self.out_channels // self.groups
        oh, ow = F.conv_out_hw(h, w, fy, fx, self.stride, self.padding)
        pix, taps, p = oh * ow, fy * fx, self.padding
        dtype = w_groups[0].dtype
        per_block = max(1, min(n, _ACC_BLOCK_BYTES // (pix * taps * c_g * dtype.itemsize)))
        padded = np.zeros((per_block, h + 2 * p, w + 2 * p, c), dtype=dtype)
        block_windows = _windows_nhwc(padded, fy, fx, self.stride)
        cols = np.empty((per_block * pix, taps * c_g), dtype=dtype)
        acc = np.empty((n * pix, self.out_channels), dtype=dtype)
        recorded = np.empty((n * pix, self.groups, c_g, taps), np.int64) if self.record else None
        for lo in range(0, n, per_block):
            nb = min(per_block, n - lo)
            x_q = x[lo : lo + nb] / self.in_scale
            np.round(x_q, out=x_q)
            np.clip(x_q, 0, q_max, out=x_q)
            padded[:nb, p : p + h, p : p + w] = x_q
            windows = block_windows[:nb]
            rows = slice(lo * pix, (lo + nb) * pix)
            cols_b = cols[: nb * pix]
            cols6 = cols_b.reshape(nb, oh, ow, fy, fx, c_g)
            for g, w_g in enumerate(w_groups):
                cols6[...] = windows[..., g * c_g : (g + 1) * c_g]
                np.matmul(cols_b, w_g, out=acc[rows, g * k_g : (g + 1) * k_g])
                if recorded is not None:
                    recorded[rows, g] = cols_b.reshape(-1, taps, c_g).transpose(0, 2, 1)
        if recorded is not None:
            self.recorded_cols = recorded.reshape(n * pix, -1)
        return acc

    def accumulate_exact(self, x: np.ndarray) -> np.ndarray:
        """:meth:`accumulate_nhwc` for a channels-first ``(N, C, H, W)`` input."""
        return self.accumulate_nhwc(np.ascontiguousarray(x.transpose(0, 2, 3, 1)))

    def dequantize_nhwc(self, acc: np.ndarray, oh: int, ow: int) -> np.ndarray:
        """Dequantize raw accumulators ``(rows, K)`` into ``(rows/(OH*OW), OH, OW, K)``.

        The one op sequence every channels-last output comes from: the
        fault-free forward's, a trial's, and a fault-free output the
        lanes walk rebuilds from recorded accumulators, which is
        therefore bit-identical to the one the forward computed.
        """
        out = np.multiply(acc, self.in_scale * self.w_scale, dtype=np.float64)
        out += self.bias
        return out.reshape(-1, oh, ow, self.out_channels)

    def epilogue_nhwc(self, acc: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
        """Dequantize raw accumulators ``(n*OH*OW, K)`` into ``(n, OH, OW, K)``."""
        _, _, fy, fx = self.weight_q.shape
        oh, ow = F.conv_out_hw(h, w, fy, fx, self.stride, self.padding)
        return self.dequantize_nhwc(acc, oh, ow)

    def epilogue(self, acc: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
        """Dequantize raw accumulators ``(n*OH*OW, K)`` into the float output."""
        return self.epilogue_nhwc(acc, n, h, w).transpose(0, 3, 1, 2)

    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.in_scale is None:
            return self._forward_calibrate(x)
        return self._forward_quantized(x)

    __call__ = forward

    def _forward_calibrate(self, x: np.ndarray) -> np.ndarray:
        self._observed_max = max(self._observed_max, float(x.max(initial=0.0)))
        if self.groups == 1:
            out, _ = F.conv2d_forward(x, self.weight_float, self.bias, self.stride, self.padding)
            return out
        c_g = self.weight_float.shape[1]
        k_g = self.weight_float.shape[0] // self.groups
        outs = []
        for g in range(self.groups):
            out_g, _ = F.conv2d_forward(
                x[:, g * c_g : (g + 1) * c_g],
                self.weight_float[g * k_g : (g + 1) * k_g],
                self.bias[g * k_g : (g + 1) * k_g],
                self.stride,
                self.padding,
            )
            outs.append(out_g)
        return np.concatenate(outs, axis=1)

    def finalize_calibration(self) -> None:
        """Fix the activation scale from the observed calibration range."""
        if self._observed_max <= 0:
            raise QuantizationError(
                f"layer {self.name}: no positive activations observed during calibration"
            )
        self.in_scale = self._observed_max / ((1 << self.act_bits) - 1)

    def observations(self) -> Tuple[float, ...]:
        """What the float calibration pass observed: the input maximum."""
        return (self._observed_max,)

    def restore_observations(self, values: Sequence[float]) -> None:
        """Fix the scale from stored :meth:`observations`, with no float pass."""
        (self._observed_max,) = map(float, values)
        self.finalize_calibration()

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        """uint8-quantize a (non-negative) activation tensor."""
        if self.in_scale is None:
            raise QuantizationError(f"layer {self.name} is not calibrated")
        q_max = (1 << self.act_bits) - 1
        return np.clip(np.round(x / self.in_scale), 0, q_max).astype(np.int64)

    def _grouped_int_gemm(self, x_q: np.ndarray) -> np.ndarray:
        """Reference int64 accumulators ``(N*OH*OW, K)`` from a quantized input.

        One dense im2col (channels are contiguous per group, so each
        group's operands are a column slice) followed by one GEMM per
        group; the single-group case is the plain lowered GEMM.
        """
        _, _, fy, fx = self.weight_q.shape
        cols = im2col(x_q, fy, fx, stride=self.stride, padding=self.padding)
        if self.record:
            self.recorded_cols = cols
        lowered = self._lowered_weights()
        if self.groups == 1:
            return cols @ lowered[0]  # (N*OH*OW, K) int64
        return np.concatenate(
            [
                cols[:, start:stop] @ w
                for (start, stop), w in zip(self.group_col_spans(), lowered)
            ],
            axis=1,
        )

    def _forward_quantized(self, x: np.ndarray) -> np.ndarray:
        n, _, h, w = x.shape
        acc = self._grouped_int_gemm(self.quantize_input(x))
        if self.injector is not None:
            acc = self.injector(acc, self)
        return self.epilogue(acc, n, h, w)


class _QBlock:
    """Quantized ResNet basic block (inference only)."""

    def __init__(self, block: BasicBlock, bits_fn: Callable[[str], int] = lambda name: 8) -> None:
        self.qconv1 = _fold_to_qconv(block.conv1, block.bn1, bits_fn(block.conv1.name))
        self.qconv2 = _fold_to_qconv(block.conv2, block.bn2, bits_fn(block.conv2.name))
        if block.shortcut_conv is not None:
            self.qshortcut: Optional[QuantizedConv] = _fold_to_qconv(
                block.shortcut_conv, block.shortcut_bn, bits_fn(block.shortcut_conv.name)
            )
        else:
            self.qshortcut = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        main = np.maximum(self.qconv1(x), 0.0)
        main = self.qconv2(main)
        residual = self.qshortcut(x) if self.qshortcut is not None else x
        return np.maximum(main + residual, 0.0)

    __call__ = forward

    def qconvs(self) -> List[QuantizedConv]:
        convs = [self.qconv1, self.qconv2]
        if self.qshortcut is not None:
            convs.append(self.qshortcut)
        return convs


def _fold_to_qconv(conv: Conv2d, bn: Optional[BatchNorm2d], n_bits: int = 8) -> QuantizedConv:
    weight, bias = fold_batchnorm(conv, bn)
    return QuantizedConv(
        name=conv.name,
        weight=weight,
        bias=bias,
        stride=conv.stride,
        padding=conv.padding,
        act_bits=n_bits,
        weight_bits=n_bits,
        groups=conv.groups,
    )


class _FlattenToConv(Module):
    """Head adapter: ``(N, C, H, W) -> (N, C*H*W, 1, 1)``.

    Replaces a head ``Flatten`` so the following lowered ``Linear`` (a
    1x1 :class:`QuantizedConv`) reads the flattened features as its input
    channels.  The channel order matches ``Flatten`` exactly (``C``
    outermost), so the conv weights are the Linear weights verbatim.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1, 1, 1)


class _PoolToConv(Module):
    """Head adapter: global average pooling kept in the conv layout.

    ``(N, C, H, W) -> (N, C, 1, 1)``, numerically the standard
    ``GlobalAvgPool`` but without dropping the spatial axes the lowered
    classifier conv consumes.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.mean(axis=(2, 3), keepdims=True)


def _linear_to_qconv(linear: Linear, n_bits: int = 8) -> QuantizedConv:
    """Lower a classifier ``Linear`` to a 1x1 :class:`QuantizedConv`.

    ``Linear`` computes ``x @ W + b`` with ``W`` of shape
    ``(in_features, out_features)``; the equivalent convolution has
    weights ``(out_features, in_features, 1, 1) = W.T`` applied to the
    ``(N, in_features, 1, 1)`` adapter output.  With this lowering the
    classifier head shares the integer MAC datapath — its accumulators
    are visible to TER simulation and to the fault injector like any
    conv layer's.
    """
    in_features, out_features = linear.weight.data.shape
    weight = np.ascontiguousarray(linear.weight.data.T).reshape(
        out_features, in_features, 1, 1
    )
    return QuantizedConv(
        name=linear.name,
        weight=weight,
        bias=linear.bias.data.copy(),
        stride=1,
        padding=0,
        act_bits=n_bits,
        weight_bits=n_bits,
    )


def _observations(ops: Sequence[object]) -> Dict[str, np.ndarray]:
    """``{op name: float64 observations}`` of calibrated GEMM ops."""
    if any(op.in_scale is None for op in ops):
        raise QuantizationError("call calibrate(batch) before reading the calibration")
    return {op.name: np.array(op.observations(), dtype=np.float64) for op in ops}


def _restore_observations(ops: Sequence[object], observations: Dict[str, np.ndarray]) -> None:
    """Restore every op from ``observations``, which must name them all."""
    missing = sorted(op.name for op in ops if op.name not in observations)
    if missing:
        raise QuantizationError(f"stored calibration lacks GEMM op(s) {missing}")
    for op in ops:
        op.restore_observations(observations[op.name])


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only (shared across trials and campaigns)."""
    arr.flags.writeable = False
    return arr


def _windows_nhwc(x: np.ndarray, fy: int, fx: int, stride: int) -> np.ndarray:
    """Sliding ``(n, oh, ow, fy, fx, c)`` window view of an NHWC tensor."""
    n, h, w, c = x.shape
    oh = (h - fy) // stride + 1
    ow = (w - fx) // stride + 1
    s = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, fy, fx, c),
        strides=(s[0], s[1] * stride, s[2] * stride, s[1], s[2], s[3]),
        writeable=False,
    )


def _maxpool_nhwc(x: np.ndarray, size: int, stride: int) -> np.ndarray:
    """Channels-last max pooling, bit-identical to the channels-first op.

    Max is an exact reduction (no rounding), so reading the same window
    values in a different memory order cannot change any output.
    """
    return _windows_nhwc(x, size, size, stride).max(axis=(3, 4))


def _to_nhwc(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def _to_nchw(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2))


@dataclass
class FaultFreePass:
    """One recorded fault-free forward: what the trial walks read of it.

    The batched injection runtime's operand cache: campaigns over the
    same ``(network, inputs)`` pair share

    * ``acc`` — every conv's raw integer accumulators ``(N*OH*OW, K)``,
      in the BLAS float dtype that holds them exactly, so a campaign's
      trials fork from them at their first effective flip and pay only
      for the bit flips.  A side of a residual join that is still
      fault-free is rebuilt from them with
      :meth:`QuantizedConv.dequantize_nhwc`, bit-identical to the
      output the forward computed;
    * ``out_hw`` — every conv's output ``(OH, OW)`` (a fork has no input
      tensor to derive it from);
    * ``block_inputs`` — the channels-last input of each residual block
      with an identity shortcut, keyed by op index: the fault-free side
      of its join;
    * ``features`` — the final channels-last ``(N, 1, 1, classes)``
      state, which every trial still on the fault-free lane scores;
    * ``max_abs_acc`` — the per-layer full-batch accumulator maxima that
      fix the relative-mode flip window (the determinism contract: flip
      positions depend on the full injected batch, never on evaluation
      chunking).

    No other op output is kept: ops before the first injected layer cost
    nothing because a trial on the fault-free lane carries no tensor at
    all.  A :class:`QuantizedTokenNetwork` pass holds ``max_abs_acc``
    only, since its serial trial loop reads nothing else.  All stored
    arrays are read-only; consumers copy on write.
    """

    n_images: int
    acc: Dict[str, np.ndarray] = field(default_factory=dict)
    out_hw: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    block_inputs: Dict[int, np.ndarray] = field(default_factory=dict)
    features: Optional[np.ndarray] = None
    max_abs_acc: Dict[str, int] = field(default_factory=dict)

    def nbytes(self) -> int:
        """Bytes of the distinct buffers the stored arrays pin, each counted
        once however many fields or views share it (the pass LRU in
        :mod:`repro.faults.injection_job` is bounded by entry count and by
        total bytes)."""
        arrays = [*self.acc.values(), *self.block_inputs.values()]
        if self.features is not None:
            arrays.append(self.features)
        owners: Dict[int, int] = {}
        for arr in arrays:
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            owners[id(arr)] = arr.nbytes
        return sum(owners.values())


#: A lanes walk's state: the diverged classes' stacked tensor, class
#: ``c`` in rows ``[c*N, (c+1)*N)`` (``None`` while every trial is on
#: the fault-free lane), and each trial's class (-1: fault-free lane).
_Lanes = Tuple[Optional[np.ndarray], List[int]]


@dataclass
class _LaneCtx:
    """Shared context of one lanes walk (see ``_lane_conv``)."""

    injectors: Sequence[Injector]
    injected: set
    prefix: FaultFreePass
    n_images: int
    stats: TrialBatchStats


class QuantizedNetwork:
    """Integer-inference version of a trained :class:`ClassifierNetwork`.

    Construction folds/quantizes every convolution *and* lowers the
    classifier head's ``Linear`` layers to 1x1 quantized convolutions, so
    the whole network — head included — runs on the integer MAC datapath
    under study.  Call :meth:`calibrate` with a representative batch
    before inference.

    ``bits_per_layer`` maps layer names to their quantization bit width
    (applied to both the symmetric weight quantizer and the unsigned
    activation quantizer); layers not listed use ``default_bits``.  This
    is the mixed-precision axis of the scenario registry
    (:mod:`repro.scenarios`).
    """

    def __init__(
        self,
        model: ClassifierNetwork,
        bits_per_layer: Optional[Dict[str, int]] = None,
        default_bits: int = 8,
    ) -> None:
        model.eval()
        self.name = model.name
        self.bits_per_layer = {str(k): int(v) for k, v in (bits_per_layer or {}).items()}
        self.default_bits = int(default_bits)
        if not 2 <= self.default_bits <= 16:
            raise QuantizationError(f"default_bits {default_bits} outside [2, 16]")
        for name, bits in self.bits_per_layer.items():
            if not 2 <= bits <= 16:
                raise QuantizationError(f"layer {name}: n_bits {bits} outside [2, 16]")
        self._ops: List[object] = []
        self._build(model.features)
        self._build_head(model.head)
        self._calibrated = False

    def layer_bits(self, name: str) -> int:
        """The quantization bit width of layer ``name``."""
        return self.bits_per_layer.get(name, self.default_bits)

    # ------------------------------------------------------------------ #
    def _build(self, features: Sequential) -> None:
        layers = list(features)
        i = 0
        while i < len(layers):
            layer = layers[i]
            if isinstance(layer, Conv2d):
                bn = None
                if i + 1 < len(layers) and isinstance(layers[i + 1], BatchNorm2d):
                    bn = layers[i + 1]
                    i += 1
                self._ops.append(_fold_to_qconv(layer, bn, self.layer_bits(layer.name)))
            elif isinstance(layer, BasicBlock):
                self._ops.append(_QBlock(layer, self.layer_bits))
            elif isinstance(layer, BatchNorm2d):
                raise QuantizationError("unfused BatchNorm without preceding conv")
            else:
                self._ops.append(layer)  # ReLU / pooling / etc. run in float
            i += 1

    def _build_head(self, head: Sequential) -> None:
        """Lower the classifier head onto the integer datapath.

        ``Flatten`` / ``GlobalAvgPool`` become shape adapters and every
        ``Linear`` becomes a 1x1 :class:`QuantizedConv`, so the head is
        covered by operand recording, TER simulation and fault injection
        exactly like the feature layers (the seed repro's float-head
        special case — which the MSB pass and the layer studies had to
        skip around — is gone).
        """
        for layer in head:
            if isinstance(layer, Flatten):
                self._ops.append(_FlattenToConv())
            elif isinstance(layer, GlobalAvgPool):
                self._ops.append(_PoolToConv())
            elif isinstance(layer, Linear):
                self._ops.append(_linear_to_qconv(layer, self.layer_bits(layer.name)))
            elif isinstance(layer, ReLU):
                self._ops.append(layer)
            else:
                raise QuantizationError(f"cannot lower head layer {layer!r}")

    # ------------------------------------------------------------------ #
    def qconvs(self, include_shortcuts: bool = False) -> List[QuantizedConv]:
        """Quantized conv layers in execution order (Fig. 8's unit)."""
        convs: List[QuantizedConv] = []
        for op in self._ops:
            if isinstance(op, QuantizedConv):
                convs.append(op)
            elif isinstance(op, _QBlock):
                for qc in op.qconvs():
                    if not include_shortcuts and "shortcut" in qc.name:
                        continue
                    convs.append(qc)
        return convs

    def gemm_ops(self) -> List[object]:
        """Every integer-GEMM op in execution order (the TER/BER unit).

        For a conv network these are exactly :meth:`qconvs`; token
        networks extend the family with matmul ops.  The shared surface
        the generalized TER pipeline iterates.
        """
        return list(self.qconvs())

    def _forward_features(self, x: np.ndarray) -> np.ndarray:
        for op in self._ops:
            if isinstance(op, (QuantizedConv, _QBlock)):
                x = op(x)
            elif isinstance(op, ReLU):
                x = np.maximum(x, 0.0)
            elif isinstance(op, Module):
                op.training = False
                x = op.forward(x)
            else:  # pragma: no cover - defensive
                raise TrainingError(f"unexpected op {op!r}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full inference: the whole lowered pipeline, logits ``(N, classes)``."""
        out = self.forward_features(x)
        return out.reshape(out.shape[0], -1)

    __call__ = forward

    def forward_features(self, x: np.ndarray) -> np.ndarray:
        """The lowered op pipeline, head included, in the conv layout.

        Returns the final ``(N, classes, 1, 1)`` tensor; :meth:`forward`
        flattens it to logits.  Every injector hook — the classifier
        head's included — fires along the way.
        """
        if not self._calibrated:
            raise QuantizationError("call calibrate(batch) before inference")
        return self._forward_features(x)

    # ------------------------------------------------------------------ #
    def calibrate(self, x: np.ndarray) -> None:
        """One float pass to fix all activation scales."""
        self._forward_features(x)
        for qc in self.qconvs(include_shortcuts=True):
            qc.finalize_calibration()
        self._calibrated = True

    def calibration(self) -> Dict[str, np.ndarray]:
        """Every conv's calibration observations, shortcuts included.

        They come from the float pass, so they do not depend on the bit
        widths: one set restores every precision variant of the network.
        """
        return _observations(self.qconvs(include_shortcuts=True))

    def restore_calibration(self, observations: Dict[str, np.ndarray]) -> None:
        """Calibrate from stored :meth:`calibration` output, with no forward pass."""
        _restore_observations(self.qconvs(include_shortcuts=True), observations)
        self._calibrated = True

    def set_injector(self, injector: Optional[Injector]) -> None:
        """Install (or clear) the fault hook on every conv layer."""
        for qc in self.qconvs(include_shortcuts=True):
            qc.injector = injector

    def set_recording(self, record: bool) -> None:
        """Toggle operand-stream recording on every conv layer."""
        for qc in self.qconvs(include_shortcuts=True):
            qc.record = record
            if not record:
                qc.recorded_cols = None

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        topk: int = 1,
        batch_size: int = 128,
        injector: Optional[Injector] = None,
    ) -> float:
        """Top-k accuracy of quantized inference, optionally fault-injected.

        Accumulates exact per-chunk *correct counts* (not per-chunk
        accuracy floats), so a short final chunk — a batch size that does
        not divide ``len(x)`` — can never skew the average.

        A clean evaluation runs the exact channels-last BLAS walk of
        :meth:`fault_free_pass` (logits bit-identical to :meth:`forward`,
        see :meth:`QuantizedConv.acc_bound`); an injected one runs the
        int64 :meth:`forward`, the serial injection runtime's oracle.
        """
        self.set_injector(injector)
        try:
            correct = 0
            for start in range(0, x.shape[0], batch_size):
                xb = x[start : start + batch_size]
                yb = y[start : start + batch_size]
                if injector is None:
                    logits = _to_nchw(self._forward_nhwc(xb)).reshape(xb.shape[0], -1)
                else:
                    logits = self.forward(xb)
                correct += F.topk_correct(logits, yb, topk=topk)
            return correct / x.shape[0]
        finally:
            self.set_injector(None)

    # ------------------------------------------------------------------ #
    # Trial-batched injection runtime
    # ------------------------------------------------------------------ #
    @staticmethod
    def _module_nhwc(op: Module, state: np.ndarray) -> np.ndarray:
        """A float feature-path module applied to a channels-last state.

        Max pooling runs natively channels-last (an exact reduction);
        any other module sees the standard channels-first tensor it was
        written for, via a transpose round trip.
        """
        if isinstance(op, MaxPool2d):
            return _maxpool_nhwc(state, op.size, op.stride)
        op.training = False
        return _to_nhwc(op.forward(_to_nchw(state)))

    def _forward_nhwc(
        self,
        x: np.ndarray,
        on_conv: Optional[Callable[[QuantizedConv, np.ndarray, np.ndarray], None]] = None,
        on_identity_input: Optional[Callable[[int, np.ndarray], None]] = None,
    ) -> np.ndarray:
        """The fault-free forward, channels-last, on exact BLAS GEMMs.

        Convolutions run through :meth:`QuantizedConv.accumulate_nhwc`
        (bit-identical to the int64 reference, at a fraction of its
        cost).  ``on_conv(qc, acc, out)`` sees every conv's raw
        accumulators and float output, ``on_identity_input(i, state)``
        the input of every identity-shortcut block (op index ``i``).
        Returns the final ``(N, 1, 1, classes)`` state.
        """
        if not self._calibrated:
            raise QuantizationError("call calibrate(batch) before inference")

        def run_conv(qc: QuantizedConv, xin: np.ndarray) -> np.ndarray:
            n, h, w, _ = xin.shape
            acc = qc.accumulate_nhwc(xin)
            out = qc.epilogue_nhwc(acc, n, h, w)
            if on_conv is not None:
                on_conv(qc, acc, out)
            return out

        state = _to_nhwc(x)
        for i, op in enumerate(self._ops):
            if isinstance(op, QuantizedConv):
                state = run_conv(op, state)
            elif isinstance(op, _QBlock):
                if op.qshortcut is None and on_identity_input is not None:
                    on_identity_input(i, state)
                main = np.maximum(run_conv(op.qconv1, state), 0.0)
                main = run_conv(op.qconv2, main)
                residual = (
                    run_conv(op.qshortcut, state) if op.qshortcut is not None else state
                )
                state = np.maximum(main + residual, 0.0)
            elif isinstance(op, ReLU):
                state = np.maximum(state, 0.0)
            elif isinstance(op, Module):
                state = self._module_nhwc(op, state)
            else:  # pragma: no cover - defensive, mirrors _forward_features
                raise TrainingError(f"unexpected op {op!r}")
        return state

    def fault_free_pass(self, x: np.ndarray) -> FaultFreePass:
        """Record one fault-free forward as a :class:`FaultFreePass`.

        Runs :meth:`_forward_nhwc`, so building the pass already costs a
        fraction of a serial forward, and keeps only what the lanes walk
        reads: no conv's float output survives the walk.
        """
        pass_ = FaultFreePass(n_images=x.shape[0])

        def record_conv(qc: QuantizedConv, acc: np.ndarray, out: np.ndarray) -> None:
            pass_.acc[qc.name] = _frozen(acc)
            pass_.out_hw[qc.name] = (out.shape[1], out.shape[2])
            pass_.max_abs_acc[qc.name] = int(np.abs(acc).max(initial=0))

        def record_input(i: int, state: np.ndarray) -> None:
            pass_.block_inputs[i] = _frozen(state)

        pass_.features = _frozen(
            self._forward_nhwc(x, on_conv=record_conv, on_identity_input=record_input)
        )
        return pass_

    def _prepare_trials(
        self,
        x: np.ndarray,
        injectors: Sequence[Injector],
        prefix: Optional[FaultFreePass],
    ) -> Tuple[set, FaultFreePass]:
        """Shared validation of the trial-batched entry points."""
        if not self._calibrated:
            raise QuantizationError("call calibrate(batch) before inference")
        if not injectors:
            raise QuantizationError("need at least one trial injector")
        tables = [dict(getattr(inj, "ber_per_layer")) for inj in injectors]
        if any(table != tables[0] for table in tables[1:]):
            raise QuantizationError(
                "trial injectors must share one BER table (trials differ by seed only)"
            )
        injected = {name for name, ber in tables[0].items() if ber > 0.0}
        prefix = prefix if prefix is not None else self.fault_free_pass(x)
        if prefix.n_images != x.shape[0]:
            raise QuantizationError(
                f"fault-free pass covers {prefix.n_images} images, got {x.shape[0]}"
            )
        return injected, prefix

    # ------------------------------------------------------------------ #
    # Dedup lanes walk
    #
    # Trials are partitioned into a fault-free *lane* (assignment -1,
    # served entirely from the recorded pass — no tensors, no GEMMs) and
    # diverged *classes* 0..A-1 of mutually bit-identical trials, each
    # owning one (N, ...) slice of a stacked state tensor.  At an
    # injected conv every trial draws its flip plan (preserving the
    # serial RNG streams and flip accounting exactly); trials whose
    # plans select nothing stay in the lane or class they were in, and
    # trials with byte-identical plans on the same base class collapse
    # into one representative.  Exactness of the whole walk is
    # inductive: every class tensor is produced by the same
    # deterministic integer ops, from the same inputs, as each member
    # trial's tensor in a serial forward.
    # ------------------------------------------------------------------ #
    def _lane_conv(
        self,
        qc: QuantizedConv,
        lanes: _Lanes,
        ctx: _LaneCtx,
    ) -> _Lanes:
        """One conv under the lanes walk.

        Non-injected: one :meth:`QuantizedConv.accumulate_nhwc` over the
        stacked diverged classes (the fault-free lane costs nothing).  Injected: draw every trial's
        flip plan, re-partition trials by ``(source class, plan bytes)``,
        and materialize one accumulator tensor per distinct partition —
        fault-free-lane trials fork from the cached prefix accumulators,
        so a trial only ever pays for layers where its faults are live.
        Each partition's accumulators are copied straight into its rows
        of one stacked buffer and flipped there.
        """
        state, assign = lanes
        oh, ow = ctx.prefix.out_hw[qc.name]
        acc = None if state is None else qc.accumulate_nhwc(state)
        if qc.name not in ctx.injected:
            return lanes if acc is None else (qc.dequantize_nhwc(acc, oh, ow), assign)

        base_ff = ctx.prefix.acc[qc.name]
        rows = base_ff.shape[0]

        def base(cls: int) -> np.ndarray:
            return base_ff if cls < 0 else acc[cls * rows : (cls + 1) * rows]

        plans = [inj.flip_plan(base(assign[t]), qc) for t, inj in enumerate(ctx.injectors)]
        seen: Dict[Tuple[int, Optional[Tuple[bytes, bytes]]], int] = {}
        reps: List[int] = []  # the first trial of each new class
        new_assign = [-1] * len(plans)
        for t, plan in enumerate(plans):
            old = assign[t]
            if old < 0 and plan is None:
                # Zero-effective-flip draw: the trial stays fault-free.
                ctx.stats.deduped += 1
                continue
            sig = None if plan is None else (plan[0].tobytes(), plan[1].tobytes())
            c = seen.setdefault((old, sig), len(reps))
            if c == len(reps):
                reps.append(t)
            else:
                ctx.stats.deduped += 1
            new_assign[t] = c
        if not reps:
            return None, new_assign
        stacked = np.empty((len(reps) * rows, base_ff.shape[1]), dtype=base_ff.dtype)
        for c, t in enumerate(reps):
            ctx.injectors[t].apply_plan(
                base(assign[t]), plans[t], out=stacked[c * rows : (c + 1) * rows]
            )
        # Free the plans and the unflipped accumulators before the
        # float64 output is allocated: they set the walk's peak otherwise.
        plans = seen = acc = None
        return qc.dequantize_nhwc(stacked, oh, ow), new_assign

    def _lane_block(
        self,
        block: _QBlock,
        lanes: _Lanes,
        ff_in: Optional[np.ndarray],
        ctx: _LaneCtx,
    ) -> _Lanes:
        """A residual block under the lanes walk.

        Main path and shortcut walk independently from the block-input
        partition; the residual add joins them over the common
        refinement of the two partitions (a trial's joined class is the
        pair of its main and shortcut classes).  A side still on the
        fault-free lane joins as its fault-free output: ``ff_in`` for an
        identity shortcut, else the conv's recorded accumulators through
        its epilogue, rebuilt at most once per block.  The joined classes
        are added into one stacked buffer, rectified in place.
        """
        main = self._lane_conv(block.qconv1, lanes, ctx)
        if main[0] is not None:
            np.maximum(main[0], 0.0, out=main[0])
        main = self._lane_conv(block.qconv2, main, ctx)
        short = lanes if block.qshortcut is None else self._lane_conv(block.qshortcut, lanes, ctx)
        n = ctx.n_images
        rebuilt: Dict[str, np.ndarray] = {}

        def side(cls: int, state: Optional[np.ndarray], qc: Optional[QuantizedConv]) -> np.ndarray:
            if cls >= 0:
                return state[cls * n : (cls + 1) * n]
            if qc is None:
                return ff_in
            if qc.name not in rebuilt:
                oh, ow = ctx.prefix.out_hw[qc.name]
                rebuilt[qc.name] = qc.dequantize_nhwc(ctx.prefix.acc[qc.name], oh, ow)
            return rebuilt[qc.name]

        m_state, m_assign = main
        s_state, s_assign = short
        seen: Dict[Tuple[int, int], int] = {}
        new_assign = [-1] * len(m_assign)
        for t, key in enumerate(zip(m_assign, s_assign)):
            if key != (-1, -1):
                new_assign[t] = seen.setdefault(key, len(seen))
        if not seen:
            return None, new_assign
        joined: Optional[np.ndarray] = None
        for (m, s), c in seen.items():
            m_t = side(m, m_state, block.qconv2)
            s_t = side(s, s_state, block.qshortcut)
            if joined is None:
                shape = (len(seen) * n,) + m_t.shape[1:]
                joined = np.empty(shape, dtype=np.result_type(m_t, s_t))
            np.add(m_t, s_t, out=joined[c * n : (c + 1) * n])
        np.maximum(joined, 0.0, out=joined)
        return joined, new_assign

    def _forward_trials_lanes(
        self,
        x: np.ndarray,
        injectors: Sequence[Injector],
        injected: set,
        prefix: FaultFreePass,
        stats: TrialBatchStats,
    ) -> _Lanes:
        """The dedup walk over the whole lowered pipeline.

        Every state tensor the walk carries is its own (a conv's
        dequantized output, a join's buffer, a module's output), so ReLU
        rectifies it in place; the :class:`FaultFreePass` arrays it reads
        are read-only.
        """
        ctx = _LaneCtx(injectors, injected, prefix, x.shape[0], stats)
        lanes: _Lanes = (None, [-1] * len(injectors))
        for i, op in enumerate(self._ops):
            if isinstance(op, QuantizedConv):
                lanes = self._lane_conv(op, lanes, ctx)
            elif isinstance(op, _QBlock):
                lanes = self._lane_block(op, lanes, prefix.block_inputs.get(i), ctx)
            elif isinstance(op, ReLU):
                if lanes[0] is not None:
                    np.maximum(lanes[0], 0.0, out=lanes[0])
            elif isinstance(op, Module):
                if lanes[0] is not None:
                    lanes = (self._module_nhwc(op, lanes[0]), lanes[1])
            else:  # pragma: no cover - defensive, mirrors _forward_features
                raise TrainingError(f"unexpected op {op!r}")
        return lanes

    def forward_trials(
        self,
        x: np.ndarray,
        injectors: Sequence[Injector],
        prefix: Optional[FaultFreePass] = None,
        stats: Optional[TrialBatchStats] = None,
    ) -> np.ndarray:
        """All trials' quantized features in one stacked forward pass.

        ``injectors`` holds one per-trial fault hook (one seeded
        :class:`~repro.faults.injection.BitFlipInjector` per trial);
        each must expose the campaign's common ``ber_per_layer`` table.
        Layers before the first injected layer are shared fault-free
        work served from ``prefix``, a trial forks from it at its first
        effective flip, and trials whose flip draws duplicate another
        trial's share its tensors, with those dedup events recorded into
        ``stats``.  Returns the final pipeline tensors shaped
        ``(T*N, classes, 1, 1)`` in trial-major order, bit-identical to
        T independent serial forwards.
        """
        injected, prefix = self._prepare_trials(x, injectors, prefix)
        stats = stats if stats is not None else TrialBatchStats()
        state, assign = self._forward_trials_lanes(x, injectors, injected, prefix, stats)
        n = x.shape[0]
        parts = [prefix.features if c < 0 else state[c * n : (c + 1) * n] for c in assign]
        return _to_nchw(np.concatenate(parts, axis=0))

    def evaluate_trials(
        self,
        x: np.ndarray,
        y: np.ndarray,
        injectors: Sequence[Injector],
        topk: int = 1,
        batch_size: int = 128,
        prefix: Optional[FaultFreePass] = None,
        stats: Optional[TrialBatchStats] = None,
    ) -> List[float]:
        """Per-trial top-k accuracies from one stacked forward pass.

        The lanes walk covers the whole lowered pipeline (classifier
        head included), so scoring is one flatten + top-k per *class* of
        bit-identical trials, with exact correct-counts scattered back
        per trial.
        Accuracies are bit-identical to running each trial through
        :meth:`evaluate` at any batch size: every per-sample logit is an
        exactly-dequantized integer accumulator, unaffected by chunking.
        """
        injected, prefix = self._prepare_trials(x, injectors, prefix)
        n = x.shape[0]

        def chunked_correct(logits: np.ndarray) -> int:
            correct = 0
            for start in range(0, n, batch_size):
                correct += F.topk_correct(
                    logits[start : start + batch_size], y[start : start + batch_size], topk
                )
            return correct

        stats = stats if stats is not None else TrialBatchStats()
        state, assign = self._forward_trials_lanes(x, injectors, injected, prefix, stats)
        counts: Dict[int, int] = {}
        accuracies: List[float] = []
        for c in assign:
            if c not in counts:
                feat = prefix.features if c < 0 else state[c * n : (c + 1) * n]
                counts[c] = chunked_correct(_to_nchw(feat).reshape(n, -1))
            accuracies.append(counts[c] / n)
        return accuracies


# ---------------------------------------------------------------------- #
# First-class matmul lowering: transformer GEMMs on the integer datapath
# ---------------------------------------------------------------------- #
class QuantizedMatmul:
    """A static-weight GEMM (``x @ W + b``) on the integer MAC datapath.

    The first-class generalization of the ``Linear``-to-1x1-conv lowering:
    any ``(..., in_features)`` tensor — 2-D classifier features or 3-D
    token sequences — executes as one int64 GEMM against the per-tensor
    symmetric quantized weight matrix, with the same fault-hook and
    operand-recording surface as :class:`QuantizedConv` (the accumulator
    tensor flattened to ``(rows, out_features)``, one row per output
    vector).

    Unlike conv activations (post-ReLU, non-negative), matmul inputs may
    be signed — LayerNorm outputs feed Q/K/V projections directly.  The
    calibration pass records the signedness and the quantizer switches to
    symmetric signed (``[-q_max, q_max]``) when any negative activation
    was observed; READ-reorder applicability over such signed operand
    streams is exactly what the transformer suite measures per GEMM.
    """

    def __init__(
        self,
        name: str,
        weight: np.ndarray,
        bias: np.ndarray,
        act_bits: int = 8,
        weight_bits: int = 8,
    ) -> None:
        if weight.ndim != 2:
            raise QuantizationError(f"matmul {name}: weight must be 2-D, got {weight.shape}")
        self.name = name
        self.weight_float = weight
        self.weight_q, self.w_scale = quantize_weights(weight, n_bits=weight_bits)
        self.bias = bias
        self.act_bits = act_bits
        self.weight_bits = weight_bits
        self.groups = 1
        self.in_scale: Optional[float] = None
        self.act_signed = False
        self._observed_max = 0.0
        self._observed_min = 0.0
        self.injector: Optional[Injector] = None
        self.record = False
        self.recorded_cols: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    @property
    def in_features(self) -> int:
        return self.weight_q.shape[0]

    @property
    def out_features(self) -> int:
        return self.weight_q.shape[1]

    @property
    def n_macs_per_output(self) -> int:
        """Reduction length N of Eq. 1 (one MAC per input feature)."""
        return self.weight_q.shape[0]

    def group_col_spans(self) -> List[Tuple[int, int]]:
        return [(0, self.in_features)]

    def lowered_weight_matrix(self) -> np.ndarray:
        """Quantized GEMM weights ``(in_features, out_features)`` for READ planning."""
        return self.weight_q.copy()

    def lowered_group_weights(self) -> List[np.ndarray]:
        return [self.weight_q.copy()]

    def _act_q_max(self) -> int:
        return (1 << (self.act_bits - 1)) - 1 if self.act_signed else (1 << self.act_bits) - 1

    def acc_bound(self) -> int:
        """Largest possible |partial sum| (see :meth:`QuantizedConv.acc_bound`)."""
        col_sums = np.abs(self.weight_q).sum(axis=0)
        return int(self._act_q_max()) * int(col_sums.max(initial=0))

    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.in_scale is None:
            return self._forward_calibrate(x)
        return self._forward_quantized(x)

    __call__ = forward

    def _forward_calibrate(self, x: np.ndarray) -> np.ndarray:
        self._observed_max = max(self._observed_max, float(np.abs(x).max(initial=0.0)))
        self._observed_min = min(self._observed_min, float(x.min(initial=0.0)))
        return x @ self.weight_float + self.bias

    def finalize_calibration(self) -> None:
        """Fix the activation scale — and signedness — from calibration."""
        if self._observed_max <= 0:
            raise QuantizationError(
                f"matmul {self.name}: no nonzero activations observed during calibration"
            )
        self.act_signed = self._observed_min < 0.0
        self.in_scale = self._observed_max / self._act_q_max()

    def observations(self) -> Tuple[float, ...]:
        """What the float calibration pass observed: ``(max |x|, min x)``."""
        return (self._observed_max, self._observed_min)

    def restore_observations(self, values: Sequence[float]) -> None:
        """Fix scale and signedness from stored :meth:`observations`."""
        self._observed_max, self._observed_min = map(float, values)
        self.finalize_calibration()

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        if self.in_scale is None:
            raise QuantizationError(f"matmul {self.name} is not calibrated")
        q_max = self._act_q_max()
        q_min = -q_max if self.act_signed else 0
        return np.clip(np.round(x / self.in_scale), q_min, q_max).astype(np.int64)

    def _forward_quantized(self, x: np.ndarray) -> np.ndarray:
        lead = x.shape[:-1]
        x_q = self.quantize_input(x).reshape(-1, self.in_features)
        if self.record:
            self.recorded_cols = x_q
        acc = x_q @ self.weight_q
        if self.injector is not None:
            acc = self.injector(acc, self)
        out = acc.astype(np.float64)
        out *= self.in_scale * self.w_scale
        out += self.bias[None, :]
        return out.reshape(lead + (self.out_features,))


class QuantizedDynamicMatmul:
    """An activation-activation GEMM (``A @ B``) on the integer datapath.

    The attention products — ``Q @ K^T`` and ``softmax @ V`` — have *no*
    static weight: both operands are runtime tensors, each with its own
    calibrated per-tensor scale and signedness.  The op executes one
    batched int64 GEMM per forward; the raw accumulators, flattened to
    ``(batch*rows, cols)``, pass through the same injector hook as every
    other GEMM, and recording captures both quantized operand tensors —
    per *instance* (batch element), because the systolic array sees a
    different stationary matrix per image.

    ``extra_scale`` folds a constant factor (the attention ``1/sqrt(d)``)
    into the dequantization epilogue, keeping the integer datapath pure.
    """

    def __init__(self, name: str, act_bits: int = 8, extra_scale: float = 1.0) -> None:
        self.name = name
        self.act_bits = act_bits
        self.weight_bits = act_bits  # the stationary operand is an activation too
        self.extra_scale = float(extra_scale)
        self.groups = 1
        self.a_scale: Optional[float] = None
        self.b_scale: Optional[float] = None
        self.a_signed = False
        self.b_signed = False
        self._a_max = 0.0
        self._a_min = 0.0
        self._b_max = 0.0
        self._b_min = 0.0
        self._k: Optional[int] = None
        self.injector: Optional[Injector] = None
        self.record = False
        #: When ``record`` is set: ``(a_q, b_q)`` int64 operand tensors of
        #: the most recent forward — ``a_q`` is ``(N, rows, K)`` moving
        #: operands, ``b_q`` is ``(N, K, cols)`` stationary operands.
        self.recorded_operands: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    @property
    def in_scale(self) -> Optional[float]:
        """Moving-operand scale (parity with the static-GEMM surface)."""
        return self.a_scale

    @property
    def n_macs_per_output(self) -> int:
        """Reduction length K, fixed by the first (calibration) forward."""
        if self._k is None:
            raise QuantizationError(f"matmul {self.name} has not seen a forward pass")
        return self._k

    def group_col_spans(self) -> List[Tuple[int, int]]:
        return [(0, self.n_macs_per_output)]

    def _q_max(self, signed: bool) -> int:
        return (1 << (self.act_bits - 1)) - 1 if signed else (1 << self.act_bits) - 1

    def acc_bound(self) -> int:
        """Largest possible |partial sum| of the dynamic integer GEMM."""
        return self._q_max(self.a_signed) * self._q_max(self.b_signed) * self.n_macs_per_output

    # ------------------------------------------------------------------ #
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape[-1] != b.shape[-2]:
            raise QuantizationError(
                f"matmul {self.name}: inner dims differ ({a.shape} @ {b.shape})"
            )
        self._k = a.shape[-1]
        if self.a_scale is None:
            return self._forward_calibrate(a, b)
        return self._forward_quantized(a, b)

    __call__ = forward

    def _forward_calibrate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._a_max = max(self._a_max, float(np.abs(a).max(initial=0.0)))
        self._a_min = min(self._a_min, float(a.min(initial=0.0)))
        self._b_max = max(self._b_max, float(np.abs(b).max(initial=0.0)))
        self._b_min = min(self._b_min, float(b.min(initial=0.0)))
        return np.matmul(a, b) * self.extra_scale

    def finalize_calibration(self) -> None:
        if self._a_max <= 0 or self._b_max <= 0:
            raise QuantizationError(
                f"matmul {self.name}: no nonzero operands observed during calibration"
            )
        self.a_signed = self._a_min < 0.0
        self.b_signed = self._b_min < 0.0
        self.a_scale = self._a_max / self._q_max(self.a_signed)
        self.b_scale = self._b_max / self._q_max(self.b_signed)

    def observations(self) -> Tuple[float, ...]:
        """What the float calibration pass observed: both operands'
        ``(max |x|, min x)`` and the reduction length K."""
        k = float(self.n_macs_per_output)
        return (self._a_max, self._a_min, self._b_max, self._b_min, k)

    def restore_observations(self, values: Sequence[float]) -> None:
        """Fix scales, signedness and K from stored :meth:`observations`."""
        self._a_max, self._a_min, self._b_max, self._b_min, k = map(float, values)
        self._k = int(k)
        self.finalize_calibration()

    def _quantize(self, x: np.ndarray, scale: float, signed: bool) -> np.ndarray:
        q_max = self._q_max(signed)
        q_min = -q_max if signed else 0
        return np.clip(np.round(x / scale), q_min, q_max).astype(np.int64)

    def _forward_quantized(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a_q = self._quantize(a, self.a_scale, self.a_signed)
        b_q = self._quantize(b, self.b_scale, self.b_signed)
        if self.record:
            self.recorded_operands = (a_q, b_q)
        acc = np.matmul(a_q, b_q)
        out_shape = acc.shape
        acc = acc.reshape(-1, out_shape[-1])
        if self.injector is not None:
            acc = self.injector(acc, self)
        out = acc.astype(np.float64)
        out *= self.a_scale * self.b_scale * self.extra_scale
        return out.reshape(out_shape)


def _matmul_from_linear(linear: Linear, n_bits: int = 8) -> QuantizedMatmul:
    """Lower a ``Linear``/``TokenLinear`` to a :class:`QuantizedMatmul`."""
    return QuantizedMatmul(
        name=linear.name,
        weight=linear.weight.data.copy(),
        bias=linear.bias.data.copy(),
        act_bits=n_bits,
        weight_bits=n_bits,
    )


class _QAttention:
    """Quantized single-head self-attention (inference only).

    Q/K/V/output projections are static :class:`QuantizedMatmul` ops;
    the score and mix products are :class:`QuantizedDynamicMatmul` ops
    under the float module's :attr:`SelfAttention.dynamic_gemm_names`.
    Softmax runs in float between them — like ReLU and pooling in the
    conv pipeline, it is not in the MAC datapath under study.
    """

    def __init__(self, attn: SelfAttention, bits_fn: Callable[[str], int]) -> None:
        self.name = attn.name
        self.q = _matmul_from_linear(attn.q, bits_fn(attn.q.name))
        self.k = _matmul_from_linear(attn.k, bits_fn(attn.k.name))
        self.v = _matmul_from_linear(attn.v, bits_fn(attn.v.name))
        self.proj = _matmul_from_linear(attn.proj, bits_fn(attn.proj.name))
        qk_name, av_name = attn.dynamic_gemm_names
        self.qk = QuantizedDynamicMatmul(
            qk_name, act_bits=bits_fn(qk_name), extra_scale=attn.scale
        )
        self.av = QuantizedDynamicMatmul(av_name, act_bits=bits_fn(av_name))

    def forward(self, x: np.ndarray) -> np.ndarray:
        q = self.q(x)
        k = self.k(x)
        v = self.v(x)
        scores = self.qk(q, np.ascontiguousarray(k.transpose(0, 2, 1)))
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        return self.proj(self.av(p, v))

    __call__ = forward

    def gemm_ops(self) -> List[object]:
        return [self.q, self.k, self.v, self.qk, self.av, self.proj]


class _QEncoderBlock:
    """Quantized pre-norm transformer encoder block (inference only)."""

    def __init__(self, block: EncoderBlock, bits_fn: Callable[[str], int]) -> None:
        self.name = block.name
        self.ln1 = block.ln1
        self.attn = _QAttention(block.attn, bits_fn)
        self.ln2 = block.ln2
        self.ffn1 = _matmul_from_linear(block.ffn1, bits_fn(block.ffn1.name))
        self.ffn2 = _matmul_from_linear(block.ffn2, bits_fn(block.ffn2.name))

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x + self.attn(self.ln1.forward(x))
        return h + self.ffn2(np.maximum(self.ffn1(self.ln2.forward(h)), 0.0))

    __call__ = forward

    def gemm_ops(self) -> List[object]:
        return self.attn.gemm_ops() + [self.ffn1, self.ffn2]


class QuantizedTokenNetwork:
    """Integer-inference version of a trained token/transformer network.

    The transformer counterpart of :class:`QuantizedNetwork`: every GEMM
    — token embedding, Q/K/V/output projections, FFN layers, classifier
    head, and the two runtime activation-activation products per
    attention (``QK^T``, ``attention @ V``) — executes as an int64 GEMM
    through :class:`QuantizedMatmul` / :class:`QuantizedDynamicMatmul`,
    exposing raw accumulators to the same injector hook and operand
    recording as the conv pipeline.  Patch extraction, LayerNorm,
    softmax, residual adds and token pooling run in float (not in the MAC
    datapath).

    The class duck-types the :class:`QuantizedNetwork` surface the
    experiment/injection layers consume — ``calibrate`` / ``evaluate`` /
    ``evaluate_trials`` / ``fault_free_pass`` / ``set_injector`` /
    ``set_recording`` / ``qconvs`` (empty) / ``gemm_ops``.  The trial
    runtime is the serial loop: the conv pipeline's lanes walk does not
    cover token ops.
    """

    def __init__(
        self,
        model: ClassifierNetwork,
        bits_per_layer: Optional[Dict[str, int]] = None,
        default_bits: int = 8,
    ) -> None:
        model.eval()
        self.name = model.name
        self.bits_per_layer = {str(k): int(v) for k, v in (bits_per_layer or {}).items()}
        self.default_bits = int(default_bits)
        if not 2 <= self.default_bits <= 16:
            raise QuantizationError(f"default_bits {default_bits} outside [2, 16]")
        for name, bits in self.bits_per_layer.items():
            if not 2 <= bits <= 16:
                raise QuantizationError(f"layer {name}: n_bits {bits} outside [2, 16]")
        self._ops: List[object] = []
        self._build(model.features)
        self._build_head(model.head)
        self._calibrated = False

    def layer_bits(self, name: str) -> int:
        """The quantization bit width of GEMM ``name``."""
        return self.bits_per_layer.get(name, self.default_bits)

    # ------------------------------------------------------------------ #
    def _build(self, features: Sequential) -> None:
        for layer in features:
            if isinstance(layer, EncoderBlock):
                self._ops.append(_QEncoderBlock(layer, self.layer_bits))
            elif isinstance(layer, Linear):  # TokenLinear included
                self._ops.append(_matmul_from_linear(layer, self.layer_bits(layer.name)))
            elif isinstance(layer, (PatchExtract, LayerNorm, ReLU, TokenMean)):
                self._ops.append(layer)
            else:
                raise QuantizationError(f"cannot lower token feature layer {layer!r}")

    def _build_head(self, head: Sequential) -> None:
        for layer in head:
            if isinstance(layer, Linear):
                self._ops.append(_matmul_from_linear(layer, self.layer_bits(layer.name)))
            elif isinstance(layer, (TokenMean, ReLU)):
                self._ops.append(layer)
            else:
                raise QuantizationError(f"cannot lower token head layer {layer!r}")

    # ------------------------------------------------------------------ #
    def qconvs(self, include_shortcuts: bool = False) -> List[QuantizedConv]:
        """No conv layers in a token network (parity with the conv surface)."""
        return []

    def gemm_ops(self) -> List[object]:
        """Every integer-GEMM op in execution order (the TER/BER unit)."""
        ops: List[object] = []
        for op in self._ops:
            if isinstance(op, (QuantizedMatmul, QuantizedDynamicMatmul)):
                ops.append(op)
            elif isinstance(op, _QEncoderBlock):
                ops.extend(op.gemm_ops())
        return ops

    # ------------------------------------------------------------------ #
    def _forward_features(self, x: np.ndarray) -> np.ndarray:
        for op in self._ops:
            if isinstance(op, (QuantizedMatmul, _QEncoderBlock)):
                x = op(x)
            elif isinstance(op, ReLU):
                x = np.maximum(x, 0.0)
            elif isinstance(op, Module):
                op.training = False
                x = op.forward(x)
            else:  # pragma: no cover - defensive
                raise TrainingError(f"unexpected op {op!r}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full inference: logits ``(N, classes)``."""
        out = self.forward_features(x)
        return out.reshape(out.shape[0], -1)

    __call__ = forward

    def forward_features(self, x: np.ndarray) -> np.ndarray:
        """The lowered op pipeline; every injector hook fires along the way."""
        if not self._calibrated:
            raise QuantizationError("call calibrate(batch) before inference")
        return self._forward_features(x)

    # ------------------------------------------------------------------ #
    def calibrate(self, x: np.ndarray) -> None:
        """One float pass to fix every GEMM's operand scales."""
        self._forward_features(x)
        for op in self.gemm_ops():
            op.finalize_calibration()
        self._calibrated = True

    def calibration(self) -> Dict[str, np.ndarray]:
        """Every GEMM op's calibration observations (see :meth:`QuantizedNetwork.calibration`)."""
        return _observations(self.gemm_ops())

    def restore_calibration(self, observations: Dict[str, np.ndarray]) -> None:
        """Calibrate from stored :meth:`calibration` output, with no forward pass."""
        _restore_observations(self.gemm_ops(), observations)
        self._calibrated = True

    def set_injector(self, injector: Optional[Injector]) -> None:
        """Install (or clear) the fault hook on every GEMM op."""
        for op in self.gemm_ops():
            op.injector = injector

    def set_recording(self, record: bool) -> None:
        """Toggle operand recording on every GEMM op."""
        for op in self.gemm_ops():
            op.record = record
            if not record:
                if isinstance(op, QuantizedDynamicMatmul):
                    op.recorded_operands = None
                else:
                    op.recorded_cols = None

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        topk: int = 1,
        batch_size: int = 128,
        injector: Optional[Injector] = None,
    ) -> float:
        """Top-k accuracy of quantized inference, optionally fault-injected.

        Exact per-chunk correct counts, like
        :meth:`QuantizedNetwork.evaluate` — a short final chunk can never
        skew the average.
        """
        self.set_injector(injector)
        try:
            correct = 0
            for start in range(0, x.shape[0], batch_size):
                xb = x[start : start + batch_size]
                yb = y[start : start + batch_size]
                logits = self.forward(xb)
                correct += F.topk_correct(logits, yb, topk=topk)
            return correct / x.shape[0]
        finally:
            self.set_injector(None)

    def fault_free_pass(self, x: np.ndarray) -> FaultFreePass:
        """Every GEMM's full-batch accumulator maximum over one fault-free forward.

        Captured through the injector hook.  ``max_abs_acc`` fixes the
        relative-mode flip windows — the same determinism contract as the
        conv runtime — and is all the pass holds: the serial trial loop
        of :meth:`evaluate_trials` reads no accumulators.
        """
        if not self._calibrated:
            raise QuantizationError("call calibrate(batch) before inference")
        pass_ = FaultFreePass(n_images=x.shape[0])

        def capture(acc: np.ndarray, op: object) -> np.ndarray:
            pass_.max_abs_acc[op.name] = int(np.abs(acc).max(initial=0))
            return acc

        self.set_injector(capture)
        try:
            self._forward_features(x)
        finally:
            self.set_injector(None)
        return pass_

    def evaluate_trials(
        self,
        x: np.ndarray,
        y: np.ndarray,
        injectors: Sequence[Injector],
        topk: int = 1,
        batch_size: int = 128,
        prefix: Optional[FaultFreePass] = None,
        stats: Optional[TrialBatchStats] = None,
    ) -> List[float]:
        """Per-trial top-k accuracies (serial trial loop).

        Injector streams are keyed per ``(seed, layer name)`` and draws
        are chunk-invariant, so the serial loop is bit-identical to any
        stacked evaluation — there is nothing for ``prefix`` / ``stats``
        to change; the arguments exist for runtime-surface parity.
        """
        if not self._calibrated:
            raise QuantizationError("call calibrate(batch) before inference")
        if not injectors:
            raise QuantizationError("need at least one trial injector")
        tables = [dict(getattr(inj, "ber_per_layer")) for inj in injectors]
        if any(table != tables[0] for table in tables[1:]):
            raise QuantizationError(
                "trial injectors must share one BER table (trials differ by seed only)"
            )
        return [
            self.evaluate(x, y, topk=topk, batch_size=batch_size, injector=inj)
            for inj in injectors
        ]


def quantize_model(
    model: ClassifierNetwork,
    bits_per_layer: Optional[Dict[str, int]] = None,
    default_bits: int = 8,
) -> object:
    """Quantize a trained network onto the integer MAC datapath.

    Dispatches on the model family: networks containing token modules
    (encoder blocks, token linears, patch extraction) lower to a
    :class:`QuantizedTokenNetwork`, everything else to the conv-pipeline
    :class:`QuantizedNetwork`.  Both expose the same experiment surface.
    """
    for module in model.modules():
        if isinstance(module, (EncoderBlock, TokenLinear, PatchExtract)):
            return QuantizedTokenNetwork(
                model, bits_per_layer=bits_per_layer, default_bits=default_bits
            )
    return QuantizedNetwork(
        model, bits_per_layer=bits_per_layer, default_bits=default_bits
    )
