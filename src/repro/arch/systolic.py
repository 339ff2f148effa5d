"""Cycle-behavioural systolic-array reliability simulator.

Streams a lowered layer (GEMM) through the configured ``Ar x Ac`` array
exactly as the chosen :class:`~repro.core.pipeline.LayerMappingPlan`
prescribes — group by group, in the planned input-channel order — and
prices every MAC cycle with the dynamic timing analyzer's delay model.
The output is a :class:`LayerReliabilityReport`: the layer's TER at the
requested PVTA corner, its PSUM sign-flip rate, and the functionally-exact
outputs (used to assert compute correctness: reordering never changes a
value).

Both dataflows of Fig. 1 are supported.  They execute the *same set of
additions* (the reduction order over channels is fixed by the plan), but
they differ in *register adjacency* — which values appear in a PE's PSUM
register on consecutive cycles:

* output-stationary: consecutive partial sums of one output activation
  (the paper's setting — sign flips are accumulation sign crossings);
* weight-stationary: the same reduction stage for consecutive pixels.

Dynamic timing depends on the register *transition*, so both the
sign-flip statistic and the settle-span fed to the delay model follow the
configured dataflow's adjacency.  This is how Fig. 2 obtains scatter from
"different MACs running different layers with different dataflow" while
keeping the flip-rate/TER correlation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..hw import fixedpoint as fp
from ..hw.carry import highest_set_bit

from ..core.pipeline import LayerMappingPlan, MappingStrategy, plan_layer
from ..errors import MappingError
from ..hw.dta import DynamicTimingAnalyzer, histogram_expected_errors
from ..hw.mac import MacUnit
from ..hw.variations import PvtaCondition, TER_EVAL_CORNER
from .config import AcceleratorConfig, Dataflow
from .mapper import tile_ranges


@dataclass(frozen=True)
class LayerReliabilityReport:
    """Aggregate reliability statistics of one layer's execution.

    Attributes
    ----------
    ter:
        Timing error rate (expected errors per MAC cycle) at ``corner``.
    sign_flip_rate:
        PSUM sign-bit flips per cycle under the configured dataflow's
        register adjacency.
    n_cycles:
        MAC cycles simulated (pixels x output channels x reduction).
    mean_chain_length:
        Mean triggered carry-chain length (diagnostic).
    outputs:
        Exact outputs ``(n_pixels, K)`` in the *original* output-channel
        order — independent of the plan by compute correctness.
    n_macs_per_output:
        Reduction length ``N`` of Eq. 1 (MACs per output activation).
    strategy / corner_name:
        Provenance for reporting.
    """

    ter: float
    sign_flip_rate: float
    n_cycles: int
    mean_chain_length: float
    outputs: np.ndarray
    n_macs_per_output: int
    strategy: str
    corner_name: str

    def expected_output_ber(self) -> float:
        """Eq. 1 applied to this layer: BER = 1 - (1 - TER)^N."""
        return float(1.0 - (1.0 - self.ter) ** self.n_macs_per_output)


def weight_stationary_fold(
    psum_fields: np.ndarray,
    native_spans: np.ndarray,
    pixel_chunk: int,
    width: int,
) -> Tuple[np.ndarray, int, int]:
    """Weight-stationary register adjacency, folded as whole-tensor ops.

    Field-domain equivalent of
    :meth:`SystolicArraySimulator._apply_dataflow_adjacency` for a whole
    pixel block at once: under weight-stationary dataflow the PSUM
    register at each reduction stage sees consecutive *pixels* (axis 0 of
    ``psum_fields``), so the settle spans and sign flips are recomputed
    from the pixel-adjacent XOR instead of the within-pixel one.  The
    first pixel of every ``pixel_chunk`` keeps its within-pixel
    ``native_spans`` (its predecessor is the tile-boundary reload) and is
    excluded from the flip statistic, exactly as the reference
    simulator's chunk loop does — one shifted XOR plus one ``frexp``
    replaces the per-chunk Python iteration.

    Parameters
    ----------
    psum_fields:
        ``(n_pixels, ...)`` unsigned two's-complement PSUM register
        fields (cycle results), pixel axis first.
    native_spans:
        Within-pixel toggle spans, same shape (consumed only at chunk
        starts).
    pixel_chunk / width:
        Chunking and register width of the simulated array.

    Returns
    -------
    (spans, flip_count, transition_count):
        The dataflow-adjusted spans (same shape/dtype class as
        ``native_spans``) and the sign-flip/transition totals.
    """
    spans, flips, transition_rows = weight_stationary_fold_grouped(
        psum_fields, native_spans, pixel_chunk, width, ((slice(None),),)
    )
    per_cycle = int(np.prod(psum_fields.shape[1:], dtype=np.int64))
    return spans, flips[0], transition_rows * per_cycle


def weight_stationary_fold_grouped(
    psum_fields: np.ndarray,
    native_spans: np.ndarray,
    pixel_chunk: int,
    width: int,
    group_slices: Sequence[tuple],
    span_bias: int = 0,
) -> Tuple[np.ndarray, Tuple[int, ...], int]:
    """:func:`weight_stationary_fold` with per-slice flip accounting.

    The ``vector`` backend stacks several layers' group-GEMMs along one
    axis of a shared tile; the fold itself is elementwise along the
    pixel axis, so one shared pass serves every stacked job — only the
    *flip totals* must come back per job.  ``group_slices`` are full
    index tuples (one per stacked job, e.g.
    ``(slice(None), slice(None), job_slice)`` for a stacked axis at
    position 2); the returned ``flips`` tuple is aligned with them.
    Returns ``(spans, flips_per_slice, transition_rows)`` where each
    slice's transition count is ``transition_rows`` times its per-row
    cycle count.

    ``span_bias`` selects the span encoding.  0 keeps plain 1-based
    spans (``frexp`` exponents).  The vector backend instead keys its
    delay histogram on *float-exponent-biased* spans — span ``s > 0``
    encodes as ``s + bias`` where ``bias`` is the IEEE exponent bias
    minus one (126 for float32 / width <= 24, 1022 for float64) and 0
    stays 0 — because that is what the raw exponent bits of the float
    cast read back without any fix-up pass.  When ``span_bias`` is
    passed it must match that float-dtype rule; the chunk-start
    ``native_spans`` are assumed already biased by the caller.
    """
    n_pixels = psum_fields.shape[0]
    chunk_starts = np.arange(0, n_pixels, pixel_chunk)
    xor = np.empty_like(psum_fields)
    np.bitwise_xor(psum_fields[1:], psum_fields[:-1], out=xor[1:])
    xor[chunk_starts] = 0
    sign_bit = np.asarray(1 << (width - 1), dtype=psum_fields.dtype)
    flips = tuple(
        int(np.count_nonzero(xor[idx] >= sign_bit))  # xor==0 at chunk starts
        for idx in group_slices
    )
    # frexp's exponent is the 1-based highest set bit; float32 is exact
    # for fields under 24 bits (the paper's accumulator), float64 beyond.
    float_dtype = np.float32 if width <= 24 else np.float64
    if span_bias:
        expected = 126 if width <= 24 else 1022
        if span_bias != expected:
            raise ValueError(
                f"span_bias {span_bias} does not match width {width} "
                f"(expected {expected})"
            )
        floats = xor.astype(float_dtype)
        if float_dtype is np.float32:
            spans = floats.view(np.int32) >> 23
        else:
            spans = floats.view(np.int64) >> 52
    else:
        _, spans = np.frexp(xor.astype(float_dtype))
    spans = spans.astype(native_spans.dtype, copy=False)
    spans[chunk_starts] = native_spans[chunk_starts]
    return spans, flips, int(n_pixels - chunk_starts.size)


class SystolicArraySimulator:
    """Reliability-instrumented execution of lowered layers.

    Parameters
    ----------
    config:
        Array geometry, datapath widths, dataflow and timing models.
    pixel_chunk:
        GEMM rows simulated per vectorized block (memory/speed knob; has
        no effect on results other than WS flip statistics at chunk
        boundaries, which are excluded symmetrically).
    """

    def __init__(self, config: Optional[AcceleratorConfig] = None, pixel_chunk: int = 32):
        self.config = config or AcceleratorConfig()
        if pixel_chunk < 1:
            raise MappingError("pixel_chunk must be >= 1")
        self.pixel_chunk = pixel_chunk
        self.dta = DynamicTimingAnalyzer(
            mac_config=self.config.mac,
            delay_model=self.config.delay_model,
            sta=self.config.sta(),
        )
        self._mac = MacUnit(self.config.mac)

    # ------------------------------------------------------------------ #
    def run_gemm(
        self,
        act_matrix: np.ndarray,
        weight_matrix: np.ndarray,
        plan: Optional[LayerMappingPlan] = None,
        corner: PvtaCondition = TER_EVAL_CORNER,
    ) -> LayerReliabilityReport:
        """Execute a lowered layer and measure its reliability at one corner.

        Parameters
        ----------
        act_matrix:
            ``(n_pixels, C_eff)`` integer activations (already quantized;
            non-negative under the default uint8 activation format).
        weight_matrix:
            ``(C_eff, K)`` integer weights (int8 range).
        plan:
            Mapping plan; defaults to the baseline plan at the array's
            column width.
        corner:
            PVTA condition for the DTA.
        """
        return self.run_gemm_corners(act_matrix, weight_matrix, [corner], plan)[corner.name]

    def run_gemm_corners(
        self,
        act_matrix: np.ndarray,
        weight_matrix: np.ndarray,
        corners: Sequence[PvtaCondition],
        plan: Optional[LayerMappingPlan] = None,
    ) -> Dict[str, LayerReliabilityReport]:
        """Execute once, analyze at several PVTA corners.

        The MAC trace (carry activity, sign flips, outputs) is independent
        of the operating corner, so all corners share one simulation pass.
        The cycles are counted into a ``(multiplier bits, toggle span)``
        delay histogram, which :func:`~repro.hw.dta.histogram_expected_errors`
        prices at every corner; the TER equals the mean of
        :meth:`~repro.hw.dta.DynamicTimingAnalyzer.error_probabilities`
        over the cycles up to float summation order.  Returns a mapping
        corner name -> report.
        """
        act_matrix = np.asarray(act_matrix, dtype=np.int64)
        weight_matrix = np.asarray(weight_matrix, dtype=np.int64)
        if act_matrix.ndim != 2 or weight_matrix.ndim != 2:
            raise MappingError("act_matrix and weight_matrix must be 2-D")
        if act_matrix.shape[1] != weight_matrix.shape[0]:
            raise MappingError(
                f"reduction mismatch: acts {act_matrix.shape} vs weights {weight_matrix.shape}"
            )
        if not corners:
            raise MappingError("need at least one PVTA corner")
        if plan is None:
            plan = plan_layer(
                weight_matrix, group_size=self.config.cols, strategy=MappingStrategy.BASELINE
            )
        if plan.n_input_channels != act_matrix.shape[1]:
            raise MappingError("plan was built for a different reduction length")

        n_pixels, c_eff = act_matrix.shape
        k = weight_matrix.shape[1]
        outputs = np.zeros((n_pixels, k), dtype=np.int64)

        # Every cycle's triggered delay — and hence its error probability
        # at any corner — is a function of its (multiplier bits, toggle
        # span) bin, so the trace reduces to one integer histogram that
        # is priced once after the tile loop.
        n_spans = self.config.mac.psum_width + 1
        delay_bins = np.zeros(
            (self.config.mac.act_width + self.config.mac.weight_width + 1) * n_spans,
            dtype=np.int64,
        )
        flip_sum = 0.0
        flip_cycles = 0
        chain_sum = 0.0
        n_cycles = 0

        for group in plan.groups:
            w_sub = np.asarray(group.weights, dtype=np.int64)  # (C_eff, m) reordered
            order = group.order
            for start, stop in tile_ranges(n_pixels, self.pixel_chunk):
                acts = act_matrix[start:stop][:, order]  # (p, C_eff)
                # operand streams: (p, m, C_eff) with cycles along the last axis
                a_stream = np.broadcast_to(acts[:, None, :], (stop - start, w_sub.shape[1], c_eff))
                w_stream = np.broadcast_to(w_sub.T[None, :, :], a_stream.shape)
                trace = self._mac.run(a_stream, w_stream, validate=False)
                trace, flips, transitions = self._apply_dataflow_adjacency(trace)

                bins = (trace.act_bits + trace.weight_bits) * n_spans + trace.toggle_spans
                counts = np.bincount(bins.reshape(-1), minlength=delay_bins.size)
                if counts.size > delay_bins.size:
                    # operands wider than the configured datapath overflow
                    # the nominal histogram: grow it, they still get priced
                    counts[: delay_bins.size] += delay_bins
                    delay_bins = counts
                else:
                    delay_bins += counts
                chain_sum += float(trace.chain_lengths.sum())
                n_cycles += int(trace.sign_flips.size)

                flip_sum += flips
                flip_cycles += transitions

                outputs[start:stop, group.columns] = trace.final

        prob_sums = histogram_expected_errors(
            delay_bins, n_spans, self.dta.delay_model, corners, self.dta.clock_ps
        )
        reports = {}
        for corner, prob_sum in zip(corners, prob_sums):
            reports[corner.name] = LayerReliabilityReport(
                ter=float(prob_sum) / max(n_cycles, 1),
                sign_flip_rate=flip_sum / max(flip_cycles, 1),
                n_cycles=n_cycles,
                mean_chain_length=chain_sum / max(n_cycles, 1),
                outputs=outputs,
                n_macs_per_output=c_eff,
                strategy=plan.strategy.value,
                corner_name=corner.name,
            )
        return reports

    # ------------------------------------------------------------------ #
    def _apply_dataflow_adjacency(self, trace) -> Tuple[object, float, int]:
        """Recompute register-transition statistics for the dataflow.

        Returns ``(trace', flip_count, transition_count)``.  For output
        stationary the MAC trace's native adjacency (previous partial sum
        of the same output) is already correct.  For weight stationary the
        PSUM register at reduction stage ``c`` sees consecutive *pixels*
        (axis 0 of the ``(p, m, C_eff)`` stream), so both the sign flips
        and the settle spans driving the delay model are recomputed along
        that axis; the first pixel of a chunk keeps its within-pixel span
        (its predecessor is the tile-boundary reload).
        """
        if self.config.dataflow is Dataflow.OUTPUT_STATIONARY:
            return trace, float(trace.sign_flips.sum()), int(trace.sign_flips.size)
        if trace.psums.shape[0] < 2:
            return trace, 0.0, 0
        width = self.config.mac.psum_width
        cur = fp.to_field(trace.psums, width)
        prev = np.empty_like(cur)
        prev[1:] = cur[:-1]
        prev[0] = cur[0]
        xor = prev ^ cur
        spans = highest_set_bit(xor, width)
        spans[0] = trace.toggle_spans[0]
        sign_bit = np.int64(1) << (width - 1)
        flips = (xor[1:] & sign_bit) != 0
        new_flips = np.zeros_like(trace.sign_flips)
        new_flips[1:] = flips
        trace = replace(trace, toggle_spans=spans, sign_flips=new_flips)
        return trace, float(flips.sum()), int(flips.size)

    # ------------------------------------------------------------------ #
    def golden_gemm(self, act_matrix: np.ndarray, weight_matrix: np.ndarray) -> np.ndarray:
        """Error-free reference result (wrap-free: int64 exact)."""
        return np.asarray(act_matrix, dtype=np.int64) @ np.asarray(
            weight_matrix, dtype=np.int64
        )
